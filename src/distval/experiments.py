"""Seeded experiment runners with reproducible, recomputable reports.

Every runner draws all randomness from per-trial generators derived from
(config seed, trial index), so identical configs give byte-identical rows and
trials could be distributed without changing results. Aggregates are plain
mean/standard-error summaries recomputable from the rows.
"""
from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

import numpy as np

from ._version import __version__ as _code_version
from .data import Dataset, DiscretePmf
from .errors import InputError, UndefinedCorrelationError
from .game import build_game, verify_minmax
from .huber import (
    HuberSpec,
    MixtureWeights,
    huber_value_exact,
    random_huber_population,
    random_pmf,
    sample_huber,
)
from .kernel import KernelConfig
from .metrics import ValueVector, inversions, l2_err, l_inf_err, pearson
# mmd_discrete stays a module attribute: perfbench/trace.py wraps it here.
from .mmd import mmd2_unbiased, mmd_biased, mmd_discrete, signed_mmd  # noqa: F401
from .policy import PolicyParams, Verdict, compare
from .valuation import (
    Reference,
    ReferenceKind,
    approximation_error_bound,
    build_uniform_reference,
)


class ExperimentName(str, Enum):
    CORRELATION = "correlation"
    CONVERGENCE = "convergence"
    POLICY_SOUNDNESS = "policy_soundness"
    INCENTIVE_COMPAT = "incentive_compat"
    GAME_VERIFY = "game_verify"


_EXTRA_DEFAULTS: dict[ExperimentName, dict[str, Any]] = {
    ExperimentName.CORRELATION: {"support_max": 10, "eps_max": 0.5},
    ExperimentName.CONVERGENCE: {
        "support_max": 10,
        "eps_max": 0.5,
        "eps_scheme": "random",
        "shared_outlier": False,
        "fractions": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0],
        "m_full": 1000,
        "m_star": 4000,
    },
    ExperimentName.POLICY_SOUNDNESS: {
        "reference": "ground_truth",
        "m": 1000,
        "m_star": 1000,
        "eps_bias": 0.1,
        "eps_upsilon": 0.0,
        "separated_eps_lo": 0.4,
        "separated_eps_hi": 0.5,
        # point-mass base vs point-mass outlier this far away: near-maximal
        # distance, so separated pairs actually clear the criterion margin
        "outlier_shift": 5.0,
        # the uniform-mixture variant draws its reference from this many
        # lightly contaminated marketplace vendors (the compared pair is not
        # part of the mixture, so the mixture cannot hide their gap)
        "ref_vendors": 3,
        "ref_eps_max": 0.1,
        "ref_m": 600,
    },
    ExperimentName.INCENTIVE_COMPAT: {
        "mode": "empirical",
        "support_max": 10,
        "eps_max": 0.5,
        "m": 600,
        "m_star": 2400,
        "noise_var": 0.2,
        "misreporter": None,  # default: middle vendor n // 2
    },
    ExperimentName.GAME_VERIFY: {"n_values": [2, 3, 4, 5], "distance_scale": 1.0},
}

# The values of the string keys above; eps_scheme "spaced" sets eps_i = i/n.
_EXTRA_CHOICES: dict[str, tuple[str, ...]] = {
    "eps_scheme": ("random", "spaced"),
    "reference": ("ground_truth", "uniform"),
    "mode": ("empirical", "exact"),
}


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # finite and within float range: JSON has no NaN or infinity (json.load
    # accepts both), and an int/float comparison is exact for any int
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _one_of(values) -> tuple:
    values = list(values)
    return "one of " + ", ".join(map(json.dumps, values)), lambda v: v in values


def _nonempty_list_of(test):
    # a sweep over no values would certify or average nothing
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(test, v))


# JSON kinds of config values: the type an error names, and the test.
_NUMBER = ("a number", _is_number)
_INTEGER = ("an integer", _is_integer)
_COUNT = ("an integer >= 1", lambda v: _is_integer(v) and v >= 1)
_SEED = ("an integer >= 0", lambda v: _is_integer(v) and v >= 0)
_BOOLEAN = ("true or false", lambda v: isinstance(v, bool))
_NUMBERS = ("a nonempty list of numbers", _nonempty_list_of(_is_number))
_INTEGERS = ("a nonempty list of integers", _nonempty_list_of(_is_integer))
# Shares of m_full rows: above 1 would ask for rows there are not, and 0 or
# less for none.
_FRACTIONS = (
    "a nonempty list of numbers in (0, 1]",
    _nonempty_list_of(lambda v: _is_number(v) and 0 < v <= 1),
)


def _extra_kind(key: str, default) -> tuple:
    """The JSON kind of an extra value, read off its default."""
    if key in _EXTRA_CHOICES:
        return _one_of(_EXTRA_CHOICES[key])
    if key == "fractions":
        return _FRACTIONS
    if isinstance(default, list):
        return _INTEGERS if all(map(_is_integer, default)) else _NUMBERS
    # an int default, or None for an optional index, takes an integer
    return {bool: _BOOLEAN, float: _NUMBER}.get(type(default), _INTEGER)


@dataclass(frozen=True)
class ExperimentConfig:
    """One runner's settings. Each `extra` key must be one of the runner's
    `_EXTRA_DEFAULTS` and hold a value of its default's JSON kind."""

    name: ExperimentName
    n: int
    trials: int
    seed: int
    kernel: KernelConfig
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, (what, test) in (("n", _COUNT), ("trials", _COUNT), ("seed", _SEED)):
            value = getattr(self, key)
            if not test(value):
                raise InputError(f"experiment: {key} must be {what}, got {value!r}")
        defaults = _EXTRA_DEFAULTS[self.name]
        for key, value in self.extra.items():
            if key not in defaults:
                raise InputError(
                    f"config: experiment.extra.{key} is not a known key;"
                    f" experiment.extra takes only {', '.join(defaults)}"
                )
            default = defaults[key]
            what, test = _extra_kind(key, default)
            # null stands for the default only where the default is None
            if not (test(value) or value is None and default is None):
                got = json.dumps(value, default=repr)
                raise InputError(f"config: experiment.extra.{key} must be {what}, got {got}")

    def resolved_extra(self) -> dict:
        out = dict(_EXTRA_DEFAULTS[self.name])
        out.update(self.extra)
        return out


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    config: dict
    code_version: str
    rows: list[dict]
    aggregates: dict
    curves: dict = field(default_factory=dict)
    timing: dict | None = None

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "config": self.config,
            "code_version": self.code_version,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "curves": self.curves,
        }
        if self.timing is not None:
            payload["timing"] = self.timing
        return json.dumps(payload, allow_nan=False)


def _report(cfg: ExperimentConfig, rows: list[dict], aggregates: dict, curves=None):
    """The runner's report, echoing its resolved config for provenance."""
    config = {
        "name": cfg.name.value,
        "n": cfg.n,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "kernel": {"sigma": cfg.kernel.sigma},
        "extra": cfg.resolved_extra(),
    }
    return ExperimentReport(cfg.name.value, config, _code_version, rows, aggregates, curves or {})


def _trial_seeds(config_seed: int, trial: int, k: int) -> list[int]:
    # All per-trial randomness flows from (config seed, trial index).
    return [int(s) for s in np.random.SeedSequence([config_seed, trial]).generate_state(k)]


def _trial_rng(config_seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config_seed, trial, stream]))


def summarize(rows: list[dict], skip: tuple[str, ...] = ("trial",)) -> dict:
    """Mean and standard error per numeric statistic over the rows."""
    agg: dict[str, dict[str, float]] = {}
    if not rows:
        return agg
    for key in rows[0]:
        if key in skip:
            continue
        vals = [r[key] for r in rows if isinstance(r.get(key), (int, float))]
        if len(vals) != len(rows):
            continue
        arr = np.asarray(vals, dtype=float)
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        agg[key] = {"mean": float(arr.mean()), "stderr": stderr}
    return agg


# ---------------------------------------------------------------------------
# correlation: exact values against the uniform-mixture reference


def _population_rows(base: DiscretePmf, specs: list[HuberSpec]) -> np.ndarray:
    """The realized pmfs (1 - eps_i) base + eps_i outlier_i as the rows of one
    matrix over the support of a `random_huber_population`, which the base
    and every outlier share."""
    eps = np.array([[s.epsilon] for s in specs])
    realized = (1.0 - eps) * base.probs + eps * np.array([s.outlier.probs for s in specs])
    return realized / realized.sum(axis=1, keepdims=True)


def _uniform_mix(rows: np.ndarray) -> np.ndarray:
    """The uniform mixture of pmf rows, accumulated in row order."""
    mix = (MixtureWeights.uniform(rows.shape[0]).weights[:, None] * rows).sum(axis=0)
    return mix / mix.sum()


def run_correlation(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact-mode study: how well do mixture-reference values track true values?

    Per trial, draws a random population, computes the true value -d(P_i, base)
    and the measured value -d(P_i, P_mix) of every vendor exactly, and records
    their Pearson correlation. Two regression fits are recorded: the exact
    values regressed on the error levels (the identity line, r^2 = 1), and the
    measured values regressed on the error levels, flagged when its r^2 drops
    below 0.9.
    """
    ex = cfg.resolved_extra()
    rows = []
    for t in range(cfg.trials):
        (seed_pop,) = _trial_seeds(cfg.seed, t, 1)
        base, specs = random_huber_population(cfg.n, ex["support_max"], ex["eps_max"], seed_pop)
        pmfs = _population_rows(base, specs)
        true = -signed_mmd(cfg.kernel, base.support, pmfs - base.probs)
        measured = -signed_mmd(cfg.kernel, base.support, pmfs - _uniform_mix(pmfs))
        error = -true
        ids = tuple(f"v{i}" for i in range(cfg.n))
        try:
            rho = pearson(ValueVector(true, ids), ValueVector(measured, ids))
        except UndefinedCorrelationError:
            rows.append({"trial": t, "skipped": 1})
            continue
        # The r^2 of a least-squares line is the squared Pearson correlation,
        # and pearson(error, measured) is -rho since error is -true.
        r2_meas = rho**2
        rows.append(
            {
                "trial": t,
                "skipped": 0,
                "pearson": rho,
                "r2_exact_fit": pearson(ValueVector(error, ids), ValueVector(true, ids)) ** 2,
                "r2_measured_on_error": r2_meas,
                "r2_below_0.9": int(r2_meas < 0.9),
            }
        )
    kept = [r for r in rows if not r.get("skipped")]
    return _report(cfg, rows, summarize(kept, skip=("trial", "skipped")))


# ---------------------------------------------------------------------------
# convergence: sample-size sweep of the three ranking criteria


def _population(cfg: ExperimentConfig, ex: dict, seed: int):
    """Population for sweep experiments, honouring the eps scheme."""
    n = cfg.n
    if ex["eps_scheme"] == "random" and not ex["shared_outlier"]:
        return random_huber_population(n, ex["support_max"], ex["eps_max"], seed)
    rng = np.random.default_rng(seed)
    support = np.arange(ex["support_max"] + 1, dtype=float)[:, None]
    base = random_pmf(rng, support)
    if ex["eps_scheme"] == "spaced":
        eps = np.array([i / n for i in range(n)])
    else:
        eps = rng.uniform(0.0, ex["eps_max"], size=n)
    if ex["shared_outlier"]:
        q = random_pmf(rng, support)
        outliers = [q] * n
    else:
        outliers = [random_pmf(rng, support) for _ in range(n)]
    specs = [
        HuberSpec(epsilon=float(eps[i]), base=base, outlier=outliers[i]) for i in range(n)
    ]
    return base, specs


def _values(kcfg: KernelConfig, datasets: list[Dataset], ref: Dataset) -> np.ndarray:
    """Biased-MMD values against one reference; its self-sum is computed once."""
    return np.array([-mmd_biased(kcfg, d, ref) for d in datasets])


def run_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep sample fractions and measure l2 / l_inf / inversions of the values
    at each size against the full-size values, all against one ground-truth
    reference sample per trial."""
    ex = cfg.resolved_extra()
    fractions, m_full, m_star = ex["fractions"], ex["m_full"], ex["m_star"]
    ids = tuple(f"v{i}" for i in range(cfg.n))
    rows = []
    for t in range(cfg.trials):
        seeds = _trial_seeds(cfg.seed, t, 2 + cfg.n)
        base, specs = _population(cfg, ex, seeds[0])
        ref = sample_huber(HuberSpec(0.0, base, None), m_star, seeds[1], "ref")
        full = [sample_huber(specs[i], m_full, seeds[2 + i], f"v{i}") for i in range(cfg.n)]
        vv_star = ValueVector(_values(cfg.kernel, full, ref), ids)
        for f in fractions:
            m_f = max(1, round(f * m_full))
            heads = [Dataset(d.id, d.points[:m_f]) for d in full]
            vv = ValueVector(_values(cfg.kernel, heads, ref), ids)
            rows.append(
                {
                    "trial": t,
                    "fraction": f,
                    "m": m_f,
                    "l2": l2_err(vv, vv_star),
                    "linf": l_inf_err(vv, vv_star),
                    "inversions": inversions(vv, vv_star),
                }
            )
    curves: dict[str, list[dict]] = {crit: [] for crit in ("l2", "linf", "inversions")}
    for f in fractions:
        sub = [r for r in rows if r["fraction"] == f]
        agg = summarize(sub, skip=("trial", "fraction", "m"))
        for crit in curves:
            curves[crit].append({"fraction": f, **agg[crit]})
    return _report(cfg, rows, summarize(rows, skip=("trial", "fraction", "m")), curves)


# ---------------------------------------------------------------------------
# policy soundness: Monte-Carlo check of the comparison guarantees


def run_policy_soundness(cfg: ExperimentConfig) -> ExperimentReport:
    """Resample vendor pairs, run `compare`, and tally how often a Conclude
    verdict is actually right about the exact population values.

    Half the trials use a well-separated pair (a point-mass base against a
    model leaking mass to a far point: the conclusion should be drawn and is
    analytically true); half use an identical pair, where any Conclude is a
    false positive bounded by the confidence level. The uniform-mixture
    variant values both candidates against a marketplace mixture of lightly
    contaminated vendors, with the margin surcharge taken from the exact
    mixture error bound.
    """
    ex = cfg.resolved_extra()
    m, m_star, n_ref = ex["m"], ex["m_star"], ex["ref_vendors"]
    params = PolicyParams(eps_upsilon=ex["eps_upsilon"], eps_bias=ex["eps_bias"])
    rows = []
    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        seeds = _trial_seeds(cfg.seed, t, 3 + n_ref)
        support = np.arange(11, dtype=float)[:, None]
        separated = t % 2 == 0
        if separated:
            atom = float(rng.integers(0, 11))
            base = DiscretePmf(np.array([[atom]]), np.array([1.0]))
            far = DiscretePmf(np.array([[atom + ex["outlier_shift"]]]), np.array([1.0]))
            eps2 = float(rng.uniform(ex["separated_eps_lo"], ex["separated_eps_hi"]))
            spec1 = HuberSpec(0.0, base, None)
            spec2 = HuberSpec(eps2, base, far)
        else:
            base = random_pmf(rng, support)
            eps = float(rng.uniform(0.0, 0.2))
            q = random_pmf(rng, support)
            spec1 = HuberSpec(eps, base, q)
            spec2 = HuberSpec(eps, base, q)
        d1 = sample_huber(spec1, m, seeds[0], "a")
        d2 = sample_huber(spec2, m, seeds[1], "b")
        if ex["reference"] == "uniform":
            ref_specs = [
                HuberSpec(float(rng.uniform(0.0, ex["ref_eps_max"])), base, random_pmf(rng, support))
                for _ in range(n_ref)
            ]
            ref_sets = [
                sample_huber(ref_specs[i], ex["ref_m"], seeds[3 + i], f"ref{i}")
                for i in range(n_ref)
            ]
            ref = build_uniform_reference(ref_sets, seeds[2])
            gap = approximation_error_bound(
                ref_specs, MixtureWeights.uniform(n_ref), cfg.kernel
            )
            report = compare(cfg.kernel, params, d1, d2, ref, huber_gap=gap)
        else:
            ref_data = sample_huber(HuberSpec(0.0, base, None), m_star, seeds[2], "ref")
            ref = Reference(kind=ReferenceKind.GROUND_TRUTH, data=ref_data)
            report = compare(cfg.kernel, params, d1, d2, ref)
        true_gap = huber_value_exact(cfg.kernel, spec1) - huber_value_exact(cfg.kernel, spec2)
        truth = true_gap > params.eps_upsilon
        concluded = report.verdict is Verdict.CONCLUDE
        rows.append(
            {
                "trial": t,
                "separated": int(separated),
                "concluded": int(concluded),
                "truth_holds": int(truth),
                "violation": int(concluded and not truth),
                "observed_gap": report.observed_gap,
                "margin": report.margin,
                "delta": report.delta,
            }
        )
    agg = summarize(rows)
    concluded_rows = [r for r in rows if r["concluded"]]
    agg["conclude_rate"] = {"mean": len(concluded_rows) / len(rows), "stderr": 0.0}
    sound = (
        sum(r["truth_holds"] for r in concluded_rows) / len(concluded_rows)
        if concluded_rows
        else 1.0
    )
    agg["soundness_among_concluded"] = {"mean": sound, "stderr": 0.0}
    return _report(cfg, rows, agg)


# ---------------------------------------------------------------------------
# incentive compatibility: what misreporting does to the misreporter's value


def run_incentive(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-vendor value changes when one vendor misreports by adding zero-mean
    Gaussian noise, under three scorings: ground-truth reference, the
    uniform-mixture reference (biased MMD), and squared-MMD values against the
    same mixture reference. The mixture reference is rebuilt from the
    misreported data, as a real marketplace would have to."""
    ex = cfg.resolved_extra()
    rows = []
    i_mis = ex["misreporter"] if ex["misreporter"] is not None else cfg.n // 2
    if not (0 <= i_mis < cfg.n):
        raise InputError("incentive: misreporter index out of range")
    if not 0 < ex["noise_var"] < math.inf:
        raise InputError(f"incentive: noise_var must be finite and > 0, got {ex['noise_var']!r}")
    for t in range(cfg.trials):
        seeds = _trial_seeds(cfg.seed, t, 4 + cfg.n)
        base, specs = random_huber_population(cfg.n, ex["support_max"], ex["eps_max"], seeds[0])
        if ex["mode"] == "exact":
            rows.extend(_incentive_exact_trial(cfg, ex, t, base, specs, i_mis))
            continue
        honest = [sample_huber(specs[i], ex["m"], seeds[2 + i], f"v{i}") for i in range(cfg.n)]
        ref_gt = sample_huber(HuberSpec(0.0, base, None), ex["m_star"], seeds[1], "gt")
        rng = _trial_rng(cfg.seed, t, stream=1)
        pts = honest[i_mis].points
        mis = list(honest)
        mis[i_mis] = Dataset(
            f"v{i_mis}", pts + rng.normal(0.0, math.sqrt(ex["noise_var"]), size=pts.shape)
        )
        # The uniform mixture is rebuilt from whatever the vendors submitted.
        mix_b = Dataset("mix", np.concatenate([d.points for d in honest], axis=0))
        mix_a = Dataset("mix", np.concatenate([d.points for d in mis], axis=0))
        gt_b, gt_a = _values(cfg.kernel, honest, ref_gt), _values(cfg.kernel, mis, ref_gt)
        ours_b, ours_a = _values(cfg.kernel, honest, mix_b), _values(cfg.kernel, mis, mix_a)
        m2_b = [-mmd2_unbiased(cfg.kernel, d, mix_b) for d in honest]
        m2_a = [-mmd2_unbiased(cfg.kernel, d, mix_a) for d in mis]
        for i in range(cfg.n):
            rows.append(
                {
                    "trial": t,
                    "vendor": i,
                    "misreporter": int(i == i_mis),
                    "change_gt": float(gt_a[i] - gt_b[i]),
                    "change_ours": float(ours_a[i] - ours_b[i]),
                    "change_mmd2": float(m2_a[i] - m2_b[i]),
                    "d_ours_before": float(-ours_b[i]),
                    "d_ours_after": float(-ours_a[i]),
                }
            )
    mis_rows = [r for r in rows if r["misreporter"]]
    agg = summarize(rows, skip=("trial", "vendor"))
    for key in ("change_gt", "change_ours", "change_mmd2"):
        agg[f"misreporter_{key}"] = summarize(mis_rows, skip=("trial", "vendor"))[key]
    return _report(cfg, rows, agg)


def _incentive_exact_trial(cfg, ex, t, base, specs, i_mis):
    """The misreporter's pmf convolved with a discretized zero-mean Gaussian;
    every pmf of the trial lives on the population's lattice {0..support_max}
    widened on both sides by the noise's reach."""
    half = max(1, math.ceil(4.0 * math.sqrt(ex["noise_var"])))
    noise = np.exp(-(np.arange(-half, half + 1) ** 2) / (2.0 * ex["noise_var"]))
    wide = np.arange(-half, ex["support_max"] + half + 1, dtype=float)[:, None]
    b = np.pad(base.probs, half)
    honest = np.pad(_population_rows(base, specs), ((0, 0), (half, half)))
    mis = honest.copy()
    mis[i_mis] = np.convolve(honest[i_mis, half:-half], noise / noise.sum())
    mis[i_mis] /= mis[i_mis].sum()
    d_gt_b, d_gt_a = (signed_mmd(cfg.kernel, wide, p - b) for p in (honest, mis))
    d_u_b, d_u_a = (signed_mmd(cfg.kernel, wide, p - _uniform_mix(p)) for p in (honest, mis))
    return [
        {
            "trial": t,
            "vendor": i,
            "misreporter": int(i == i_mis),
            "change_gt": -float(d_gt_a[i] - d_gt_b[i]),
            "change_ours": -float(d_u_a[i] - d_u_b[i]),
            "change_mmd2": -float(d_u_a[i] ** 2 - d_u_b[i] ** 2),
            "d_ours_before": float(d_u_b[i]),
            "d_ours_after": float(d_u_a[i]),
        }
        for i in range(cfg.n)
    ]


# ---------------------------------------------------------------------------
# game verification


def run_game_verify(cfg: ExperimentConfig) -> ExperimentReport:
    """Certify the uniform-minimax identity on random distance vectors."""
    ex = cfg.resolved_extra()
    rows = []
    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        for n in ex["n_values"]:
            d = rng.uniform(0.0, ex["distance_scale"], size=n)
            rep = verify_minmax(build_game(d))
            rows.append(
                {
                    "trial": t,
                    "n": n,
                    "certified": int(rep.certified),
                    "uniform_value": rep.uniform_value,
                    "dual_value": rep.dual_value,
                    "best_pure_value": rep.best_pure_value,
                }
            )
    agg = summarize(rows, skip=("trial", "n"))
    agg["pass_rate"] = {
        "mean": sum(r["certified"] for r in rows) / len(rows),
        "stderr": 0.0,
    }
    return _report(cfg, rows, agg)


_RUNNERS = {
    ExperimentName.CORRELATION: run_correlation,
    ExperimentName.CONVERGENCE: run_convergence,
    ExperimentName.POLICY_SOUNDNESS: run_policy_soundness,
    ExperimentName.INCENTIVE_COMPAT: run_incentive,
    ExperimentName.GAME_VERIFY: run_game_verify,
}


def run(cfg: ExperimentConfig, timing: bool = False) -> ExperimentReport:
    """Dispatch to the named runner; with timing=True the report carries the
    wall-clock duration (kept out of the rows, which stay byte-identical)."""
    start = time.perf_counter()
    report = _RUNNERS[cfg.name](cfg)
    if timing:
        elapsed = time.perf_counter() - start
        return replace(report, timing={"elapsed_seconds": elapsed, "trials": cfg.trials})
    return report


# ---------------------------------------------------------------------------
# serialization


def write_csv(rows: list[dict], path: str | None = None):
    """Row dicts as CSV to `path`, or to stdout without one. The columns are
    every key in order of first appearance; a row without a key leaves its
    cell empty."""
    cols = list(dict.fromkeys(k for r in rows for k in r))
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows([r.get(c, "") for c in cols] for r in rows)
    finally:
        if path:
            fh.close()


def write_rows_csv(report: ExperimentReport, path: str):
    """Per-trial rows as CSV; column order follows the first row."""
    if not report.rows:
        raise InputError("report has no rows")
    write_csv(report.rows, path)


def write_curve_csvs(report: ExperimentReport, base_path: str) -> list[str]:
    """One plot-ready CSV per criterion curve (convergence experiments)."""
    written = []
    for crit, points in report.curves.items():
        path = f"{base_path}_{crit}.csv"
        write_csv(points, path)  # each point is {fraction, mean, stderr}
        written.append(path)
    return written
