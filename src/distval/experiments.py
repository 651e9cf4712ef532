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

from ._schema import (
    BOOLEAN,
    COUNT,
    GAME_SIZES,
    INTEGER,
    NONNEGATIVE,
    Section,
    is_integer,
    is_number,
    nonempty_list_of,
    one_of,
)
from ._version import __version__ as _code_version
from .data import Dataset, DiscretePmf
from .errors import CapacityError, InputError, UndefinedCorrelationError
from .game import build_game, verify_minmax
from .huber import (
    HuberSpec,
    MixtureWeights,
    _lattice_draw,
    _lattice_specs,
    huber_value_exact,
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


# Shares of m_full rows: above 1 would ask for rows there are not, and 0 or
# less for none.
_FRACTIONS = (
    "a nonempty list of numbers in (0, 1]",
    nonempty_list_of(lambda v: is_number(v) and 0 < v <= 1),
)

# The bound of eps_i ~ U(0, eps_max): an eps must be below 1, and 0 contaminates nothing.
_EPS_MAX = ("a number in (0, 1)", lambda v: is_number(v) and 0 < v < 1)

# The soundness study's margins, as `PolicyParams` takes them.
_EPS_MARGIN = ("a number >= 0", lambda v: is_number(v) and v >= 0)

# The most points a study's lattice may have. `_lattice_draw` allocates n
# values per point, and an exact distance scans the lattice's upper triangle:
# 2^15 points is 5.4e8 kernel entries per distance.
MAX_LATTICE_POINTS = 2**15


def _noise_reach(noise_var: float) -> int:
    """The lattice steps exact mode's discretized noise reaches on each side
    of a point: 4 standard deviations, at least 1."""
    return max(1, math.ceil(4.0 * math.sqrt(noise_var)))


# Each runner's extras, key: (default, JSON kind).
_EXTRA_DEFAULTS: dict[ExperimentName, dict[str, tuple[Any, tuple]]] = {
    ExperimentName.CORRELATION: {"support_max": (10, NONNEGATIVE), "eps_max": (0.5, _EPS_MAX)},
    ExperimentName.CONVERGENCE: {
        "support_max": (10, NONNEGATIVE),
        "eps_max": (0.5, _EPS_MAX),
        "eps_scheme": ("random", one_of(("random", "spaced"))),  # "spaced": eps_i = i/n
        "shared_outlier": (False, BOOLEAN),
        "fractions": ([0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0], _FRACTIONS),
        "m_full": (1000, COUNT),
        "m_star": (4000, COUNT),
    },
    ExperimentName.POLICY_SOUNDNESS: {
        "reference": ("ground_truth", one_of(("ground_truth", "uniform"))),
        "m": (1000, COUNT),
        "m_star": (1000, COUNT),
        "eps_bias": (0.1, _EPS_MARGIN),
        "eps_upsilon": (0.0, _EPS_MARGIN),
        # the uniform-mixture variant draws its reference from this many
        # lightly contaminated marketplace vendors (the compared pair is not
        # part of the mixture, so the mixture cannot hide their gap)
        "ref_vendors": (3, COUNT),
        "ref_m": (600, COUNT),
    },
    ExperimentName.INCENTIVE_COMPAT: {
        "mode": ("empirical", one_of(("empirical", "exact"))),
        "support_max": (10, NONNEGATIVE),
        "eps_max": (0.5, _EPS_MAX),
        "m": (600, COUNT),
        "m_star": (2400, COUNT),
        "noise_var": (0.2, ("a number > 0", lambda v: is_number(v) and v > 0)),
        "misreporter": (None, INTEGER),  # default: middle vendor n // 2
    },
    ExperimentName.GAME_VERIFY: {"n_values": ([2, 3, 4, 5], GAME_SIZES)},
}

# Separated soundness pairs: a point-mass base against a point-mass outlier
# this far away, mixed in at a level drawn from this range. The distance is
# near-maximal, so separated pairs actually clear the criterion margin.
_OUTLIER_SHIFT = 5.0
_SEPARATED_EPS = (0.4, 0.5)
# the contamination bound of the uniform-mixture variant's marketplace vendors
_REF_EPS_MAX = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """One runner's settings. Each `extra` key must be one of the runner's
    `_EXTRA_DEFAULTS` and hold a value of its declared JSON kind."""

    name: ExperimentName
    n: int
    trials: int
    seed: int
    kernel: KernelConfig
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, (what, test) in (("n", COUNT), ("trials", COUNT), ("seed", NONNEGATIVE)):
            value = getattr(self, key)
            if not test(value):
                raise InputError(f"experiment: {key} must be {what}, got {value!r}")
        if self.name is ExperimentName.CORRELATION and self.n < 2:
            # a Pearson correlation over the vendors needs two of them
            raise InputError(f"experiment: n must be >= 2 for the correlation study, got {self.n}")
        extras = _EXTRA_DEFAULTS[self.name]
        section = Section(self.extra, "experiment.extra", extras)
        for key, (default, kind) in extras.items():
            section.get(key, kind, default)
        if "misreporter" in extras:
            # a vendor's index, so its range is set by n
            index = (f"an integer in [0, {self.n})", lambda v: is_integer(v) and 0 <= v < self.n)
            section.get("misreporter", index, None)
        if "support_max" in extras:
            ex = self.resolved_extra()
            points, given = ex["support_max"] + 1, f"support_max = {ex['support_max']}"
            if ex.get("mode") == "exact":
                # the noise widens the lattice on both sides
                points += 2 * _noise_reach(ex["noise_var"])
                given += f" and noise_var = {ex['noise_var']!r}"
            if points > MAX_LATTICE_POINTS:
                raise CapacityError(
                    f"experiment: the lattice at {given} has more than"
                    f" MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS} points"
                )

    def resolved_extra(self) -> dict:
        return {
            key: self.extra.get(key, default)
            for key, (default, _) in _EXTRA_DEFAULTS[self.name].items()
        }


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


def _realized(base: np.ndarray, eps: np.ndarray, outliers: np.ndarray) -> np.ndarray:
    """The realized pmfs (1 - eps_i) base + eps_i outlier_i of a
    `_lattice_draw`, one row per vendor."""
    realized = (1.0 - eps[:, None]) * base + eps[:, None] * outliers
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
        base, eps, outliers = _lattice_draw(seed_pop, cfg.n, ex["support_max"], ex["eps_max"])
        pmfs = _realized(base, eps, outliers)
        support = np.arange(len(base), dtype=float)[:, None]
        diffs = np.concatenate((pmfs - base, pmfs - _uniform_mix(pmfs)))
        true, measured = -signed_mmd(cfg.kernel, support, diffs).reshape(2, -1)
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


def run_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep sample fractions and measure l2 / l_inf / inversions of the values
    at each size against the full-size values, all against one ground-truth
    reference sample per trial."""
    ex = cfg.resolved_extra()
    fractions, m_full, m_star = ex["fractions"], ex["m_full"], ex["m_star"]
    spaced, shared = ex["eps_scheme"] == "spaced", ex["shared_outlier"]
    ids = tuple(f"v{i}" for i in range(cfg.n))
    rows = []
    for t in range(cfg.trials):
        seeds = _trial_seeds(cfg.seed, t, 2 + cfg.n)
        draw = _lattice_draw(seeds[0], cfg.n, ex["support_max"], ex["eps_max"], spaced, shared)
        base, specs = _lattice_specs(*draw)
        ref = sample_huber(HuberSpec(0.0, base, None), m_star, seeds[1], "ref")
        full = [sample_huber(specs[i], m_full, seeds[2 + i], f"v{i}") for i in range(cfg.n)]
        vv_star = ValueVector(np.array([-mmd_biased(cfg.kernel, d, ref) for d in full]), ids)
        for f in fractions:
            m_f = max(1, round(f * m_full))
            heads = [Dataset(d.id, d.points[:m_f]) for d in full]
            vv = ValueVector(np.array([-mmd_biased(cfg.kernel, d, ref) for d in heads]), ids)
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
            far = DiscretePmf(np.array([[atom + _OUTLIER_SHIFT]]), np.array([1.0]))
            eps2 = float(rng.uniform(*_SEPARATED_EPS))
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
                HuberSpec(float(rng.uniform(0.0, _REF_EPS_MAX)), base, random_pmf(rng, support))
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
    for t in range(cfg.trials):
        seeds = _trial_seeds(cfg.seed, t, 4 + cfg.n)
        draw = _lattice_draw(seeds[0], cfg.n, ex["support_max"], ex["eps_max"])
        if ex["mode"] == "exact":
            rows.extend(_incentive_rows(t, i_mis, *_incentive_exact(cfg, ex, *draw, i_mis)))
            continue
        base, specs = _lattice_specs(*draw)
        honest = [sample_huber(specs[i], ex["m"], seeds[2 + i], f"v{i}") for i in range(cfg.n)]
        ref_gt = sample_huber(HuberSpec(0.0, base, None), ex["m_star"], seeds[1], "gt")
        rng = _trial_rng(cfg.seed, t, stream=1)
        pts = honest[i_mis].points
        mis = list(honest)
        mis[i_mis] = Dataset(
            f"v{i_mis}", pts + rng.normal(0.0, math.sqrt(ex["noise_var"]), size=pts.shape)
        )
        d_gt, d_mix, mmd2 = [], [], []
        for data in (honest, mis):
            # The uniform mixture is rebuilt from whatever the vendors submitted.
            mix = Dataset._pooled("mix", data, [np.arange(len(d)) for d in data])
            d_gt.append([mmd_biased(cfg.kernel, d, ref_gt) for d in data])
            d_mix.append([mmd_biased(cfg.kernel, d, mix) for d in data])
            mmd2.append([mmd2_unbiased(cfg.kernel, d, mix) for d in data])
        rows.extend(_incentive_rows(t, i_mis, d_gt, d_mix, mmd2))
    agg = summarize(rows, skip=("trial", "vendor"))
    mis_agg = summarize([r for r in rows if r["misreporter"]], skip=("trial", "vendor"))
    for key in ("change_gt", "change_ours", "change_mmd2"):
        agg[f"misreporter_{key}"] = mis_agg[key]
    return _report(cfg, rows, agg)


def _incentive_rows(t, i_mis, d_gt, d_mix, mmd2):
    """One row per vendor from (before, after) pairs of per-vendor arrays:
    the distance to the ground truth, the distance to the uniform mixture,
    and the squared MMD against the mixture. A value is minus its distance,
    so a value's change is before - after."""
    (gt_b, gt_a), (mix_b, mix_a), (m2_b, m2_a) = d_gt, d_mix, mmd2
    return [
        {
            "trial": t,
            "vendor": i,
            "misreporter": int(i == i_mis),
            "change_gt": float(gt_b[i] - gt_a[i]),
            "change_ours": float(mix_b[i] - mix_a[i]),
            "change_mmd2": float(m2_b[i] - m2_a[i]),
            "d_ours_before": float(mix_b[i]),
            "d_ours_after": float(mix_a[i]),
        }
        for i in range(len(gt_b))
    ]


def _incentive_exact(cfg, ex, base, eps, outliers, i_mis):
    """`_incentive_rows`' arrays in exact mode from a `_lattice_draw`, where
    the misreporter's pmf is convolved with a discretized zero-mean Gaussian.
    Every pmf of the trial lives on the population's lattice {0..support_max}
    widened on both sides by the noise's reach, and the squared MMD is the
    exact one."""
    half = _noise_reach(ex["noise_var"])
    noise = np.exp(-(np.arange(-half, half + 1) ** 2) / (2.0 * ex["noise_var"]))
    wide = np.arange(-half, ex["support_max"] + half + 1, dtype=float)[:, None]
    b = np.pad(base, half)
    honest = np.pad(_realized(base, eps, outliers), ((0, 0), (half, half)))
    mis = honest.copy()
    mis[i_mis] = np.convolve(honest[i_mis, half:-half], noise / noise.sum())
    mis[i_mis] /= mis[i_mis].sum()
    diffs = [honest - b, mis - b, honest - _uniform_mix(honest), mis - _uniform_mix(mis)]
    d = signed_mmd(cfg.kernel, wide, np.concatenate(diffs)).reshape(4, -1)
    return d[:2], d[2:], d[2:] ** 2


# ---------------------------------------------------------------------------
# game verification


def run_game_verify(cfg: ExperimentConfig) -> ExperimentReport:
    """Certify the uniform-minimax identity on random distance vectors."""
    ex = cfg.resolved_extra()
    rows = []
    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        for n in ex["n_values"]:
            # the minimax identity holds at any scale of the distances
            rep = verify_minmax(build_game(rng.uniform(0.0, 1.0, size=n)))
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
