import json
import math
from dataclasses import replace

import numpy as np
import pytest

import distval.experiments
from distval import (
    CapacityError,
    DiscretePmf,
    ExperimentConfig,
    ExperimentName,
    HuberSpec,
    InputError,
    KernelConfig,
    ValueVector,
    mix_pmfs,
    mmd_discrete,
    pearson,
    random_huber_population,
    realized_pmf,
    run,
    run_convergence,
    run_correlation,
    run_game_verify,
    run_incentive,
    run_policy_soundness,
    summarize,
    write_curve_csvs,
    write_rows_csv,
)
from distval.experiments import _EXTRA_DEFAULTS, MAX_LATTICE_POINTS, _trial_seeds

K1 = KernelConfig(sigma=1.0)


def cfg(name, n, trials, seed, **extra):
    return ExperimentConfig(name=name, n=n, trials=trials, seed=seed, kernel=K1, extra=extra)


@pytest.mark.parametrize(
    "name, key, value, error",
    [
        (ExperimentName.CORRELATION, "no_such_key", 1, "is not a known key"),
        # once run as empirical mode, the ground-truth variant, or a traceback
        (ExperimentName.INCENTIVE_COMPAT, "mode", "bogus", 'must be one of "empirical", "exact"'),
        (ExperimentName.POLICY_SOUNDNESS, "reference", "mixture", "must be one of"),
        (ExperimentName.CONVERGENCE, "m_full", "abc", 'must be an integer >= 1, got "abc"'),
        (ExperimentName.INCENTIVE_COMPAT, "m", None, "must be an integer >= 1, got null"),
        (ExperimentName.INCENTIVE_COMPAT, "m", True, "must be an integer >= 1, got true"),
        (ExperimentName.INCENTIVE_COMPAT, "noise_var", math.inf, "must be a number"),
        (ExperimentName.CONVERGENCE, "fractions", (0.5, 1.0), "must be a nonempty list of numbers"),
        (ExperimentName.GAME_VERIFY, "n_values", [2.0], "must be a nonempty list of integers"),
        # once a report with no rows, or a ZeroDivisionError
        (ExperimentName.CONVERGENCE, "fractions", [], "must be a nonempty list of numbers"),
        (ExperimentName.GAME_VERIFY, "n_values", [], "must be a nonempty list of integers"),
        # once a row at m_full rows labelled fraction 2.0, and rows at m = 1
        (ExperimentName.CONVERGENCE, "fractions", [2.0], r"must be .* numbers in \(0, 1\], got \[2.0\]"),
        (ExperimentName.CONVERGENCE, "fractions", [0.5, -0.5], "must be a nonempty list of numbers in"),
        (ExperimentName.CONVERGENCE, "fractions", [0.0, 1.0], "must be a nonempty list of numbers in"),
        # once a ValueError from numpy's SeedSequence, and a late "need at least one dataset"
        (ExperimentName.POLICY_SOUNDNESS, "ref_vendors", -5, "must be an integer >= 1, got -5"),
        (ExperimentName.POLICY_SOUNDNESS, "ref_vendors", 0, "must be an integer >= 1, got 0"),
        # once a ValueError traceback from numpy, and CapacityErrors from a running runner
        (ExperimentName.GAME_VERIFY, "n_values", [-2], r"must be .* integers in \[2, 7\], got \[-2\]"),
        (ExperimentName.GAME_VERIFY, "n_values", [1], r"must be .* integers in \[2, 7\], got \[1\]"),
        (ExperimentName.GAME_VERIFY, "n_values", [8], r"must be .* integers in \[2, 7\], got \[8\]"),
        # once "sample_huber: m must be >= 1", and "pmf: empty support"
        (ExperimentName.INCENTIVE_COMPAT, "m", 0, "must be an integer >= 1, got 0"),
        (ExperimentName.CORRELATION, "support_max", -3, "must be an integer >= 0, got -3"),
        # once "random_huber_population: eps_max must be in (0, 1)" from a running runner
        (ExperimentName.CORRELATION, "eps_max", 1.0, r"must be a number in \(0, 1\), got 1.0"),
        # once an InputError from the runner itself
        (ExperimentName.INCENTIVE_COMPAT, "noise_var", 0, "must be a number > 0, got 0"),
        # the separated pair's shift is a constant of the study, not a key
        (ExperimentName.POLICY_SOUNDNESS, "outlier_shift", 5.0, "is not a known key"),
        # once "policy: eps_bias must be finite and >= 0" from a running runner
        (ExperimentName.POLICY_SOUNDNESS, "eps_bias", -0.1, "must be a number >= 0, got -0.1"),
        (ExperimentName.POLICY_SOUNDNESS, "eps_upsilon", -1, "must be a number >= 0, got -1"),
        # once caught only when the incentive study ran
        (ExperimentName.INCENTIVE_COMPAT, "misreporter", 9, r"must be an integer in \[0, 5\), got 9"),
        (ExperimentName.INCENTIVE_COMPAT, "misreporter", -1, r"must be an integer in \[0, 5\), got -1"),
    ],
    ids=[
        "unknown-key", "mode-bogus", "reference-mixture", "m_full-string", "m-null", "m-bool",
        "noise_var-inf", "fractions-tuple", "n_values-floats", "fractions-empty",
        "n_values-empty", "fractions-above-1", "fractions-negative", "fractions-zero",
        "ref_vendors-negative", "ref_vendors-zero", "n_values-negative", "n_values-one",
        "n_values-eight", "m-zero", "support_max-negative", "eps_max-one", "noise_var-zero",
        "outlier_shift-removed", "eps_bias-negative", "eps_upsilon-negative",
        "misreporter-nine", "misreporter-negative",
    ],
)
def test_config_rejects_bad_extra(name, key, value, error):
    with pytest.raises(InputError, match=f"^config: experiment.extra.{key} {error}"):
        cfg(name, 5, 1, 0, **{key: value})


def test_config_rejects_extra_that_is_not_an_object():
    # once an AttributeError
    with pytest.raises(InputError, match=r"^config: experiment.extra must be an object, got \[1\]$"):
        ExperimentConfig(ExperimentName.CORRELATION, n=5, trials=1, seed=0, kernel=K1, extra=[1])


@pytest.mark.parametrize("name", list(ExperimentName))
def test_every_extra_default_has_its_declared_kind(name):
    for key, (default, (what, test)) in _EXTRA_DEFAULTS[name].items():
        assert default is None or test(default), (key, what)


def test_config_null_stands_for_a_none_default():
    c = cfg(ExperimentName.INCENTIVE_COMPAT, 5, 1, 0, misreporter=None)
    assert c.resolved_extra()["misreporter"] is None


def test_config_rejects_bad_counts():
    with pytest.raises(InputError):
        cfg(ExperimentName.CORRELATION, 5, 0, 0)
    with pytest.raises(InputError):
        cfg(ExperimentName.CORRELATION, 0, 1, 0)


@pytest.mark.parametrize(
    "n, trials, seed, error",
    [
        # once numpy TypeErrors from inside `run`, one trial, or a ValueError
        (2.5, 1, 0, "n must be an integer >= 1, got 2.5"),
        (5, True, 0, "trials must be an integer >= 1, got True"),
        (5, 1, 1.5, "seed must be an integer >= 0, got 1.5"),
        (5, 1, -1, "seed must be an integer >= 0, got -1"),
    ],
    ids=["n-float", "trials-bool", "seed-float", "seed-negative"],
)
def test_config_rejects_non_integer_counts(n, trials, seed, error):
    with pytest.raises(InputError, match=f"^experiment: {error}$"):
        cfg(ExperimentName.CORRELATION, n, trials, seed)


def test_report_json_is_strict():
    rep = run(cfg(ExperimentName.GAME_VERIFY, 2, 1, 5))
    with pytest.raises(ValueError):
        replace(rep, aggregates={"x": {"mean": math.nan, "stderr": 0.0}}).to_json()


def test_dispatcher_matches_direct_call():
    c = cfg(ExperimentName.GAME_VERIFY, 2, 3, 5)
    assert run(c).rows == run_game_verify(c).rows


def test_timing_flag_reports_duration_without_touching_rows():
    c = cfg(ExperimentName.GAME_VERIFY, 2, 3, 5)
    timed, plain = run(c, timing=True), run(c)
    assert timed.timing["elapsed_seconds"] >= 0.0
    assert plain.timing is None
    assert timed.rows == plain.rows
    assert "timing" in json.loads(timed.to_json())


def test_reports_are_deterministic():
    c = cfg(ExperimentName.CORRELATION, 8, 4, 321)
    a, b = run_correlation(c), run_correlation(c)
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates


def test_rows_csv_byte_identical(tmp_path):
    c = cfg(ExperimentName.CONVERGENCE, 3, 2, 17, m_full=120, m_star=240)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(run_convergence(c), str(p1))
    write_rows_csv(run_convergence(c), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_curve_csvs_written(tmp_path):
    c = cfg(ExperimentName.CONVERGENCE, 3, 2, 17, m_full=100, m_star=200)
    rep = run_convergence(c)
    written = write_curve_csvs(rep, str(tmp_path / "curve"))
    assert sorted(w.rsplit("_", 1)[1] for w in written) == ["inversions.csv", "l2.csv", "linf.csv"]
    header = (tmp_path / "curve_l2.csv").read_text().splitlines()[0]
    assert header == "fraction,mean,stderr"


def test_aggregates_recomputable_from_rows():
    c = cfg(ExperimentName.CORRELATION, 10, 6, 99)
    rep = run_correlation(c)
    kept = [r for r in rep.rows if not r.get("skipped")]
    redo = summarize(kept, skip=("trial", "skipped"))
    for key, stats in rep.aggregates.items():
        assert stats["mean"] == pytest.approx(redo[key]["mean"], abs=1e-12)
        assert stats["stderr"] == pytest.approx(redo[key]["stderr"], abs=1e-12)


def test_report_json_has_provenance():
    c = cfg(ExperimentName.GAME_VERIFY, 2, 2, 3)
    payload = json.loads(run(c).to_json())
    assert payload["config"]["seed"] == 3
    assert payload["config"]["kernel"]["sigma"] == 1.0
    assert payload["code_version"]


def test_correlation_rows_shape():
    rep = run_correlation(cfg(ExperimentName.CORRELATION, 12, 5, 7))
    assert len(rep.rows) == 5
    for r in rep.rows:
        assert -1.0 <= r["pearson"] <= 1.0
        assert r["r2_exact_fit"] == pytest.approx(1.0, abs=1e-9)
        assert r["r2_measured_on_error"] <= 1.0
        # the r^2 of the least-squares line is the squared correlation
        assert r["r2_measured_on_error"] == r["pearson"] ** 2


def test_correlation_degenerate_trials_skipped():
    # contamination levels below float resolution: all values collapse and
    # the correlation is undefined, so trials are reported as skipped
    rep = run_correlation(cfg(ExperimentName.CORRELATION, 5, 3, 1, eps_max=1e-300))
    assert all(r["skipped"] for r in rep.rows)
    assert rep.aggregates == {}


def test_convergence_full_fraction_is_exact():
    rep = run_convergence(cfg(ExperimentName.CONVERGENCE, 4, 2, 11, m_full=200, m_star=300))
    full = [r for r in rep.rows if r["fraction"] == 1.0]
    assert all(r["l2"] == 0.0 and r["linf"] == 0.0 and r["inversions"] == 0 for r in full)


def _spearman(xs, ys):
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry) / math.sqrt(float(rx @ rx) * float(ry @ ry))


def test_convergence_criteria_shrink_with_fraction():
    rep = run_convergence(
        cfg(ExperimentName.CONVERGENCE, 5, 5, 3, m_full=400, m_star=1200)
    )
    fractions = [p["fraction"] for p in rep.curves["l2"]]
    for crit in ("l2", "linf"):
        means = [p["mean"] for p in rep.curves[crit]]
        assert _spearman(fractions, means) <= 0.0


def test_convergence_inversions_worst_at_tiny_fractions():
    rep = run_convergence(
        cfg(
            ExperimentName.CONVERGENCE, 5, 5, 3,
            m_full=400, m_star=1200, eps_scheme="spaced",
        )
    )
    inv = {p["fraction"]: p["mean"] for p in rep.curves["inversions"]}
    assert inv[min(inv)] > inv[1.0]


def test_policy_soundness_aggregates():
    rep = run_policy_soundness(cfg(ExperimentName.POLICY_SOUNDNESS, 2, 40, 9))
    ag = rep.aggregates
    assert ag["conclude_rate"]["mean"] > 0.2
    delta = ag["delta"]["mean"]
    assert ag["soundness_among_concluded"]["mean"] >= (1.0 - 2.0 * delta) - 0.03
    assert ag["violation"]["mean"] == 0.0


def test_policy_soundness_uniform_reference():
    rep = run_policy_soundness(
        cfg(ExperimentName.POLICY_SOUNDNESS, 2, 30, 9, reference="uniform")
    )
    ag = rep.aggregates
    assert ag["conclude_rate"]["mean"] > 0.2
    assert ag["soundness_among_concluded"]["mean"] >= (1.0 - 2.0 * ag["delta"]["mean"]) - 0.03


def test_incentive_misreporter_penalised():
    rep = run_incentive(
        cfg(ExperimentName.INCENTIVE_COMPAT, 5, 2, 11, noise_var=4.0, m=300, m_star=1200)
    )
    mis = [r for r in rep.rows if r["misreporter"]]
    assert len(mis) == 2
    for r in mis:
        assert r["change_gt"] < 0.0
        assert r["change_ours"] < 0.0
        assert abs(r["change_ours"]) > abs(r["change_mmd2"])


def test_incentive_exact_mode():
    rep = run_incentive(
        cfg(ExperimentName.INCENTIVE_COMPAT, 5, 2, 11, noise_var=4.0, mode="exact")
    )
    mis = [r for r in rep.rows if r["misreporter"]]
    for r in mis:
        assert r["change_gt"] < 0.0
        assert r["change_ours"] < 0.0


def test_incentive_misreporter_index_validated():
    with pytest.raises(InputError):
        run_incentive(cfg(ExperimentName.INCENTIVE_COMPAT, 5, 1, 0, misreporter=9))


def test_game_verify_all_certified():
    rep = run_game_verify(cfg(ExperimentName.GAME_VERIFY, 2, 10, 77))
    assert rep.aggregates["pass_rate"]["mean"] == 1.0
    assert len(rep.rows) == 10 * 4  # n_values default {2,3,4,5}


def test_incentive_squared_mmd_stays_unpaired_for_one_vendor():
    # With n = 1 the mixture reference is the vendor's own sample, before and
    # after the misreport. The U-statistic keeps every cross pair, so it does
    # not score such a pair exactly 0, and the column changes.
    rep = run_incentive(
        cfg(ExperimentName.INCENTIVE_COMPAT, 1, 2, 5, noise_var=4.0, m=50, m_star=100)
    )
    assert all(r["change_mmd2"] != 0.0 for r in rep.rows)
    assert all(r["change_ours"] == 0.0 for r in rep.rows)


# Per-pair references for the exact-mode runners: one DiscretePmf per vendor,
# mix_pmfs for the mixture and one mmd_discrete call per value. Squared
# distances are compared, as in tests/test_mmd.py.


def test_correlation_values_match_a_per_pair_reference(monkeypatch):
    c = cfg(ExperimentName.CORRELATION, 7, 4, 5)
    seen = []

    def capture(a, b):
        # r2_exact_fit's call pairs the error levels with their negation
        if not np.array_equal(a.values, -b.values):
            seen.append((a.values, b.values))
        return pearson(a, b)

    monkeypatch.setattr(distval.experiments, "pearson", capture)
    rep = run_correlation(c)
    assert len(seen) == c.trials
    for t, (true, measured) in enumerate(seen):
        (seed,) = _trial_seeds(c.seed, t, 1)
        base, specs = random_huber_population(c.n, 10, 0.5, seed)
        pmfs = [realized_pmf(s) for s in specs]
        mix = mix_pmfs(pmfs, np.full(c.n, 1.0 / c.n))
        ref_true = np.array([mmd_discrete(K1, p, base) for p in pmfs])
        ref_measured = np.array([mmd_discrete(K1, p, mix) for p in pmfs])
        assert true**2 == pytest.approx(ref_true**2, abs=1e-12)
        assert measured**2 == pytest.approx(ref_measured**2, abs=1e-12)
        ids = tuple(f"v{i}" for i in range(c.n))
        rho = pearson(ValueVector(-ref_true, ids), ValueVector(-ref_measured, ids))
        assert rep.rows[t]["pearson"] == pytest.approx(rho, abs=1e-9)


def _convolved(pmf, noise_var):
    # The misreport, atom by atom: each atom spreads its mass over a
    # discretized zero-mean Gaussian of the given variance.
    half = max(1, math.ceil(4.0 * math.sqrt(noise_var)))
    offsets = np.arange(-half, half + 1)
    w = np.exp(-(offsets**2) / (2.0 * noise_var))
    w /= w.sum()
    acc = {}
    for x, p in zip(pmf.support[:, 0], pmf.probs):
        for o, wo in zip(offsets, w):
            acc[x + o] = acc.get(x + o, 0.0) + p * wo
    keys = sorted(acc)
    probs = np.array([acc[k] for k in keys])
    return DiscretePmf(np.array(keys)[:, None], probs / probs.sum())


@pytest.mark.parametrize("noise_var", [0.2, 4.0])
def test_incentive_exact_rows_match_a_per_pair_reference(noise_var):
    c = cfg(ExperimentName.INCENTIVE_COMPAT, 5, 3, 11, noise_var=noise_var, mode="exact")
    rows = run_incentive(c).rows
    i_mis = c.n // 2
    for t in range(c.trials):
        seeds = _trial_seeds(c.seed, t, 4 + c.n)
        base, specs = random_huber_population(c.n, 10, 0.5, seeds[0])
        honest = [realized_pmf(s) for s in specs]
        mis = list(honest)
        mis[i_mis] = _convolved(honest[i_mis], noise_var)
        w = np.full(c.n, 1.0 / c.n)
        mix_b, mix_a = mix_pmfs(honest, w), mix_pmfs(mis, w)
        for i in range(c.n):
            row = rows[t * c.n + i]
            assert (row["trial"], row["vendor"], row["misreporter"]) == (t, i, int(i == i_mis))
            gt_b, gt_a = mmd_discrete(K1, honest[i], base), mmd_discrete(K1, mis[i], base)
            u_b, u_a = mmd_discrete(K1, honest[i], mix_b), mmd_discrete(K1, mis[i], mix_a)
            assert row["d_ours_before"] ** 2 == pytest.approx(u_b**2, abs=1e-12)
            assert row["d_ours_after"] ** 2 == pytest.approx(u_a**2, abs=1e-12)
            assert row["change_mmd2"] == pytest.approx(-(u_a**2 - u_b**2), abs=1e-12)
            assert row["change_ours"] == pytest.approx(-(u_a - u_b), abs=1e-9)
            assert row["change_gt"] == pytest.approx(-(gt_a - gt_b), abs=1e-9)


def _strict_json(text):
    def reject(const):
        raise ValueError(f"non-strict JSON constant {const}")

    return json.loads(text, parse_constant=reject)


_CONVERGENCE_SMALL = {"m_full": 40, "m_star": 60, "fractions": [0.5, 1.0]}
_SOUNDNESS_SMALL = {"m": 40, "m_star": 40, "ref_m": 30}


@pytest.mark.parametrize(
    "name, extra",
    [
        (ExperimentName.CORRELATION, {}),
        (ExperimentName.CONVERGENCE, _CONVERGENCE_SMALL),
        (ExperimentName.CONVERGENCE, {**_CONVERGENCE_SMALL, "eps_scheme": "spaced"}),
        (ExperimentName.CONVERGENCE, {**_CONVERGENCE_SMALL, "shared_outlier": True}),
        (ExperimentName.POLICY_SOUNDNESS, _SOUNDNESS_SMALL),
        (ExperimentName.POLICY_SOUNDNESS, {**_SOUNDNESS_SMALL, "reference": "uniform"}),
        (ExperimentName.INCENTIVE_COMPAT, {"m": 30, "m_star": 60}),
        (ExperimentName.INCENTIVE_COMPAT, {"mode": "exact"}),
        (ExperimentName.GAME_VERIFY, {"n_values": [2, 3]}),
    ],
)
def test_every_runner_report_is_strict_json(name, extra):
    rep = run(cfg(name, 3, 2, 13, **extra), timing=True)
    payload = _strict_json(rep.to_json())
    assert payload["rows"] and payload["name"] == name.value


def test_correlation_needs_two_vendors_at_config_time():
    # once one trial ran, then `pearson: need at least 2 entries`
    error = r"^experiment: n must be >= 2 for the correlation study, got 1$"
    with pytest.raises(InputError, match=error):
        cfg(ExperimentName.CORRELATION, 1, 3, 0)
    # the other studies take a single vendor
    for name in (ExperimentName.CONVERGENCE, ExperimentName.INCENTIVE_COMPAT):
        assert cfg(name, 1, 1, 0).n == 1


@pytest.mark.parametrize(
    "name, extra",
    [(ExperimentName.CORRELATION, {}), (ExperimentName.INCENTIVE_COMPAT, {"mode": "exact"})],
)
def test_exact_runners_build_no_pmf_or_spec(monkeypatch, name, extra):
    # The exact runners work on the population's arrays; a validated pmf per
    # vendor would only be read back.
    built = []
    for cls in (DiscretePmf, HuberSpec):
        check = cls.__post_init__

        def counting(self, check=check):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    rep = run(cfg(name, 6, 3, 17, **extra))
    assert rep.rows and built == []


@pytest.mark.parametrize(
    "name, extra, given",
    [
        (ExperimentName.CORRELATION, {"support_max": MAX_LATTICE_POINTS}, "support_max = 32768"),
        (ExperimentName.CONVERGENCE, {"support_max": 10**30}, "support_max = 10{30}"),
        (ExperimentName.INCENTIVE_COMPAT, {"support_max": 40_000}, "support_max = 40000"),
        (
            ExperimentName.INCENTIVE_COMPAT,
            {"mode": "exact", "support_max": MAX_LATTICE_POINTS - 2},
            "support_max = 32766 and noise_var = 0.2",
        ),
        # once a ValueError traceback from np.arange
        (
            ExperimentName.INCENTIVE_COMPAT,
            {"mode": "exact", "noise_var": 1e300},
            r"support_max = 10 and noise_var = 1e\+300",
        ),
        # once a pass over 8,000,011 points
        (
            ExperimentName.INCENTIVE_COMPAT,
            {"mode": "exact", "noise_var": 1e12},
            "support_max = 10 and noise_var = 1000000000000.0",
        ),
    ],
    ids=[
        "correlation-support_max", "convergence-support_max", "empirical-support_max",
        "exact-support_max", "exact-noise_var-1e300", "exact-noise_var-1e12",
    ],
)
def test_config_rejects_a_lattice_above_the_cap(name, extra, given):
    error = f"^experiment: the lattice at {given} has more than MAX_LATTICE_POINTS = 32768 points$"
    with pytest.raises(CapacityError, match=error):
        cfg(name, 5, 1, 0, **extra)


def test_lattice_cap_admits_the_largest_lattice_and_empirical_noise():
    # support_max + 1 points at the cap, and exact mode's widened lattice
    # just under it (10 + 2 * 16,376 + 1 = 32,763 points)
    cfg(ExperimentName.CORRELATION, 5, 1, 0, support_max=MAX_LATTICE_POINTS - 1)
    cfg(ExperimentName.INCENTIVE_COMPAT, 5, 1, 0, mode="exact", noise_var=1.676e7)
    # empirical noise is continuous and builds no lattice
    cfg(ExperimentName.INCENTIVE_COMPAT, 5, 1, 0, noise_var=1e300)
