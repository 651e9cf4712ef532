import json
import math

import numpy as np
import pytest

from distval import (
    ExperimentConfig,
    ExperimentName,
    InputError,
    KernelConfig,
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

K1 = KernelConfig(sigma=1.0)


def cfg(name, n, trials, seed, **extra):
    return ExperimentConfig(name=name, n=n, trials=trials, seed=seed, kernel=K1, extra=extra)


def test_config_rejects_unknown_extra():
    with pytest.raises(InputError):
        cfg(ExperimentName.CORRELATION, 5, 1, 0, no_such_key=1)


def test_config_rejects_bad_counts():
    with pytest.raises(InputError):
        cfg(ExperimentName.CORRELATION, 5, 0, 0)
    with pytest.raises(InputError):
        cfg(ExperimentName.CORRELATION, 0, 1, 0)


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
    # after the misreport. The paired U-statistic would score both exactly 0;
    # the unpaired one does not, so the column changes.
    rep = run_incentive(
        cfg(ExperimentName.INCENTIVE_COMPAT, 1, 2, 5, noise_var=4.0, m=50, m_star=100)
    )
    assert all(r["change_mmd2"] != 0.0 for r in rep.rows)
    assert all(r["change_ours"] == 0.0 for r in rep.rows)
