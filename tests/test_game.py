import numpy as np
import pytest

from distval import (
    CapacityError,
    analytic_game_value,
    build_game,
    verify_minmax,
)


def test_build_two_vendor_payoff():
    g = build_game([0.2, 0.6])
    assert g.payoff.shape == (2, 2)
    # permutations in lexicographic order: (0,1), (1,0)
    assert np.allclose(g.payoff, [[-0.2, -0.6], [-0.6, -0.2]])


def test_build_constant_distances():
    g = build_game([0.3, 0.3, 0.3])
    assert np.all(g.payoff == -0.3)


def test_build_three_vendors_has_six_columns():
    assert build_game([0.1, 0.2, 0.3]).payoff.shape == (3, 6)


def test_build_capacity_limits():
    with pytest.raises(CapacityError):
        build_game([0.1])
    with pytest.raises(CapacityError):
        build_game(list(np.linspace(0.1, 0.8, 8)))


def test_uniform_value_two_vendors():
    assert verify_minmax(build_game([0.2, 0.6])).uniform_value == pytest.approx(-0.4, abs=1e-15)


def test_uniform_value_constant():
    rep = verify_minmax(build_game([0.7, 0.7]))
    assert rep.uniform_value == pytest.approx(-0.7, abs=1e-15)
    assert rep.column_spread == 0.0


def test_uniform_value_three_vendors():
    rep = verify_minmax(build_game([0.0, 0.3, 0.6]))
    assert rep.uniform_value == pytest.approx(-0.3, abs=1e-15)


def test_verify_known_game():
    rep = verify_minmax(build_game([0.2, 0.6]))
    assert rep.certified
    assert rep.uniform_value == pytest.approx(-0.4, abs=1e-15)
    assert rep.dual_value == pytest.approx(-0.4, abs=1e-15)


def test_verify_constant_game():
    rep = verify_minmax(build_game([0.5, 0.5, 0.5]))
    assert rep.certified
    # every pure strategy is optimal here
    assert rep.best_pure_value == pytest.approx(rep.uniform_value, abs=1e-15)


def test_verify_random_games_all_certified():
    rng = np.random.default_rng(100)
    for _ in range(100):
        d = rng.uniform(0.0, 1.0, size=4)
        rep = verify_minmax(build_game(d))
        assert rep.certified
        assert rep.uniform_value == pytest.approx(-d.mean(), abs=1e-12)
        # no pure strategy beats the mixed value
        assert rep.best_pure_value <= rep.uniform_value + 1e-12


def test_verify_all_supported_sizes():
    rng = np.random.default_rng(200)
    for n in range(2, 8):
        rep = verify_minmax(build_game(rng.uniform(0.0, 2.0, size=n)))
        assert rep.certified


def test_scale_equivariance():
    rng = np.random.default_rng(300)
    d = rng.uniform(0.1, 1.0, size=4)
    z1 = verify_minmax(build_game(d)).uniform_value
    z3 = verify_minmax(build_game(3.0 * d)).uniform_value
    assert z3 == pytest.approx(3.0 * z1, rel=1e-12)
    assert verify_minmax(build_game(3.0 * d)).certified


def test_report_json_roundtrip():
    import json

    rep = verify_minmax(build_game([0.2, 0.6]))
    decoded = json.loads(rep.to_json())
    assert decoded["certified"] is True
    assert decoded["n"] == 2


def test_analytic_value_for_large_n():
    d = np.linspace(0.0, 1.0, 50)
    assert analytic_game_value(d) == pytest.approx(-0.5, abs=1e-12)
