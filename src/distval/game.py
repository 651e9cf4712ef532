"""Two-player zero-sum game certifying that the uniform vendor mixture is
worst-case optimal.

The row player picks a vendor position, the adversarial column player picks a
permutation of the vendors, and the payoff is the (negated) distance of the
vendor landing at that position. Because every vendor appears at each position
equally often across permutations, matching primal/dual values can be produced
in closed form and checked numerically -- no LP solver needed.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import permutations

import numpy as np

from .errors import CapacityError, InputError

MAX_EXPLICIT_N = 7  # 7! = 5040 columns; the largest payoff matrix we materialise
CERT_TOL = 1e-12


@dataclass(frozen=True)
class GameInstance:
    n: int
    distances: np.ndarray
    payoff: np.ndarray  # n x n!, column c row r holds -distances[perm_c[r]]


@dataclass(frozen=True)
class MinmaxReport:
    """Numerical certificate that the uniform row strategy is optimal."""

    n: int
    distances: list[float]
    uniform_value: float
    dual_value: float
    analytic_value: float
    column_spread: float
    best_pure_value: float
    certified: bool
    tolerance: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def build_game(distances) -> GameInstance:
    """Materialise the full payoff matrix, permutations in lexicographic order."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1:
        raise InputError("build_game: distances must be a vector")
    n = d.shape[0]
    if not (2 <= n <= MAX_EXPLICIT_N):
        raise CapacityError(
            f"build_game: n must be in [2, {MAX_EXPLICIT_N}] to materialise n! columns, got {n}"
        )
    if np.any(d < 0):
        raise InputError("build_game: distances must be >= 0")
    perms = np.array(list(permutations(range(n))))  # (n!, n), lexicographic
    payoff = -d[perms].T  # row r, column c -> -d[perm_c[r]]
    return GameInstance(n=n, distances=d, payoff=payoff)


def analytic_game_value(distances) -> float:
    """Closed-form game value -mean(distances), valid for any n."""
    d = np.asarray(distances, dtype=float)
    return float(-d.mean())


def verify_minmax(g: GameInstance) -> MinmaxReport:
    """Check optimality of the uniform strategies by matching primal and dual values.

    (a) uniform row value z (min over columns); (b) dual value z' from the
    uniform column strategy (negated best row of the column player's payoff);
    (c) z == z' within CERT_TOL certifies both optimal by weak duality; (d) no
    pure row strategy achieves a min-column value above z.
    """
    col_values = g.payoff.mean(axis=0)
    column_spread = float(col_values.max() - col_values.min())
    z = float(col_values.min())
    # Column player's payoff is -payoff; its uniform strategy gives each row
    # the average distance, and the dual value is the negated best row.
    row_means = (-g.payoff).mean(axis=1)
    z_dual = float(-row_means.max())
    analytic = analytic_game_value(g.distances)
    best_pure = float(g.payoff.min(axis=1).max())
    certified = (
        column_spread <= CERT_TOL
        and abs(z - z_dual) <= CERT_TOL
        and abs(z - analytic) <= CERT_TOL
        and best_pure <= z + CERT_TOL
    )
    return MinmaxReport(
        n=g.n,
        distances=[float(x) for x in g.distances],
        uniform_value=z,
        dual_value=z_dual,
        analytic_value=analytic,
        column_spread=column_spread,
        best_pure_value=best_pure,
        certified=certified,
        tolerance=CERT_TOL,
    )
