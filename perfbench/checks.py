"""Output checks: every report is parsed strictly and compared with an
independent computation or with outputs recorded when the benchmark was added.

Market workloads are checked against a reference implementation here: the
biased MMD with centred coordinates and exact (fsum) reductions, written
independently of the program's kernel module. Lattice inputs are checked
against the program's exact path, `mmd_discrete` of the empirical pmfs, and
the research runners against rows recorded when the benchmark was added
(commit d478afa, `expected_lattice.json`).
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

import distval as dv

from workloads import EPS_BIAS, Inputs

# Values and gaps may drift by last-ulp summation noise (about 1e-14 here),
# never by anything an approximation would introduce.
VALUE_TOL = 1e-9
SIGMA_RTOL = 1e-9
VALUE_MIN = -math.sqrt(2.0)
EXPECTED_VERDICT = "Conclude"
EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_lattice.json")

_ORACLE_BLOCK = 1 << 20


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_strict(text: str):
    """json.loads that refuses NaN and Infinity, like allow_nan=False on output."""
    return json.loads(text, parse_constant=_reject_constant)


def _gram_sum(X: np.ndarray, Y: np.ndarray, sigma: float) -> float:
    scale = -0.5 / (sigma * sigma)
    yy = np.einsum("ij,ij->i", Y, Y)
    rows = max(1, _ORACLE_BLOCK // Y.shape[0])
    sums = []
    for lo in range(0, X.shape[0], rows):
        xb = X[lo:lo + rows]
        d2 = np.einsum("ij,ij->i", xb, xb)[:, None] + yy[None, :] - 2.0 * (xb @ Y.T)
        np.maximum(d2, 0.0, out=d2)
        d2 *= scale
        np.exp(d2, out=d2)
        sums.extend(d2.sum(axis=1).tolist())
    return math.fsum(sums)


def _self_sum(X: np.ndarray, sigma: float) -> float:
    # K is symmetric: each diagonal block once, each block above it twice.
    rows = max(1, _ORACLE_BLOCK // X.shape[0])
    parts = []
    for lo in range(0, X.shape[0], rows):
        xb = X[lo:lo + rows]
        parts.append(_gram_sum(xb, xb, sigma))
        if lo + rows < X.shape[0]:
            parts.append(2.0 * _gram_sum(xb, X[lo + rows:], sigma))
    return math.fsum(parts)


def median_sigma(pooled: np.ndarray, cap: int = 1000, seed: int = 0) -> float:
    """Median pairwise distance of a seeded subsample (the CLI's 'auto' rule)."""
    if pooled.shape[0] > cap:
        pooled = pooled[np.random.default_rng(seed).permutation(pooled.shape[0])[:cap]]
    c = pooled - pooled.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (c @ c.T), 0.0)
    return float(np.median(np.sqrt(d2[np.triu_indices(c.shape[0], k=1)])))


def uniform_reference(vendors: list[np.ndarray], seed: int) -> np.ndarray:
    """Seeded per-vendor subsamples of the minimum size, concatenated."""
    m_min = min(v.shape[0] for v in vendors)
    rng = np.random.default_rng(seed)
    return np.concatenate([v[rng.permutation(v.shape[0])[:m_min]] for v in vendors], axis=0)


def margin_gt(m: int, m_prime: int, m_ref: int) -> float:
    return 2.0 * (EPS_BIAS + math.sqrt(1.0 / m) + math.sqrt(1.0 / m_prime) + 2.0 * math.sqrt(1.0 / m_ref))


def reference_and_sigma(inp: Inputs) -> tuple[np.ndarray, float]:
    """The reference rows and bandwidth the CLI should resolve for these inputs."""
    if inp.reference_kind == "ground_truth":
        ref = inp.ground_truth
    else:
        ref = uniform_reference(list(inp.vendors.values()), inp.seed)
    if inp.sigma == "auto":
        return ref, median_sigma(np.concatenate(inp.csv_arrays(), axis=0))
    return ref, float(inp.sigma)


class Oracle:
    """Expected sigma, values and compare margin for one workload's CLI inputs."""

    def __init__(self, inp: Inputs):
        ref, self.sigma = reference_and_sigma(inp)
        self.ref_rows = ref.shape[0]
        if inp.lattice:
            self.values = self._exact_values(inp.vendors, ref)
        else:
            self.values = self._sample_values(inp.vendors, ref)
        self.gap = self.values[inp.left] - self.values[inp.right]
        self.margin = margin_gt(inp.vendors[inp.left].shape[0], inp.vendors[inp.right].shape[0], self.ref_rows)

    def _sample_values(self, vendors, ref):
        center = ref.mean(axis=0)
        r = ref - center
        s_rr = _self_sum(r, self.sigma)
        out = {}
        for vid, pts in vendors.items():
            x = pts - center
            m, n = x.shape[0], r.shape[0]
            v = _self_sum(x, self.sigma) / (m * m) + s_rr / (n * n) - 2.0 * _gram_sum(x, r, self.sigma) / (m * n)
            out[vid] = -math.sqrt(max(v, 0.0))
        return out

    def _exact_values(self, vendors, ref):
        kernel = dv.KernelConfig(sigma=self.sigma)
        ref_pmf = empirical_pmf(ref)
        return {vid: -dv.mmd_discrete(kernel, empirical_pmf(pts), ref_pmf) for vid, pts in vendors.items()}


def empirical_pmf(rows: np.ndarray) -> dv.DiscretePmf:
    support, counts = np.unique(rows, axis=0, return_counts=True)
    return dv.DiscretePmf(support=support, probs=counts / rows.shape[0])


def _close(a, b, tol=VALUE_TOL) -> bool:
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= tol


def check_cli(request: str, rc: int, text: str, inp: Inputs, oracle: Oracle) -> list[str]:
    """Problems with one CLI report; an empty list means the request succeeded."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = parse_strict(text)
    except ValueError as e:
        return [f"report is not strict JSON: {e}"]
    problems = []
    sigma = payload.get("resolved_config", {}).get("kernel", {}).get("sigma")
    if not (isinstance(sigma, float) and abs(sigma - oracle.sigma) <= SIGMA_RTOL * oracle.sigma):
        problems.append(f"sigma {sigma!r} != expected {oracle.sigma!r}")
    result = payload.get("result")
    if request in ("value", "rank"):
        if not isinstance(result, list) or sorted(r.get("id") for r in result) != sorted(inp.vendors):
            return problems + ["result does not list every vendor once"]
        for r in result:
            v = r.get("value")
            if not (isinstance(v, float) and VALUE_MIN <= v <= 0.0):
                problems.append(f"{r['id']}: value {v!r} outside [-sqrt(2), 0]")
            elif not _close(v, oracle.values[r["id"]]):
                problems.append(f"{r['id']}: value {v!r} != expected {oracle.values[r['id']]!r}")
        if request == "rank":
            keys = [(-r["value"], r["id"]) for r in result]
            if keys != sorted(keys) or [r.get("rank") for r in result] != list(range(1, len(result) + 1)):
                problems.append("rank order disagrees with the reported values")
    elif request == "compare":
        gap, margin = result.get("observed_gap"), result.get("margin")
        if result.get("verdict") != EXPECTED_VERDICT:
            problems.append(f"verdict {result.get('verdict')!r}, expected {EXPECTED_VERDICT}")
        if not _close(gap, oracle.gap):
            problems.append(f"observed_gap {gap!r} != expected {oracle.gap!r}")
        if not _close(margin, oracle.margin, 1e-12):
            problems.append(f"margin {margin!r} != expected {oracle.margin!r}")
        if not 0.0 <= result.get("confidence", -1.0) <= 1.0:
            problems.append(f"confidence {result.get('confidence')!r} outside [0, 1]")
    return problems


def load_expected() -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def _compare_rows(got: list[dict], want: list[dict], what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if set(g) != set(w):
            return [f"{what} row {i}: columns {sorted(g)} != {sorted(w)}"]
        for k, wv in w.items():
            gv = g[k]
            same = gv == wv if isinstance(wv, int) else _close(gv, wv)
            if not same:
                return [f"{what} row {i}: {k} = {gv!r}, expected {wv!r}"]
    return []


def check_soundness(reports, expected: dict) -> list[str]:
    problems = []
    for rep, want in zip(reports, expected["soundness"]):
        kind = rep.config["extra"]["reference"]
        problems += _compare_rows(rep.rows, want, f"soundness[{kind}]")
        ag = rep.aggregates
        bar = 1.0 - 2.0 * ag["delta"]["mean"] - 0.03
        if ag["conclude_rate"]["mean"] <= 0.0 or ag["soundness_among_concluded"]["mean"] < bar:
            problems.append(f"soundness[{kind}]: Conclude verdicts not sound at their confidence")
    return problems


def check_incentive(reports, expected: dict) -> list[str]:
    (report,) = reports
    problems = _compare_rows(report.rows, expected["incentive"], "incentive")
    for r in report.rows:
        if r["misreporter"] and not (r["change_gt"] < 0.0 and r["change_ours"] < 0.0):
            problems.append(f"incentive trial {r['trial']}: misreporting did not lower the value")
    return problems
