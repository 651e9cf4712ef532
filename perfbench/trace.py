"""Spans around the program's public functions, and layer replays.

Tracing wraps each public function as the calling module sees it (for
example `distval.policy.value_dataset`), records one span per call in
memory, and restores the originals on exit. The program itself is not
edited. A span's self time is its duration minus the time its child spans
cover; children run one after another on the caller's thread, so that is
the sum of their durations.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

import distval as dv
import distval.cli
import distval.experiments
import distval.huber
import distval.policy
import distval.valuation
from distval.kernel import gram_matrix

# (calling module, attribute, span name); the span name is the layer's own
# module and function, so one layer is one name wherever it is called from.
WRAPPED = [
    (distval.cli, "ingest", "cli.ingest"),
    (distval.cli, "ingest_ground_truth", "cli.ingest"),
    (distval.cli, "median_heuristic", "kernel.median_heuristic"),
    (distval.cli, "build_uniform_reference", "valuation.build_uniform_reference"),
    (distval.cli, "value_dataset", "valuation.value_dataset"),
    (distval.cli, "rank_vendors", "policy.rank_vendors"),
    (distval.cli, "compare", "policy.compare"),
    (distval.policy, "value_dataset", "valuation.value_dataset"),
    (distval.valuation, "mmd_biased", "mmd.mmd_biased"),
    (distval.valuation, "mmd_discrete", "mmd.mmd_discrete"),
    (distval.huber, "mmd_discrete", "mmd.mmd_discrete"),
    (distval.experiments, "compare", "policy.compare"),
    (distval.experiments, "sample_huber", "huber.sample_huber"),
    (distval.experiments, "huber_value_exact", "huber.huber_value_exact"),
    (distval.experiments, "approximation_error_bound", "valuation.approximation_error_bound"),
    (distval.experiments, "build_uniform_reference", "valuation.build_uniform_reference"),
    (distval.experiments, "mmd_discrete", "mmd.mmd_discrete"),
]


class Tracer:
    """In-memory span recorder: name, request id, parent span, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = 0

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"name": name, "request": self.request, "parent": parent,
                               "start": time.perf_counter(), "end": None})
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx]["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(mod, attr, self.span(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layers(self, requests: set[int]) -> dict[str, dict[str, float]]:
        """Per span name, over the given requests: inclusive seconds, self seconds, calls."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s["request"] not in requests:
                continue
            acc = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            acc["s"] += s["end"] - s["start"]
            acc["self_s"] += own
            acc["calls"] += 1
        return out

    def request_self_sums(self) -> dict[int, float]:
        """Per request id: the sum of its spans' self times."""
        out: dict[int, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s["request"]] = out.get(s["request"], 0.0) + own
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _timed(fn, repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def replay_layers(vendors: list[np.ndarray], ref: np.ndarray, sigma: float, threads: int) -> dict:
    """Time the kernel layer directly on the workload's own data.

    The three public gram_sum calls behind one value (first vendor against
    the reference), the reference self-sum at 1 and 2 threads, and one block
    at the program's block size, with and without the row reduction.
    """
    kernel = dv.KernelConfig(sigma=sigma)
    x = dv.Dataset("x", vendors[0])
    r = dv.Dataset("ref", ref)
    out = {
        "kernel.gram_sum.self.s": _timed(lambda: dv.gram_sum(kernel, x, x, threads)),
        "kernel.gram_sum.cross.s": _timed(lambda: dv.gram_sum(kernel, x, r, threads)),
        "kernel.gram_sum.ref_self.s": _timed(lambda: dv.gram_sum(kernel, r, r, threads)),
    }
    m, n = len(x), len(r)
    pairs = m * m + m * n + n * n
    out["kernel.gram_sum.pairs_per_s"] = pairs / (
        out["kernel.gram_sum.self.s"] + out["kernel.gram_sum.cross.s"] + out["kernel.gram_sum.ref_self.s"]
    )
    at = {threads: out["kernel.gram_sum.ref_self.s"]}
    for t in (1, 2):
        if t not in at:
            at[t] = _timed(lambda: dv.gram_sum(kernel, r, r, t))
    out["kernel.gram_sum.t2_speedup"] = at[1] / at[2]
    # The seed's block holds 4,194,304 entries; rows come from the pooled vendors.
    block_rows = max(1, 4_194_304 // n)
    xb = np.concatenate(vendors, axis=0)[:block_rows]
    out["kernel.block.gram_matrix.s"] = _timed(lambda: gram_matrix(kernel, xb, ref), repeats=5)
    xd = dv.Dataset("block", xb)
    out["kernel.block.gram_sum.s"] = _timed(lambda: dv.gram_sum(kernel, xd, r, 1), repeats=5)
    return out
