#!/usr/bin/env python3
"""distval benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload market-continuous --seed 1 --seconds 55 --trace 0

Run it from the repository root (or any copy of it holding `src/`). The
workload is `market-continuous`, `lattice-research`, `market-wide` or `all`;
BENCHMARK.json lists the first two (README.md says why not the third). With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Inputs, reports, spans and a result file with full
provenance go to `.perfbench_work/` under the root.
"""
import os
import sys

# One BLAS thread, set before numpy loads, so the program's own --threads is
# the only parallelism in every workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("market-continuous", "lattice-research", "market-wide")
THREADS_ENV_VAR = "DISTVAL_THREADS"
RESEARCH_RUNNERS = {"soundness": "run_policy_soundness", "incentive": "run_incentive"}
SETUP_PROCESSES = 9
SETUP_CALL = (
    "import sys\n"
    "import distval.cli\n"
    "sys.exit(distval.cli.main(['compare', '--config', sys.argv[1], '--seed', sys.argv[2],"
    " '--threads', sys.argv[3]]))\n"
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# requests


class Runner:
    """Issues one workload's requests and keeps every output for checking."""

    def __init__(self, inp, tracer=None):
        self.inp = inp
        self.tracer = tracer
        self.outputs = []  # (request, output) in issue order

    def cli(self, command: str, config: str) -> tuple[int | None, str, str]:
        import distval.cli

        argv = [command, "--config", config, "--seed", str(self.inp.seed),
                "--threads", str(self.inp.threads)]
        main = distval.cli.main
        if self.tracer is not None:
            main = self.tracer.span("cli.main", main)
        # cli.main writes --threads into the environment; keep it from leaking.
        saved = os.environ.get(THREADS_ENV_VAR)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as e:  # a crash is a failed request, not a benchmark error
            rc, err = None, io.StringIO(f"raised {type(e).__name__}: {e}")
        finally:
            if saved is None:
                os.environ.pop(THREADS_ENV_VAR, None)
            else:
                os.environ[THREADS_ENV_VAR] = saved
        return rc, out.getvalue(), err.getvalue()

    def research(self, request: str, configs):
        import distval.experiments

        name = RESEARCH_RUNNERS[request]
        fn = getattr(distval.experiments, name)
        if self.tracer is not None:
            fn = self.tracer.span(f"experiments.{name}", fn)
        try:
            return [fn(cfg) for cfg in configs]
        except Exception as e:
            return f"raised {type(e).__name__}: {e}"

    def issue(self, request: str) -> float:
        """Run one full-size request, keep its output, return its wall time."""
        # Every request starts from a collected heap, as in a fresh CLI process,
        # so no collection left over from the previous request lands in its time.
        gc.collect()
        t0 = time.perf_counter()
        if request in RESEARCH_RUNNERS:
            output = self.research(request, self.inp.research[request])
        else:
            output = self.cli(request, self.inp.config)
        dt = time.perf_counter() - t0
        self.outputs.append((request, output))
        return dt


def warm_up(inp) -> list[str]:
    """Load every code path once on tiny inputs before anything is timed."""
    import workloads

    runner = Runner(inp)
    problems = []
    for request in inp.cycle:
        if request in RESEARCH_RUNNERS:
            out = runner.research(request, workloads.research_configs(trials=1)[request])
        else:
            rc, _, err = runner.cli(request, inp.tiny_config)
            out = None if rc == 0 else f"exit code {rc}: {err.strip()[-200:]}"
        if isinstance(out, str):
            problems.append(f"warm-up {request}: {out}")
    return problems


def measure_setup(inp) -> tuple[list[float], list[str]]:
    """Fresh-process time to import distval.cli and finish one small compare."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(THREADS_ENV_VAR, None)
    times, problems = [], []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CALL, inp.tiny_config, str(inp.seed), str(inp.threads)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            problems.append("set-up process: timed out after 60 s")
            continue
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"set-up process: exit code {proc.returncode}: {proc.stderr.decode()[-200:]}")
    return times, problems


def check_outputs(inp, outputs) -> list[list[str]]:
    """Problems per output, in issue order (an empty list is a success)."""
    import checks

    oracle = checks.Oracle(inp)
    expected = checks.load_expected() if inp.research else None
    verdicts = []
    for request, output in outputs:
        try:
            if isinstance(output, str):
                found = [output]
            elif request == "soundness":
                found = checks.check_soundness(output, expected)
            elif request == "incentive":
                found = checks.check_incentive(output, expected)
            else:
                rc, text, _ = output
                found = checks.check_cli(request, rc, text, inp, oracle)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            found = [f"malformed output: {type(e).__name__}: {e}"]
        verdicts.append(found)
    return verdicts


# ---------------------------------------------------------------------------
# statistics and provenance


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"{text}, p{p:g} {q:.6g} (n={n})"
    return f"{text} (n={n}; no percentile has 10 samples beyond it)"


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref))
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or None
    return head or None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "distval")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance() -> dict:
    import numpy as np

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, idx, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, idx, "size"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS")}},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload


def run_timed(inp, seconds: float, log) -> tuple[dict, dict, list]:
    """The closed loop: whole cycles of requests for at most `seconds` (at least one cycle)."""
    import workloads

    runner = Runner(inp)
    samples = {r: [] for r in inp.cycle}
    cycles = 0
    start = time.perf_counter()
    last_cycle = 0.0
    # start another cycle only if it should end in time
    while not cycles or time.perf_counter() - start + last_cycle <= seconds:
        cycle_start = time.perf_counter()
        for request in inp.cycle:
            samples[request].append(runner.issue(request))
        cycles += 1
        last_cycle = time.perf_counter() - cycle_start
    busy = sum(sum(s) for s in samples.values())
    pairs = cycles * sum(workloads.requested_pairs(inp, r) for r in inp.cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for request, s in samples.items():
        log(f"  {request + '_s':<14} {tail(s)} s")
    metrics = {
        "compare_s": (statistics.median(samples["compare"]), "s"),
        "cycle_s": (sum(statistics.median(s) for s in samples.values()), "s"),
        "pairs_per_s": (pairs / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for request, s in samples.items():
        metrics.setdefault(f"{request}_s", (statistics.median(s), "s"))
    return metrics, {k: len(v) for k, v in samples.items()}, runner.outputs


def run_traced(inp, seconds: float, workdir: str, log) -> tuple[dict, dict, list]:
    """Alternate untraced and traced cycles; replay the kernel layer."""
    import checks
    import trace
    import workloads

    tracer = trace.Tracer()
    plain, traced = Runner(inp), Runner(inp, tracer)
    untraced_s = {r: [] for r in inp.cycle}
    traced_s = {r: [] for r in inp.cycle}
    cycles: list[set[int]] = []
    start = time.perf_counter()
    last_pair = 0.0
    # start another untraced/traced pair only if it should end in time
    while not cycles or time.perf_counter() - start + last_pair <= seconds:
        pair_start = time.perf_counter()
        for request in inp.cycle:
            untraced_s[request].append(plain.issue(request))
        ids = set()
        with tracer.installed():
            for request in inp.cycle:
                tracer.request += 1
                ids.add(tracer.request)
                traced_s[request].append(traced.issue(request))
        cycles.append(ids)
        last_pair = time.perf_counter() - pair_start
    tracer.dump(os.path.join(workdir, "spans.json"))

    med = statistics.median
    per_cycle = [tracer.layers(ids) for ids in cycles]
    names = sorted({n for layer in per_cycle for n in layer})
    layer = {n: {stat: med([c.get(n, {}).get(stat, 0.0) for c in per_cycle])
                 for stat in ("s", "self_s", "calls")} for n in names}
    log("  layer                                   incl s      self s   calls  (median per cycle)")
    for n in names:
        st = layer[n]
        log(f"  {n:<38} {st['s']:>9.4f} {st['self_s']:>11.4f} {st['calls']:>7g}")

    # Per CLI command: span self times add up to the traced wall time; they
    # differ from the untraced wall time by the tracing overhead.
    log("  command   untraced s   traced s   self-time sum   overhead s   check")
    self_sums = tracer.request_self_sums()
    for i, request in enumerate(inp.cycle):
        self_sum = med([self_sums[sorted(ids)[i]] for ids in cycles])
        u, t = med(untraced_s[request]), med(traced_s[request])
        ok = abs(self_sum - u) <= abs(t - u) + 1e-3
        log(f"  {request:<9} {u:>11.4f} {t:>10.4f} {self_sum:>15.4f} {t - u:>12.4f}   "
            f"{'within overhead' if ok else 'NOT within overhead'}")

    cli_requests = sum(1 for r in inp.cycle if r in ("value", "rank", "compare"))
    ingest_s = layer["cli.ingest"]["s"]
    metrics = {
        "cli.ingest.s": (ingest_s, "s"),
        "cli.ingest.cells_per_s": (sum(a.size for a in inp.csv_arrays()) * cli_requests / ingest_s, "1/s"),
        "trace.overhead_s": (sum(med(traced_s[r]) - med(untraced_s[r]) for r in inp.cycle), "s"),
        "kernel.input.distinct_ratio": (workloads.distinct_ratio(inp), "ratio"),
    }
    for n, st in layer.items():
        metrics[f"{n}.s"] = (st["s"], "s")
        metrics[f"{n}.self_s"] = (st["self_s"], "s")
        metrics[f"{n}.calls"] = (st["calls"], "count")

    ref, sigma = checks.reference_and_sigma(inp)
    replays = trace.replay_layers(list(inp.vendors.values()), ref, sigma, inp.threads)
    for k, v in replays.items():
        metrics[k] = (v, "1/s" if k.endswith("per_s") else "ratio" if k.endswith("speedup") else "s")
    for k in sorted(replays):
        log(f"  {k:<38} {replays[k]:.6g}")
    return metrics, {r: len(cycles) for r in inp.cycle}, plain.outputs + traced.outputs


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, log) -> dict:
    import workloads

    workdir = os.path.join(WORK, f"{name}-seed{seed}")
    log(f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {workloads.WHY[name]}")
    inp = workloads.generate(name, seed, workdir)
    setup, problems = measure_setup(inp)
    problems += warm_up(inp)
    attempted = len(setup) + len(inp.cycle)
    if trace:
        metrics, counts, outputs = run_traced(inp, seconds, workdir, log)
    else:
        metrics, counts, outputs = run_timed(inp, seconds, log)
    metrics["setup_s"] = (statistics.median(setup), "s")
    counts["setup"] = len(setup)
    log(f"  {'setup_s':<14} {tail(setup)} s")

    verdicts = check_outputs(inp, outputs)
    attempted += len(verdicts)
    # each set-up or warm-up problem is one failed call; a request fails once however many checks it misses
    failed = len(problems) + sum(1 for v in verdicts if v)
    for (request, _), found in zip(outputs, verdicts):
        problems += [f"{request}: {p}" for p in found]
    log(f"  fail_rate      {failed}/{attempted} = {failed / attempted:.4g}")
    for p in problems[:20]:
        log(f"  FAILED {p}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    selected = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        selected[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"  {m['name']:<38} {value:.6g} {unit}")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": workloads.WHY[name],
        "provenance": provenance(),
        "sample_counts": counts,
        "fail_rate": failed / attempted,
        "problems": problems,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": selected,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "distval")):
        print(f"error: no distval sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks, trace, workloads  # noqa: E401,F401  load the benchmark once, before any timing
    spec = load_spec()

    def log(line: str) -> None:
        print(line, flush=True)

    if args.workload != "all":
        r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec, log)
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    # One process per workload, so peak memory and process state stay per workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        r = json.loads(lines[-1])
        summary["correct"] &= r["correct"]
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
