#!/usr/bin/env python3
"""Trajectory points: collect run results, and compare two points.

    python3 perfbench/trajectory.py collect .perfbench_work/results/*.json --out point.json
    python3 perfbench/trajectory.py compare perfbench/baseline.json point.json

`collect` takes the result files that run.py writes and keeps, per workload
and metric, the median over runs with its quartiles and run count. `compare`
accepts collected points or single result files and prints one row per
workload: each metric's ratio new/base, with the base value and unit.
"""
import argparse
import json
import statistics
import sys


def _load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "workloads" in data:
        return data
    # a single run.py result file
    return {"workloads": {data["workload"]: {"metrics": data["all_metrics"]}}}


def collect(paths: list[str]) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], []).append(r)
    point = {"provenance": next(iter(runs.values()))[0]["provenance"], "workloads": {}}
    for workload, rs in sorted(runs.items()):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in rs:
            for name, m in r["all_metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        metrics = {}
        for name, vs in sorted(values.items()):
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            metrics[name] = {"value": statistics.median(vs), "unit": units[name],
                             "q1": q[0], "q3": q[2], "runs": len(vs)}
        point["workloads"][workload] = {
            "seeds": sorted({r["seed"] for r in rs}),
            "failed": sum(r["failed"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "metrics": metrics,
        }
    return point


def compare(base: dict, new: dict) -> list[str]:
    lines = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        cells = []
        for name, bm in b["metrics"].items():
            nm = n["metrics"].get(name)
            if nm is None or not bm["value"]:
                continue
            cells.append(f"{name} x{nm['value'] / bm['value']:.3f} (base {bm['value']:.6g} {bm['unit']})")
        lines.append(f"{workload}: " + "; ".join(cells))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("results", nargs="+")
    c.add_argument("--out", required=True)
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "collect":
        with open(args.out, "w") as fh:
            json.dump(collect(args.results), fh, indent=1)
            fh.write("\n")
    else:
        print("\n".join(compare(_load(args.base), _load(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
