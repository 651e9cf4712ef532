"""Command-line front end: CSV ingestion, run configuration, JSON reports.

Exit codes: 0 success, 1 input error, 2 property violation (a failed
verify-game certificate). Every report embeds the effective resolved
configuration for provenance.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InputError, PropertyViolation
from .experiments import (
    ExperimentConfig,
    ExperimentName,
    run,
    write_curve_csvs,
    write_rows_csv,
)
from .game import build_game, verify_minmax
from .huber import MixtureWeights
from .kernel import THREADS_ENV_VAR, KernelConfig, median_heuristic
from .policy import PolicyParams, compare, rank_vendors
from .valuation import (
    Reference,
    ReferenceKind,
    build_mixture_reference,
    build_uniform_reference,
    value_dataset,
)


@dataclass(frozen=True)
class VendorManifest:
    """Vendor ids mapped to CSV feature files, with the expected dimension."""

    entries: list[tuple[str, str]]
    dim: int
    ground_truth: str | None = None
    has_header: bool = False

    def __post_init__(self):
        ids = [e[0] for e in self.entries]
        if len(set(ids)) != len(ids):
            raise InputError("manifest: vendor ids must be unique")
        if self.dim < 1:
            raise InputError("manifest: dim must be >= 1")


def _read_csv_points(path: str, dim: int, has_header: bool, owner: str) -> np.ndarray:
    if not os.path.exists(path):
        raise InputError(f"{owner}: file not found: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue
            if len(cells) != dim:
                raise InputError(
                    f"{owner}: {path}:{lineno}: expected {dim} columns, found {len(cells)}"
                )
            row = []
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise InputError(
                        f"{owner}: {path}:{lineno}:{col}: not a decimal real: {cell!r}"
                    )
                row.append(value)
            rows.append(row)
    if not rows:
        raise InputError(f"{owner}: {path}: no data rows")
    return np.asarray(rows, dtype=float)


def ingest(manifest: VendorManifest) -> list[Dataset]:
    """Datasets in manifest order; row order inside each file is preserved."""
    return [
        Dataset(id=vid, points=_read_csv_points(path, manifest.dim, manifest.has_header, vid))
        for vid, path in manifest.entries
    ]


def ingest_ground_truth(manifest: VendorManifest) -> Dataset | None:
    if manifest.ground_truth is None:
        return None
    pts = _read_csv_points(
        manifest.ground_truth, manifest.dim, manifest.has_header, "ground_truth"
    )
    return Dataset(id="ground_truth", points=pts)


def write_dataset_csv(dataset: Dataset, path: str):
    """Inverse of ingest for decimal-representable values (repr round-trips)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in dataset.points:
            w.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# configuration plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for property violations
        raise InputError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"config {path}: invalid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config {path}: top level must be an object")
    return cfg


def _manifest_from_config(cfg: dict) -> VendorManifest:
    m = cfg.get("manifest")
    if not m:
        raise InputError("config: a 'manifest' section is required for this command")
    try:
        entries = [(v["id"], v["path"]) for v in m["vendors"]]
        return VendorManifest(
            entries=entries,
            dim=int(m["dim"]),
            ground_truth=m.get("ground_truth"),
            has_header=bool(m.get("has_header", False)),
        )
    except (KeyError, TypeError) as e:
        raise InputError(f"config: malformed manifest: {e}") from None


def _resolve_sigma(spec, datasets: list[Dataset], gt: Dataset | None) -> float:
    if spec == "auto":
        pools = [d.points for d in datasets] + ([gt.points] if gt is not None else [])
        pooled = Dataset(id="pooled", points=np.concatenate(pools, axis=0))
        return median_heuristic(pooled, cap=1000)
    try:
        return float(spec)
    except (TypeError, ValueError):
        raise InputError(f"sigma must be a positive number or 'auto', got {spec!r}") from None


def _build_reference(cfg: dict, datasets, gt, seed: int | None) -> Reference:
    ref_cfg = cfg.get("reference", {"kind": "uniform"})
    kind = ref_cfg.get("kind", "uniform")
    if kind == "ground_truth":
        if gt is None:
            raise InputError("reference kind 'ground_truth' needs manifest.ground_truth")
        return Reference(kind=ReferenceKind.GROUND_TRUTH, data=gt)
    if seed is None:
        raise InputError(f"--seed is required to build a seeded '{kind}' reference")
    if kind == "uniform":
        return build_uniform_reference(datasets, seed)
    if kind == "mixture":
        if "weights" not in ref_cfg:
            raise InputError("mixture reference needs 'weights'")
        w = MixtureWeights(np.asarray(ref_cfg["weights"], dtype=float))
        m_min = min(len(d) for d in datasets)
        total = int(ref_cfg.get("total", len(datasets) * m_min))
        return build_mixture_reference(datasets, w, total, seed)
    raise InputError(f"unknown reference kind {kind!r}")


def _section(cfg: dict, name: str, keys: tuple[str, ...]) -> dict:
    """The config's `name` object; any key outside `keys` is an input error."""
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise InputError(f"config: '{name}' must be an object")
    unknown = sorted(set(sec) - set(keys))
    if unknown:
        raise InputError(
            f"config: unknown {name} key(s) {', '.join(map(repr, unknown))};"
            f" {name} takes only {', '.join(keys)}"
        )
    return sec


def _policy_from(cfg: dict, args) -> PolicyParams:
    pol = dict(_section(cfg, "policy", ("eps_bias", "eps_upsilon")))
    if args.eps_bias is not None:
        pol["eps_bias"] = args.eps_bias
    if args.eps_upsilon is not None:
        pol["eps_upsilon"] = args.eps_upsilon
    if "eps_bias" not in pol:
        raise InputError("eps_bias is required (config policy.eps_bias or --eps-bias)")
    return PolicyParams(
        eps_upsilon=float(pol.get("eps_upsilon", 0.0)),
        eps_bias=float(pol["eps_bias"]),
    )


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands


def _prepare_data(cfg: dict, args):
    manifest = _manifest_from_config(cfg)
    datasets = ingest(manifest)
    gt = ingest_ground_truth(manifest)
    kernel_cfg = _section(cfg, "kernel", ("sigma",))
    sigma_spec = args.sigma if args.sigma is not None else kernel_cfg.get("sigma", "auto")
    sigma = _resolve_sigma(sigma_spec, datasets, gt)
    kernel = KernelConfig(sigma=sigma)
    return manifest, datasets, gt, kernel


# with the RBF kernel (K = 1) every value lies in [-sqrt(2), 0]
_VALUE_SCALE = {"min": -math.sqrt(2.0), "max": 0.0}


def cmd_value(cfg: dict, args) -> int:
    _, datasets, gt, kernel = _prepare_data(cfg, args)
    ref = _build_reference(cfg, datasets, gt, args.seed)
    values = [
        {"id": d.id, "value": value_dataset(kernel, d, ref, args.threads)} for d in datasets
    ]
    resolved = _provenance(args, kernel, ref=ref.kind.value)
    _note_provenance(resolved)
    if args.format == "csv":
        _csv_stdout_or_file(["id", "value"], [(v["id"], v["value"]) for v in values], args)
        return 0
    _emit(
        {
            "command": "value",
            "resolved_config": resolved,
            "value_scale": _VALUE_SCALE,
            "result": values,
        },
        args,
    )
    return 0


def cmd_rank(cfg: dict, args) -> int:
    _, datasets, gt, kernel = _prepare_data(cfg, args)
    ref = _build_reference(cfg, datasets, gt, args.seed)
    ranked = rank_vendors(kernel, datasets, ref, args.threads)
    result = [{"rank": i + 1, "id": vid, "value": val} for i, (vid, val) in enumerate(ranked)]
    resolved = _provenance(args, kernel, ref=ref.kind.value)
    _note_provenance(resolved)
    if args.format == "csv":
        _csv_stdout_or_file(
            ["rank", "id", "value"], [(r["rank"], r["id"], r["value"]) for r in result], args
        )
        return 0
    _emit(
        {
            "command": "rank",
            "resolved_config": resolved,
            "value_scale": _VALUE_SCALE,
            "result": result,
        },
        args,
    )
    return 0


def cmd_compare(cfg: dict, args) -> int:
    _, datasets, gt, kernel = _prepare_data(cfg, args)
    ref = _build_reference(cfg, datasets, gt, args.seed)
    params = _policy_from(cfg, args)
    cmp_cfg = cfg.get("compare", {})
    by_id = {d.id: d for d in datasets}
    try:
        left, right = by_id[cmp_cfg["left"]], by_id[cmp_cfg["right"]]
    except KeyError as e:
        raise InputError(f"compare: unknown or missing vendor id {e}") from None
    huber_gap = cmp_cfg.get("huber_gap")
    report = compare(
        kernel, params, left, right, ref,
        huber_gap=None if huber_gap is None else float(huber_gap),
        threads=args.threads,
    )
    resolved = _provenance(
        args, kernel, ref=ref.kind.value,
        policy={"eps_bias": params.eps_bias, "eps_upsilon": params.eps_upsilon},
        huber_gap=huber_gap,
    )
    _note_provenance(resolved)
    _emit(
        {"command": "compare", "resolved_config": resolved, "result": json.loads(report.to_json())},
        args,
    )
    return 0


def cmd_experiment(cfg: dict, args) -> int:
    exp = cfg.get("experiment")
    if not exp:
        raise InputError("config: an 'experiment' section is required")
    if args.seed is None and "seed" not in exp:
        raise InputError("--seed is required for experiments")
    seed = args.seed if args.seed is not None else int(exp["seed"])
    kernel_cfg = _section(cfg, "kernel", ("sigma",))
    sigma_spec = args.sigma if args.sigma is not None else kernel_cfg.get("sigma", 1.0)
    if sigma_spec == "auto":
        raise InputError("experiments need an explicit sigma (no pooled data to derive it from)")
    try:
        name = ExperimentName(exp.get("name", ""))
    except ValueError:
        raise InputError(f"unknown experiment name {exp.get('name')!r}") from None
    econfig = ExperimentConfig(
        name=name,
        n=int(exp.get("n", 1)),
        trials=int(exp.get("trials", 1)),
        seed=seed,
        kernel=KernelConfig(sigma=float(sigma_spec)),
        extra=dict(exp.get("extra", {})),
    )
    saved_threads = os.environ.get(THREADS_ENV_VAR)
    try:
        if args.threads is not None:
            # The runners read the worker count from the environment; the
            # finally clause restores it for later in-process callers.
            os.environ[THREADS_ENV_VAR] = str(args.threads)
        report = run(econfig, timing=args.timing)
    finally:
        if saved_threads is None:
            os.environ.pop(THREADS_ENV_VAR, None)
        else:
            os.environ[THREADS_ENV_VAR] = saved_threads
    if args.format == "csv":
        if not args.out:
            raise InputError("--format csv for experiments requires --out")
        write_rows_csv(report, args.out)
        base, _ = os.path.splitext(args.out)
        write_curve_csvs(report, base)
        print(json.dumps({"written": args.out, "resolved_config": report.config}))
        return 0
    payload = json.loads(report.to_json())
    payload["resolved_config"] = payload["config"]
    _emit(payload, args)
    return 0


def cmd_verify_game(cfg: dict, args) -> int:
    game_cfg = cfg.get("game", {})
    reports = []
    if "distances" in game_cfg:
        reports.append(verify_minmax(build_game(np.asarray(game_cfg["distances"], dtype=float))))
    else:
        n_values = game_cfg.get("n_values", [2, 3, 4, 5])
        trials = int(game_cfg.get("trials", 100))
        if args.seed is None:
            raise InputError("--seed is required for randomized game verification")
        rng = np.random.default_rng(args.seed)
        for n in n_values:
            for _ in range(trials):
                reports.append(verify_minmax(build_game(rng.uniform(0.0, 1.0, size=n))))
    all_ok = all(r.certified for r in reports)
    payload = {
        "command": "verify-game",
        "resolved_config": _provenance(args, None),
        "certified": all_ok,
        "games": len(reports),
        "failures": [json.loads(r.to_json()) for r in reports if not r.certified],
    }
    _emit(payload, args)
    if not all_ok:
        raise PropertyViolation("minimax certificate failed")
    return 0


def _csv_stdout_or_file(header, rows, args):
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    else:
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)


def _note_provenance(resolved: dict):
    print(f"resolved configuration: {json.dumps(resolved)}", file=sys.stderr)


def _provenance(args, kernel: KernelConfig | None, **extra) -> dict:
    out = {"seed": args.seed}
    for flag in ("threads", "format"):
        if hasattr(args, flag):
            out[flag] = getattr(args, flag)
    out["config_path"] = args.config
    if kernel is not None:
        out["kernel"] = {"sigma": kernel.sigma}
    out.update(extra)
    return out


# Each command accepts only the flags it reads.
_DATA_FLAGS = ("config", "seed", "sigma", "out", "threads")
_COMMANDS = {
    "value": (cmd_value, _DATA_FLAGS + ("format",)),
    "rank": (cmd_rank, _DATA_FLAGS + ("format",)),
    "compare": (cmd_compare, _DATA_FLAGS + ("eps-bias", "eps-upsilon")),
    "experiment": (cmd_experiment, _DATA_FLAGS + ("format", "timing")),
    "verify-game": (cmd_verify_game, ("config", "seed", "out")),
}

_FLAGS = {
    "config": {"help": "JSON run-configuration file"},
    "seed": {"type": int, "help": "seed; required for stochastic commands"},
    "sigma": {"help": "kernel bandwidth, a number or 'auto'"},
    "eps-bias": {"type": float},
    "eps-upsilon": {"type": float},
    "out": {"help": "write the report here instead of stdout"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "threads": {"type": int, "help": f"worker threads; falls back to ${THREADS_ENV_VAR}"},
    "timing": {"action": "store_true", "help": "include wall-clock timing in experiment reports"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="distval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        print(
            f"distval {args.command}: seed={args.seed} config={args.config}",
            file=sys.stderr,
        )
        return _COMMANDS[args.command][0](cfg, args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PropertyViolation as e:
        print(f"property violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
