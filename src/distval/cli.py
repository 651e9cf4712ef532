"""Command-line front end: CSV ingestion, run configuration, JSON reports.

Exit codes: 0 success, 1 input error, 2 property violation (a failed
verify-game certificate). Every report embeds the effective resolved
configuration for provenance.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InputError, PropertyViolation
from .experiments import (
    _BOOLEAN,
    _COUNT,
    _INTEGER,
    _INTEGERS,
    _NUMBER,
    _NUMBERS,
    _SEED,
    ExperimentConfig,
    ExperimentName,
    _is_number,
    _one_of,
    run,
    write_csv,
    write_curve_csvs,
    write_rows_csv,
)
from .game import build_game, verify_minmax
from .huber import MixtureWeights
from .kernel import KernelConfig, median_heuristic
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


def _read_text(path: str, what: str) -> str:
    """The file's text; a missing, unreadable or non-UTF-8 file is an input error."""
    if not os.path.exists(path):
        raise InputError(f"{what} not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"{what} unreadable: {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{what} unreadable: {path}: not UTF-8 text (byte {e.start})") from None


def _read_csv_points(path: str, dim: int, has_header: bool, owner: str) -> np.ndarray:
    """The file's rows as an (m, dim) array, with blank lines skipped and line 1
    skipped when `has_header` is set.

    `np.loadtxt` reads a well-formed file. Anything it refuses, or reads as a
    different shape or with a non-finite cell, goes through the per-cell
    reader, which accepts the same files and names the first bad cell.
    """
    text = _read_text(path, f"{owner}: file")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            pts = np.loadtxt(
                io.StringIO(text, newline=""), delimiter=",", ndmin=2, comments=None,
                skiprows=int(has_header),
            )
        if pts.shape[0] >= 1 and pts.shape[1] == dim and np.isfinite(pts).all():
            return pts
    except ValueError:
        pass
    return _parse_csv_cells(text, path, dim, has_header, owner)


def _parse_csv_cells(text: str, path: str, dim: int, has_header: bool, owner: str) -> np.ndarray:
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
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
                raise InputError(f"{owner}: {path}:{lineno}:{col}: not a decimal real: {cell!r}")
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
    try:
        cfg = json.loads(_read_text(path, "config file"))
    except json.JSONDecodeError as e:
        raise InputError(f"config {path}: invalid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config {path}: top level must be an object")
    return cfg


# What `_Section.get` accepts, besides the kinds imported above: the JSON
# type its error names, and the test.
_STRING = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_LIST = ("a list", lambda v: isinstance(v, list))
_SIGMA = ('a number or "auto"', lambda v: v == "auto" or _is_number(v))
_REQUIRED = object()


class _Section:
    """One object of the run config, named by its path (`manifest.vendors[0]`).

    A key outside `keys` is an input error. `get` checks a value's JSON type
    and returns it as written: no config value is coerced.
    """

    def __init__(self, obj, where: str, keys: tuple[str, ...]):
        if not isinstance(obj, dict):
            raise InputError(f"config: {where} must be an object, got {json.dumps(obj)}")
        for key in obj:
            if key not in keys:
                raise InputError(
                    f"config: {where}.{key} is not a known key;"
                    f" {where} takes only {', '.join(keys)}"
                )
        self.obj = obj
        self.where = where

    def get(self, key: str, kind: tuple, default=_REQUIRED):
        """`key`'s value if it has the JSON type `kind`; `default` when the key
        is absent, or null where the default is None."""
        if key not in self.obj or (self.obj[key] is None and default is None):
            if default is _REQUIRED:
                raise InputError(f"config: {self.where}.{key} is required")
            return default
        value = self.obj[key]
        what, test = kind
        if not test(value):
            raise InputError(f"config: {self.where}.{key} must be {what}, got {json.dumps(value)}")
        return value


def _section(cfg: dict, name: str, keys: tuple[str, ...]) -> _Section:
    """The config's top-level `name` object (empty when absent)."""
    return _Section(cfg.get(name, {}), name, keys)


def _flag_or(flag, value):
    """A command-line flag, when given, overrides the config value."""
    return value if flag is None else flag


def _manifest_from_config(cfg: dict) -> VendorManifest:
    m = _section(cfg, "manifest", ("dim", "has_header", "vendors", "ground_truth"))
    entries = []
    for i, obj in enumerate(m.get("vendors", _LIST)):
        vendor = _Section(obj, f"manifest.vendors[{i}]", ("id", "path"))
        entries.append((vendor.get("id", _STRING), vendor.get("path", _STRING)))
    return VendorManifest(
        entries=entries,
        dim=m.get("dim", _INTEGER),
        ground_truth=m.get("ground_truth", _STRING, None),
        has_header=m.get("has_header", _BOOLEAN, False),
    )


def _kernel_from(cfg: dict, args, pools: list[np.ndarray] | None) -> KernelConfig:
    """The kernel for --sigma, else config kernel.sigma. Sigma 'auto', the
    default for data commands, is the median heuristic over the pooled rows;
    experiments (pools None) have no data to pool and default to 1.0."""
    kernel = _section(cfg, "kernel", ("sigma",))
    spec = _flag_or(args.sigma, kernel.get("sigma", _SIGMA, 1.0 if pools is None else "auto"))
    if spec != "auto":
        try:
            sigma = float(spec)
        except ValueError:
            raise InputError(f"sigma must be a positive number or 'auto', got {spec!r}") from None
        return KernelConfig(sigma=sigma)
    if pools is None:
        raise InputError("experiments need an explicit sigma (no pooled data to derive it from)")
    pooled = Dataset(id="pooled", points=np.concatenate(pools, axis=0))
    return KernelConfig(sigma=median_heuristic(pooled))


def _build_reference(cfg: dict, datasets, gt, seed: int | None) -> Reference:
    sec = _section(cfg, "reference", ("kind", "weights", "total"))
    kind = ReferenceKind(sec.get("kind", _one_of(ReferenceKind), "uniform"))
    weights = sec.get("weights", _NUMBERS, None)
    total = sec.get("total", _INTEGER, None)
    if kind is ReferenceKind.GROUND_TRUTH:
        if gt is None:
            raise InputError("reference kind 'ground_truth' needs manifest.ground_truth")
        return Reference(kind=kind, data=gt)
    if seed is None:
        raise InputError(f"--seed is required to build a seeded '{kind.value}' reference")
    if kind is ReferenceKind.UNIFORM:
        return build_uniform_reference(datasets, seed)
    if weights is None:
        raise InputError("config: reference.weights is required for a mixture reference")
    if total is None:
        total = len(datasets) * min(len(d) for d in datasets)
    return build_mixture_reference(datasets, MixtureWeights(weights), total, seed)


def _policy_from(cfg: dict, args) -> PolicyParams:
    pol = _section(cfg, "policy", ("eps_bias", "eps_upsilon"))
    eps_bias = _flag_or(args.eps_bias, pol.get("eps_bias", _NUMBER, None))
    eps_upsilon = _flag_or(args.eps_upsilon, pol.get("eps_upsilon", _NUMBER, 0.0))
    if eps_bias is None:
        raise InputError("eps_bias is required (config policy.eps_bias or --eps-bias)")
    return PolicyParams(eps_upsilon=eps_upsilon, eps_bias=eps_bias)


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
    pools = [d.points for d in datasets] + ([gt.points] if gt is not None else [])
    kernel = _kernel_from(cfg, args, pools)
    return datasets, kernel, _build_reference(cfg, datasets, gt, args.seed)


# with the RBF kernel (K = 1) every value lies in [-sqrt(2), 0]
_VALUE_SCALE = {"min": -math.sqrt(2.0), "max": 0.0}


def cmd_score(cfg: dict, args) -> int:
    """`value` scores the vendors in manifest order; `rank` sorts them best
    first and adds a rank column."""
    datasets, kernel, ref = _prepare_data(cfg, args)
    if args.command == "rank":
        ranked = rank_vendors(kernel, datasets, ref, args.threads)
        result = [{"rank": i + 1, "id": vid, "value": val} for i, (vid, val) in enumerate(ranked)]
    else:
        result = [
            {"id": d.id, "value": value_dataset(kernel, d, ref, args.threads)} for d in datasets
        ]
    resolved = _provenance(args, kernel, ref=ref.kind.value)
    _note_provenance(resolved)
    if args.format == "csv":
        write_csv(result, args.out)
        return 0
    _emit(
        {
            "command": args.command,
            "resolved_config": resolved,
            "value_scale": _VALUE_SCALE,
            "result": result,
        },
        args,
    )
    return 0


def cmd_compare(cfg: dict, args) -> int:
    datasets, kernel, ref = _prepare_data(cfg, args)
    params = _policy_from(cfg, args)
    cmp_cfg = _section(cfg, "compare", ("left", "right", "huber_gap"))
    by_id = {d.id: d for d in datasets}
    vendor_id = _one_of(by_id)
    left, right = (by_id[cmp_cfg.get(side, vendor_id)] for side in ("left", "right"))
    huber_gap = cmp_cfg.get("huber_gap", _NUMBER, None)
    report = compare(kernel, params, left, right, ref, huber_gap=huber_gap, threads=args.threads)
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
    exp = _section(cfg, "experiment", ("name", "n", "trials", "seed", "extra"))
    name = ExperimentName(exp.get("name", _one_of(ExperimentName)))
    n = exp.get("n", _INTEGER, 1)
    trials = exp.get("trials", _INTEGER, 1)
    seed = _flag_or(args.seed, exp.get("seed", _SEED, None))
    # ExperimentConfig checks each extra key and value
    extra = exp.get("extra", _OBJECT, {})
    if seed is None:
        raise InputError("--seed is required for experiments")
    econfig = ExperimentConfig(
        name=name, n=n, trials=trials, seed=seed, kernel=_kernel_from(cfg, args, None), extra=extra
    )
    report = run(econfig, timing=args.timing)
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
    game_cfg = _section(cfg, "game", ("distances", "n_values", "trials"))
    distances = game_cfg.get("distances", _NUMBERS, None)
    n_values = game_cfg.get("n_values", _INTEGERS, [2, 3, 4, 5])
    trials = game_cfg.get("trials", _COUNT, 100)
    reports = []
    if distances is not None:
        reports.append(verify_minmax(build_game(distances)))
    else:
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
    "value": (cmd_score, _DATA_FLAGS + ("format",)),
    "rank": (cmd_score, _DATA_FLAGS + ("format",)),
    "compare": (cmd_compare, _DATA_FLAGS + ("eps-bias", "eps-upsilon")),
    "experiment": (cmd_experiment, ("config", "seed", "sigma", "out", "format", "timing")),
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
    "threads": {"type": int, "default": 1, "help": "worker threads (default 1)"},
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
        if args.seed is not None and args.seed < 0:
            raise InputError(f"--seed must be {_SEED[0]}, got {args.seed}")
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
