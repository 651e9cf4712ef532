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

from ._schema import (
    BOOLEAN,
    COUNT,
    GAME_SIZES,
    NONNEGATIVE,
    NUMBER,
    NUMBERS,
    Section,
    is_number,
    nonempty_list_of,
    one_of,
)
from .data import Dataset
from .errors import InputError, PropertyViolation
from .experiments import (
    ExperimentConfig,
    ExperimentName,
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
    reader, which names the first bad cell. That reader accepts the files
    `np.loadtxt` reads, and also quoted cells and lines of only whitespace.
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
            # float() also takes digit separators and non-ASCII digits, which
            # np.loadtxt refuses: "1_0" would read as 10.0 and "\u0661" as 1.0.
            try:
                value = float(cell) if "_" not in cell and cell.strip().isascii() else math.nan
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


# What `Section.get` accepts, besides the kinds imported above: the JSON
# type its error names, and the test.
_STRING = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
# no vendors would leave nothing to pool, score or mix
_VENDORS = ("a nonempty list", nonempty_list_of(lambda v: True))
_SIGMA = ('a number or "auto"', lambda v: v == "auto" or is_number(v))


def _section(cfg: dict, name: str, keys: tuple[str, ...]) -> Section:
    """The config's top-level `name` object (empty when absent)."""
    return Section(cfg.get(name, {}), name, keys)


def _flag_or(flag, value):
    """A command-line flag, when given, overrides the config value."""
    return value if flag is None else flag


def _manifest_from_config(cfg: dict) -> VendorManifest:
    m = _section(cfg, "manifest", ("dim", "has_header", "vendors", "ground_truth"))
    entries = []
    for i, obj in enumerate(m.get("vendors", _VENDORS)):
        vendor = Section(obj, f"manifest.vendors[{i}]", ("id", "path"))
        entries.append((vendor.get("id", _STRING), vendor.get("path", _STRING)))
    return VendorManifest(
        entries=entries,
        dim=m.get("dim", COUNT),
        ground_truth=m.get("ground_truth", _STRING, None),
        has_header=m.get("has_header", BOOLEAN, False),
    )


def _kernel_from(cfg: dict, args, pools: list[np.ndarray] | None) -> tuple[KernelConfig, str]:
    """The kernel for --sigma, else config kernel.sigma, and where its sigma
    came from: "flag", "config" or "median of the pooled rows". Sigma 'auto',
    the default for data commands, is the median heuristic over the pooled
    rows; experiments (pools None) have no data to pool and default to 1.0."""
    kernel = _section(cfg, "kernel", ("sigma",))
    spec = _flag_or(args.sigma, kernel.get("sigma", _SIGMA, 1.0 if pools is None else "auto"))
    if spec != "auto":
        try:
            sigma = float(spec)
        except ValueError:
            raise InputError(f"sigma must be a positive number or 'auto', got {spec!r}") from None
        return KernelConfig(sigma=sigma), "config" if args.sigma is None else "flag"
    if pools is None:
        raise InputError("experiments need an explicit sigma (no pooled data to derive it from)")
    pooled = Dataset(id="pooled", points=np.concatenate(pools, axis=0))
    return KernelConfig(sigma=median_heuristic(pooled)), "median of the pooled rows"


def _build_reference(cfg: dict, datasets, gt, seed: int | None) -> Reference:
    sec = _section(cfg, "reference", ("kind", "weights", "total"))
    kind = ReferenceKind(sec.get("kind", one_of(ReferenceKind), "uniform"))
    weights = sec.get("weights", NUMBERS, None)
    total = sec.get("total", COUNT, None)
    if kind is not ReferenceKind.MIXTURE:
        for key, value in (("weights", weights), ("total", total)):
            if value is not None:
                raise InputError(
                    f"config: reference.{key} applies only to a 'mixture' reference,"
                    f" not '{kind.value}'"
                )
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
    eps_bias = _flag_or(args.eps_bias, pol.get("eps_bias", NUMBER, None))
    eps_upsilon = _flag_or(args.eps_upsilon, pol.get("eps_upsilon", NUMBER, 0.0))
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
    kernel, sigma_source = _kernel_from(cfg, args, pools)
    return datasets, kernel, sigma_source, _build_reference(cfg, datasets, gt, args.seed)


# with the RBF kernel (K = 1) every value lies in [-sqrt(2), 0]
_VALUE_SCALE = {"min": -math.sqrt(2.0), "max": 0.0}


def cmd_score(cfg: dict, args) -> int:
    """`value` scores the vendors in manifest order; `rank` sorts them best
    first and adds a rank column."""
    datasets, kernel, sigma_source, ref = _prepare_data(cfg, args)
    if args.command == "rank":
        ranked = rank_vendors(kernel, datasets, ref, args.threads)
        result = [{"rank": i + 1, "id": vid, "value": val} for i, (vid, val) in enumerate(ranked)]
    else:
        result = [
            {"id": d.id, "value": value_dataset(kernel, d, ref, args.threads)} for d in datasets
        ]
    resolved = _provenance(args, kernel, sigma_source, ref=ref.kind.value)
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
    datasets, kernel, sigma_source, ref = _prepare_data(cfg, args)
    params = _policy_from(cfg, args)
    cmp_cfg = _section(cfg, "compare", ("left", "right", "huber_gap"))
    by_id = {d.id: d for d in datasets}
    vendor_id = one_of(by_id)
    left, right = (by_id[cmp_cfg.get(side, vendor_id)] for side in ("left", "right"))
    huber_gap = cmp_cfg.get("huber_gap", NUMBER, None)
    report = compare(kernel, params, left, right, ref, huber_gap=huber_gap, threads=args.threads)
    resolved = _provenance(
        args, kernel, sigma_source, ref=ref.kind.value,
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
    name = ExperimentName(exp.get("name", one_of(ExperimentName)))
    n = exp.get("n", COUNT, 1)
    trials = exp.get("trials", COUNT, 1)
    seed = _flag_or(args.seed, exp.get("seed", NONNEGATIVE, None))
    # ExperimentConfig checks each extra key and value
    extra = exp.get("extra", _OBJECT, {})
    if seed is None:
        raise InputError("--seed is required for experiments")
    econfig = ExperimentConfig(
        name=name, n=n, trials=trials, seed=seed, kernel=_kernel_from(cfg, args, None)[0],
        extra=extra,
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
    distances = game_cfg.get("distances", NUMBERS, None)
    n_values = game_cfg.get("n_values", GAME_SIZES, [2, 3, 4, 5])
    trials = game_cfg.get("trials", COUNT, 100)
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


def _provenance(
    args, kernel: KernelConfig | None, sigma_source: str | None = None, **extra
) -> dict:
    out = {"seed": args.seed}
    for flag in ("threads", "format"):
        if hasattr(args, flag):
            out[flag] = getattr(args, flag)
    out["config_path"] = args.config
    if kernel is not None:
        out["kernel"] = {"sigma": kernel.sigma, "source": sigma_source}
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
            raise InputError(f"--seed must be {NONNEGATIVE[0]}, got {args.seed}")
        if getattr(args, "threads", 1) < 1:
            raise InputError(f"--threads must be {COUNT[0]}, got {args.threads}")
        cfg = _load_config(args.config)
        print(
            f"distval {args.command}: seed={args.seed} config={args.config}",
            file=sys.stderr,
        )
        code = _COMMANDS[args.command][0](cfg, args)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
        return code
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PropertyViolation as e:
        print(f"property violation: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError as e:
        # The reader closed stdout. Point it at devnull, so the exit flush of
        # what is still buffered does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {e.strerror}", file=sys.stderr)
        return 1
    except OSError as e:
        if e.filename is None:  # not a file the command opened
            raise
        # inputs are read through _read_text, so this is an --out file
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
