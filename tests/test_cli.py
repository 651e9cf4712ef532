import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distval import Dataset, InputError, median_heuristic
from distval import cli
from distval.cli import VendorManifest, ingest, main


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


@pytest.fixture
def vendor_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    ref = tmp_path / "ref.csv"
    rng = np.random.default_rng(1)
    write_csv(a, rng.normal(0.0, 1.0, size=(40, 2)).tolist())
    write_csv(b, rng.normal(3.0, 1.0, size=(50, 2)).tolist())
    write_csv(ref, rng.normal(0.0, 1.0, size=(60, 2)).tolist())
    return tmp_path, a, b, ref


def test_ingest_basic(tmp_path):
    f = tmp_path / "v.csv"
    write_csv(f, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    (d,) = ingest(VendorManifest(entries=[("v", str(f))], dim=3))
    assert d.dim == 3 and len(d) == 2
    assert d.points[1, 2] == 6.0  # row order preserved


def test_ingest_header_flag(tmp_path):
    f = tmp_path / "v.csv"
    f.write_text("x,y\n1.0,2.0\n")
    (d,) = ingest(VendorManifest(entries=[("v", str(f))], dim=2, has_header=True))
    assert len(d) == 1


def test_ingest_names_error_location(tmp_path):
    f = tmp_path / "v.csv"
    f.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(InputError, match=rf"{f}:2:2"):
        ingest(VendorManifest(entries=[("v", str(f))], dim=2))


def test_ingest_rejects_non_finite(tmp_path):
    f = tmp_path / "v.csv"
    f.write_text("1.0,nan\n")
    with pytest.raises(InputError, match=rf"{f}:1:2"):
        ingest(VendorManifest(entries=[("v", str(f))], dim=2))


def test_ingest_dimension_mismatch_names_vendor(tmp_path):
    f = tmp_path / "v.csv"
    write_csv(f, [[1.0, 2.0]])
    with pytest.raises(InputError, match="vend_x"):
        ingest(VendorManifest(entries=[("vend_x", str(f))], dim=3))


def test_ingest_empty_file(tmp_path):
    f = tmp_path / "v.csv"
    f.write_text("")
    with pytest.raises(InputError, match="no data rows"):
        ingest(VendorManifest(entries=[("v", str(f))], dim=1))


def test_ingest_missing_file(tmp_path):
    with pytest.raises(InputError, match="not found"):
        ingest(VendorManifest(entries=[("v", str(tmp_path / "nope.csv"))], dim=1))


def test_ingest_unreadable_file(tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("1.0\n\xe9\n".encode("latin-1"))
    for path, reason in [(tmp_path, "Is a directory"), (latin1, "not UTF-8 text")]:
        with pytest.raises(InputError) as e:
            ingest(VendorManifest(entries=[("v", str(path))], dim=1))
        assert str(e.value).startswith(f"v: file unreadable: {path}: {reason}")


def test_manifest_duplicate_ids(tmp_path):
    with pytest.raises(InputError):
        VendorManifest(entries=[("v", "x"), ("v", "y")], dim=1)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    d = Dataset("r", rng.normal(size=(25, 3)))
    out = tmp_path / "out.csv"
    write_csv(out, d.points.tolist())
    (back,) = ingest(VendorManifest(entries=[("r", str(out))], dim=3))
    assert np.array_equal(back.points, d.points)  # str of a float is its repr, which round-trips


def _both_readers(path, text, dim, has_header):
    """What ingest's reader and the per-cell reader alone make of the same
    file: an array, or the message of the input error."""
    path.write_bytes(text.encode("utf-8"))
    out = []
    for read in (
        lambda: cli._read_csv_points(str(path), dim, has_header, "v"),
        lambda: cli._parse_csv_cells(text, str(path), dim, has_header, "v"),
    ):
        try:
            out.append(read())
        except InputError as e:
            out.append(str(e))
    return out


_PAD = st.sampled_from(["", " ", "\t", "  "])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# tmp_path is shared by a test's examples; each example rewrites the one file
_ONE_FILE = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _csv_files(draw, bad_cells=()):
    """(text, dim, has_header): rows of %.17g or repr cells with whitespace
    around them, blank lines, LF or CRLF endings and an optional header; each
    of `bad_cells` may replace one cell, and a row may lose its last cell."""
    dim = draw(st.integers(1, 4))
    # np.loadtxt refuses a line of only whitespace, so half the files have
    # none and are read by the fast path
    blanks = draw(st.sampled_from([[""], ["", " ", "\t"]]))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        cells = []
        for _ in range(dim):
            fmt = draw(st.sampled_from(["%.17g", "%r"]))
            cells.append(draw(_PAD) + fmt % draw(_FINITE) + draw(_PAD))
        lines.append(",".join(cells))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(blanks)))
    if bad_cells:
        i = draw(st.integers(0, len(lines) - 1))
        bad = draw(st.sampled_from(list(bad_cells) + ["short row"]))
        cells = lines[i].split(",")
        if bad == "short row":
            cells = cells[:-1]
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = bad
        lines[i] = ",".join(cells)
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, ",".join(f"x{j}" for j in range(dim)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), dim, has_header


@given(_csv_files())
@settings(_ONE_FILE, max_examples=150)
def test_fast_ingest_is_byte_identical_to_the_per_cell_reader(tmp_path, file):
    text, dim, has_header = file
    fast, cells = _both_readers(tmp_path / "v.csv", text, dim, has_header)
    assert isinstance(cells, np.ndarray)
    assert fast.dtype == cells.dtype and fast.shape == cells.shape
    assert fast.tobytes() == cells.tobytes()


def test_fast_ingest_reads_a_plain_file_without_the_per_cell_reader(tmp_path, monkeypatch):
    f = tmp_path / "v.csv"
    f.write_text("x,y\r\n 1.5 ,-0\r\n\r\n2e-3,\t4\r\n")
    monkeypatch.setattr(cli, "_parse_csv_cells", None)
    (d,) = ingest(VendorManifest(entries=[("v", str(f))], dim=2, has_header=True))
    assert d.points.tolist() == [[1.5, 0.0], [2e-3, 4.0]]


@given(
    st.one_of(
        _csv_files(bad_cells=['"1.0"', "1_000", "#1", "# note", "nan", "inf", "-inf", "1e999"]),
        st.tuples(st.text("0123456789.,-+e_#\"nai \t\r\n", max_size=40), st.integers(1, 3),
                  st.booleans()),
    )
)
@settings(_ONE_FILE, max_examples=200)
def test_fast_ingest_gives_the_per_cell_readers_result_or_error(tmp_path, file):
    fast, cells = _both_readers(tmp_path / "v.csv", *file)
    if isinstance(cells, str):
        assert fast == cells
    else:
        assert fast.tobytes() == cells.tobytes() and fast.shape == cells.shape


# Python's float takes a digit separator and the Arabic-Indic digit one;
# np.loadtxt takes neither, and neither does the per-cell reader.
@pytest.mark.parametrize("cell", ["1_000", "\u0661"])
def test_digit_separators_and_non_ascii_digits_are_not_decimal_reals(tmp_path, cell):
    path = tmp_path / "v.csv"
    text = f"1.5,2\n3,{cell}\n"
    expected = f"v: {path}:2:2: not a decimal real: {cell!r}"
    assert _both_readers(path, text, 2, False) == [expected, expected]


def _config(tmp_path, vendor_files, **overrides):
    _, a, b, ref = vendor_files
    cfg = {
        "manifest": {
            "dim": 2,
            "vendors": [{"id": "a", "path": str(a)}, {"id": "b", "path": str(b)}],
            "ground_truth": str(ref),
        },
        "kernel": {"sigma": 1.0},
        "reference": {"kind": "ground_truth"},
    }
    cfg.update(overrides)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    return p


def test_cmd_rank_reference_vendor_first(tmp_path, vendor_files, capsys):
    # vendor "a" is statistically identical to the reference population;
    # sharing the reference file makes it literally equal
    _, a, b, ref = vendor_files
    cfg = _config(
        tmp_path,
        vendor_files,
        manifest={
            "dim": 2,
            "vendors": [{"id": "a", "path": str(ref)}, {"id": "b", "path": str(b)}],
            "ground_truth": str(ref),
        },
    )
    rc = main(["rank", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"][0]["id"] == "a"
    assert out["result"][0]["value"] == 0.0
    assert out["resolved_config"]["kernel"]["sigma"] == 1.0


def test_cmd_value_json(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files)
    rc = main(["value", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    vals = {r["id"]: r["value"] for r in out["result"]}
    assert vals["a"] > vals["b"]  # b is centred far from the reference
    assert all(v <= 0 for v in vals.values())


def test_cmd_value_uniform_reference_needs_seed(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files, reference={"kind": "uniform"})
    rc = main(["value", "--config", str(cfg)])
    assert rc == 1
    assert "--seed" in capsys.readouterr().err
    rc = main(["value", "--config", str(cfg), "--seed", "3"])
    assert rc == 0


def test_cmd_value_csv_format(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files)
    rc = main(["value", "--config", str(cfg), "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "id,value"
    assert len(lines) == 3


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("command", ["value", "rank"])
def test_cmd_scores_csv_format(tmp_path, vendor_files, capsys, command, dest):
    cfg = _config(tmp_path, vendor_files)
    argv = [command, "--config", str(cfg), "--format", "csv"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    if dest == "out":
        out = tmp_path / "scores.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == text.encode()
    lines = text.splitlines()
    if command == "value":
        assert lines[0] == "id,value"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["a", "b"]  # manifest order
    else:
        assert lines[0] == "rank,id,value"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[:2] for r in rows] == [["1", "a"], ["2", "b"]]
        assert float(rows[0][2]) > float(rows[1][2])


def test_cmd_compare_zero_bias_confidence(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    rc = main(["compare", "--config", str(cfg), "--eps-bias", "0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"]["delta"] == 2.0
    assert out["result"]["confidence"] == 0.0


def _strict_json(text):
    def reject(const):
        raise ValueError(f"non-strict JSON constant {const}")

    return json.loads(text, parse_constant=reject)


def test_cmd_compare_huge_eps_bias_saturates(tmp_path, vendor_files, capsys):
    # eps_bias**2 would overflow; delta saturates to 0 under a huge margin
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    rc = main(["compare", "--config", str(cfg), "--eps-bias", "1e300"])
    out = _strict_json(capsys.readouterr().out)
    assert rc == 0
    assert out["result"]["delta"] == 0.0
    assert out["result"]["confidence"] == 1.0
    assert out["result"]["verdict"] == "Inconclusive"


@pytest.mark.parametrize(
    "flags, message",
    [
        # 2 sigma^2 overflows to inf, or underflows to 0
        (["--sigma", "1e200"], "error: kernel: sigma must be positive and finite"),
        (["--sigma", "1e-200"], "error: kernel: sigma must be positive and finite"),
        # each policy term is finite, but the margin overflows to inf
        (["--eps-bias", "1e308"], "error: criterion margin is inf"),
    ],
)
def test_cmd_compare_out_of_range_floats_are_input_errors(
    tmp_path, vendor_files, capsys, flags, message
):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    argv = ["compare", "--config", str(cfg), "--eps-bias", "0.1", *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(message)


def test_cmd_compare_concludes_on_separated_vendors(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    rc = main(["compare", "--config", str(cfg), "--eps-bias", "0.1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    report = out["result"]
    assert report["observed_gap"] > 0
    assert report["verdict"] in ("Conclude", "Inconclusive")


def test_cmd_compare_requires_eps_bias(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    rc = main(["compare", "--config", str(cfg)])
    assert rc == 1
    assert "eps_bias" in capsys.readouterr().err


def test_cmd_experiment_requires_seed(tmp_path, capsys):
    p = tmp_path / "e.json"
    p.write_text(json.dumps({"experiment": {"name": "game_verify", "n": 2, "trials": 2}}))
    assert main(["experiment", "--config", str(p)]) == 1
    capsys.readouterr()
    assert main(["experiment", "--config", str(p), "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregates"]["pass_rate"]["mean"] == 1.0


def test_cmd_experiment_csv_out(tmp_path, capsys):
    p = tmp_path / "e.json"
    p.write_text(
        json.dumps(
            {
                "experiment": {
                    "name": "correlation",
                    "n": 5,
                    "trials": 3,
                    "extra": {"support_max": 10, "eps_max": 0.5},
                }
            }
        )
    )
    out = tmp_path / "rows.csv"
    rc = main(
        ["experiment", "--config", str(p), "--seed", "99", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("trial,")


def test_cmd_verify_game_explicit_distances(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"game": {"distances": [0.2, 0.6]}}))
    rc = main(["verify-game", "--config", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["certified"] is True


def test_cmd_verify_game_random_needs_seed(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"game": {"n_values": [2, 3], "trials": 5}}))
    assert main(["verify-game", "--config", str(p)]) == 1
    assert main(["verify-game", "--config", str(p), "--seed", "6"]) == 0


def test_cmd_verify_game_failure_exits_2(tmp_path, capsys, monkeypatch):
    import distval.cli as cli_mod

    class FakeReport:
        certified = False

        def to_json(self):
            return "{}"

    monkeypatch.setattr(cli_mod, "verify_minmax", lambda g: FakeReport())
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"game": {"distances": [0.2, 0.6]}}))
    assert main(["verify-game", "--config", str(p)]) == 2


def test_unknown_flag_is_input_error(capsys):
    assert main(["value", "--nope"]) == 1


def test_bad_config_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["value", "--config", str(p)]) == 1


def test_config_path_that_is_a_directory(tmp_path, capsys):
    assert main(["value", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == f"error: config file unreadable: {tmp_path}: Is a directory"


def test_sigma_auto_resolves_from_data(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files, kernel={"sigma": "auto"})
    rc = main(["value", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["resolved_config"]["kernel"]["sigma"] > 0


_MEDIAN = "median of the pooled rows"


@pytest.mark.parametrize("command", ["value", "rank", "compare"])
@pytest.mark.parametrize(
    "kernel_section, flags, source",
    [
        ({"sigma": 1.0}, ["--sigma", "0.5"], "flag"),
        ({"sigma": 0.5}, [], "config"),
        ({"sigma": "auto"}, [], _MEDIAN),
        ({}, [], _MEDIAN),
        ({"sigma": 0.5}, ["--sigma", "auto"], _MEDIAN),
    ],
    ids=["flag", "config", "config-auto", "default-auto", "flag-auto"],
)
def test_resolved_kernel_says_where_sigma_came_from(
    tmp_path, vendor_files, capsys, command, kernel_section, flags, source
):
    cfg = _config(
        tmp_path, vendor_files, kernel=kernel_section,
        policy={"eps_bias": 0.1}, compare={"left": "a", "right": "b"},
    )
    assert main([command, "--config", str(cfg), *flags]) == 0
    kernel_echo = json.loads(capsys.readouterr().out)["resolved_config"]["kernel"]
    assert kernel_echo["source"] == source
    if source == _MEDIAN:
        _, a, b, ref = vendor_files
        pooled = np.concatenate([np.loadtxt(f, delimiter=",") for f in (a, b, ref)])
        assert kernel_echo["sigma"] == median_heuristic(Dataset("pooled", pooled))
    else:
        assert kernel_echo["sigma"] == 0.5


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "distval.cli", "verify-game", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certified"] is True


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_input_error(tmp_path, vendor_files, fmt, unbuffered):
    # The read end is closed before the child writes. Once a BrokenPipeError
    # traceback, or with buffered stdout an ignored exception and exit 120.
    cfg = _config(tmp_path, vendor_files)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "distval.cli", "value", "--config", str(cfg), "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("error: cannot write stdout: ")


def test_threads_come_only_from_the_flag(tmp_path, vendor_files, capsys, monkeypatch):
    # the worker count comes only from --threads; the environment is not read
    monkeypatch.setenv("DISTVAL_THREADS", "abc")
    cfg = _config(tmp_path, vendor_files)
    assert main(["value", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["resolved_config"]["threads"] == 1


@pytest.mark.parametrize("command", ["value", "rank", "compare"])
def test_threads_below_one_are_an_input_error_before_any_csv_is_read(
    tmp_path, vendor_files, capsys, command
):
    _, a, b, _ = vendor_files
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    assert main([command, "--config", str(cfg), "--threads", "0"]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: --threads must be an integer >= 1, got 0"
    )
    # with the vendor files gone, the flag is still what the error names
    a.unlink()
    b.unlink()
    assert main([command, "--config", str(cfg), "--threads", "-4"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "error: --threads must be an integer >= 1, got -4"


@pytest.mark.parametrize(
    "sections, named",
    [
        # a caller-set K once shrank the margin and turned Inconclusive into Conclude
        ({"policy": {"eps_bias": 0.1, "k_bound": 0.01}}, "k_bound"),
        ({"policy": {"eps_bias": 0.1}, "kernel": {"sigma": 1.0, "k_bound": 0.01}}, "k_bound"),
        ({"policy": 0.1}, "policy"),
    ],
    ids=["policy-k_bound", "kernel-k_bound", "policy-not-an-object"],
)
def test_compare_rejects_unknown_policy_and_kernel_keys(
    tmp_path, vendor_files, capsys, sections, named
):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"}, **sections)
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and named in err


def test_compare_resolved_config_echoes_only_its_flags(tmp_path, vendor_files, capsys):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    assert main(["compare", "--config", str(cfg), "--eps-bias", "0.1"]) == 0
    resolved = json.loads(capsys.readouterr().out)["resolved_config"]
    assert "format" not in resolved
    assert resolved["kernel"] == {"sigma": 1.0, "source": "config"}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("compare", ["--format", "csv"]),
        ("value", ["--eps-bias", "1"]),
        ("rank", ["--timing"]),
        ("verify-game", ["--sigma", "1"]),
        ("verify-game", ["--threads", "7"]),
        ("experiment", ["--threads", "3"]),
    ],
)
def test_commands_reject_flags_they_do_not_read(tmp_path, vendor_files, capsys, command, flag):
    cfg = _config(
        tmp_path,
        vendor_files,
        compare={"left": "a", "right": "b"},
        policy={"eps_bias": 0.1},
        game={"distances": [0.2, 0.6]},
        experiment={"name": "game_verify", "n": 2, "trials": 1, "seed": 1},
    )
    assert main([command, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *flag]) == 1
    assert f"error: unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_reports_are_strict_json(tmp_path):
    import argparse

    from distval.cli import _emit

    with pytest.raises(ValueError):
        _emit({"value": float("nan")}, argparse.Namespace(out=str(tmp_path / "r.json")))


# With the `_config` sections, a config that every command accepts; each
# case below breaks one value of it.
_EVERY_SECTION = {
    "policy": {"eps_bias": 0.1, "eps_upsilon": 0.0},
    "compare": {"left": "a", "right": "b", "huber_gap": 0.0},
    "experiment": {"name": "game_verify", "n": 2, "trials": 1},
    "game": {"n_values": [2], "trials": 2},
}

_MIXTURE = {"kind": "mixture", "weights": [0.5, 0.5], "total": 20}


def _extra_case(name, key, value):
    experiment = {"name": name, "n": 2, "trials": 1, "extra": {key: value}}
    return ("experiment", "experiment", experiment, f"experiment.extra.{key}")


@pytest.mark.parametrize(
    "command, key, value, named",
    [
        # once a traceback
        ("compare", "policy.eps_bias", "abc", "policy.eps_bias"),
        ("compare", "manifest.dim", "x", "manifest.dim"),
        ("compare", "compare.huber_gap", "x", "compare.huber_gap"),
        ("compare", "reference", "uniform", "reference"),
        ("compare", "reference", {**_MIXTURE, "weights": ["a", "b"]}, "reference.weights"),
        ("compare", "reference", {**_MIXTURE, "total": "x"}, "reference.total"),
        ("compare", "compare", "a,b", "compare"),
        ("experiment", "experiment.n", "x", "experiment.n"),
        ("experiment", "experiment", ["game_verify"], "experiment"),
        ("verify-game", "game.distances", ["a", "b"], "game.distances"),
        ("verify-game", "game.trials", "x", "game.trials"),
        # once coerced silently
        ("value", "manifest.has_header", "false", "manifest.has_header"),
        ("value", "kernel.sigma", True, "kernel.sigma"),
        ("compare", "policy.eps_bias", True, "policy.eps_bias"),
        ("experiment", "experiment.trials", 2.9, "experiment.trials"),
        ("value", "manifest.dim", 2.7, "manifest.dim"),
        # json.load reads NaN and Infinity, which strict JSON reports cannot hold
        ("compare", "policy.eps_bias", math.nan, "policy.eps_bias"),
        ("compare", "compare.huber_gap", math.inf, "compare.huber_gap"),
        # one unknown key per section
        ("value", "manifest.dims", 2, "manifest.dims"),
        ("value", "manifest.vendors.0.ids", "a", "manifest.vendors[0].ids"),
        ("value", "kernel.bandwidth", 1.0, "kernel.bandwidth"),
        ("value", "reference.weight", [1.0], "reference.weight"),
        ("compare", "policy.eps", 0.1, "policy.eps"),
        ("compare", "compare.hubergap", 0.0, "compare.hubergap"),
        ("experiment", "experiment.extras", {}, "experiment.extras"),
        ("verify-game", "game.distance", [0.2, 0.6], "game.distance"),
        # experiment.extra values, typed by their defaults; once run as
        # empirical mode, or a traceback
        _extra_case("incentive_compat", "mode", "bogus"),
        _extra_case("incentive_compat", "m", "abc"),
        _extra_case("convergence", "fractions", "abc"),
        _extra_case("convergence", "eps_scheme", "even"),
        _extra_case("policy_soundness", "reference", "mixture"),
        _extra_case("convergence", "shared_outlier", 1),
        _extra_case("game_verify", "n_values", [2.5]),
        _extra_case("incentive_compat", "m", None),
        _extra_case("incentive_compat", "modes", "exact"),
        # once numpy's ValueError traceback
        ("experiment", "experiment.seed", -1, "experiment.seed"),
        # once a certificate over zero games, a ZeroDivisionError or no rows
        ("verify-game", "game.trials", 0, "game.trials"),
        ("verify-game", "game.trials", -1, "game.trials"),
        ("verify-game", "game.n_values", [], "game.n_values"),
        _extra_case("game_verify", "n_values", []),
        _extra_case("convergence", "fractions", []),
        # once rows for fractions 2.0 (m above m_full), -0.5 and 0.0 (m 1)
        _extra_case("convergence", "fractions", [2.0, -0.5, 0.0]),
        # once numpy's ValueError traceback, or a CapacityError from build_game
        ("verify-game", "game.n_values", [-2], "game.n_values"),
        ("verify-game", "game.n_values", [1], "game.n_values"),
        ("verify-game", "game.n_values", [8], "game.n_values"),
        _extra_case("game_verify", "n_values", [-2]),
        _extra_case("game_verify", "n_values", [1]),
        _extra_case("game_verify", "n_values", [8]),
        # no vendors: once an error naming the missing ground truth (with
        # sigma "auto", a ValueError from pooling no rows), or an empty ranking
        ("value", "manifest", {"dim": 2, "vendors": []}, "manifest.vendors"),
        ("rank", "manifest.vendors", [], "manifest.vendors"),
        # counts of 0: once errors that did not name the key
        ("value", "manifest.dim", 0, "manifest.dim"),
        ("value", "reference", {**_MIXTURE, "total": 0}, "reference.total"),
        ("experiment", "experiment.n", 0, "experiment.n"),
        ("experiment", "experiment.trials", 0, "experiment.trials"),
        # once ignored: the mixture's keys on another kind of reference
        ("value", "reference", {"kind": "uniform", "weights": [0.1]}, "reference.weights"),
        ("value", "reference", {"kind": "uniform", "total": 5}, "reference.total"),
        ("value", "reference", {"kind": "ground_truth", "weights": [7.0]}, "reference.weights"),
        ("value", "reference", {"kind": "ground_truth", "total": 3}, "reference.total"),
        # a misreporter outside [0, n): once caught only when the study ran
        _extra_case("incentive_compat", "misreporter", 9),
        _extra_case("incentive_compat", "misreporter", -1),
    ],
)
def test_malformed_config_is_input_error(
    tmp_path, vendor_files, capsys, command, key, value, named
):
    p = _config(tmp_path, vendor_files, **_EVERY_SECTION)
    cfg = json.loads(p.read_text())
    *path, last = key.split(".")
    obj = cfg
    for part in path:
        obj = obj[int(part)] if part.isdigit() else obj[part]
    obj[last] = value
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last_line = err.strip().splitlines()[-1]
    assert last_line.startswith("error: config: ") and named in last_line


@pytest.mark.parametrize(
    "command, fmt",
    [
        ("value", "json"),
        ("rank", "csv"),
        ("compare", None),
        ("experiment", "json"),
        ("experiment", "csv"),
        ("verify-game", None),
    ],
)
@pytest.mark.parametrize("out", ["missing/r.json", "."])
def test_unwritable_out_is_input_error(tmp_path, vendor_files, capsys, command, fmt, out):
    # once a FileNotFoundError or IsADirectoryError traceback, after the work
    p = _config(tmp_path, vendor_files, **_EVERY_SECTION)
    out = str(tmp_path / out)
    argv = [command, "--config", str(p), "--seed", "1", "--out", out]
    assert main(argv + (["--format", fmt] if fmt else [])) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("command", ["value", "rank", "compare", "experiment", "verify-game"])
def test_negative_seed_is_input_error(tmp_path, vendor_files, capsys, command):
    # once numpy's ValueError traceback
    p = _config(tmp_path, vendor_files, **{**_EVERY_SECTION, "reference": {"kind": "uniform"}})
    assert main([command, "--config", str(p), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(p), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "error: --seed must be an integer >= 0, got -1"


def test_every_section_config_is_valid(tmp_path, vendor_files, capsys):
    p = _config(tmp_path, vendor_files, **_EVERY_SECTION)
    for command in ("value", "rank", "compare", "experiment", "verify-game"):
        assert main([command, "--config", str(p), "--seed", "1"]) == 0, command
        # every command echoes its resolved configuration, as in its report
        captured = capsys.readouterr()
        prefix = "resolved configuration: "
        echoed = [line for line in captured.err.splitlines() if line.startswith(prefix)]
        assert len(echoed) == 1, command
        resolved = json.loads(echoed[0][len(prefix) :])
        assert resolved == json.loads(captured.out)["resolved_config"], command


@pytest.mark.parametrize("flag", ["--eps-bias", "--eps-upsilon"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_compare_rejects_non_finite_policy_flags(tmp_path, vendor_files, capsys, flag, bad):
    cfg = _config(tmp_path, vendor_files, compare={"left": "a", "right": "b"})
    assert main(["compare", "--config", str(cfg), "--eps-bias", "0.1", flag, bad]) == 1
    name = flag[2:].replace("-", "_")
    assert f"error: policy: {name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sigma, message",
    [
        # once a NaN value and a JSON ValueError traceback
        (1.0, "error: kernel: the data's spread overflows float64 at this bandwidth"),
        # once "sigma must be positive and finite, ... got nan"
        ("auto", "error: median_heuristic: the data's spread overflows float64"),
    ],
)
def test_value_with_overflowing_spread_is_an_input_error(tmp_path, capsys, sigma, message):
    rng = np.random.default_rng(2)
    paths = []
    for name in ("a", "b"):
        p = tmp_path / f"{name}.csv"
        write_csv(p, (rng.uniform(-1.0, 1.0, size=(10, 8)) * 3e154).tolist())
        paths.append(p)
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "manifest": {"dim": 8, "vendors": [{"id": p.stem, "path": str(p)} for p in paths]},
                "kernel": {"sigma": sigma},
                "reference": {"kind": "uniform"},
            }
        )
    )
    assert main(["value", "--config", str(cfg), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1].startswith(message)
