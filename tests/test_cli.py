"""Command-line interface: subcommands, files, and exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

import plurikp
from plurikp import config
from plurikp.cells import CellKind, OrientedCell
from plurikp.cli import _build_parser, main
from plurikp.dkp import (
    Branch,
    golden_field,
    ivp_points,
    read_field_file,
    write_field_file,
)

PI2_4 = math.pi**2 / 4.0


def write_golden_seven(path, branch=Branch.DKP):
    cell = OrientedCell(CellKind.BLACK_AMBO4, (0,) * 5, (0, 1, 2, 3, 4))
    required, _ = ivp_points(cell)
    golden = golden_field(cell, branch)
    write_field_file(str(path), {p: golden[p] for p in required}, "qan", 4)


def test_verify_small_run_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "verify", "--lattice", "qan", "--dim", "4", "--trials", "3",
        "--seed", "7", "--out", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    payload = json.loads(report.read_text())
    assert payload["format"] == "plurikp-report/1"
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["seed"] == 7
    assert all(r["passed"] for r in payload["records"])


def test_verify_cubic_exit_zero(tmp_path):
    assert main(["verify", "--lattice", "cubic", "--trials", "2", "--seed", "1"]) == 0


def test_python_dash_m_runs_the_cli_as_a_process(tmp_path):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(plurikp.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "plurikp", "verify", "--lattice", "cubic",
         "--trials", "5", "--seed", "7"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "summary:" in done.stdout


def test_verify_bad_dim_is_config_error(capsys):
    assert main(["verify", "--dim", "2"]) == 2


def test_verify_zero_tolerance_fails_with_exit_one(tmp_path):
    code = main([
        "verify", "--trials", "2", "--seed", "1", "--tol.gradient=0",
    ])
    assert code == 1


def test_verify_unknown_tolerance_is_config_error():
    assert main(["verify", "--trials", "2", "--tol.bogus=1"]) == 2


@pytest.mark.parametrize(
    "override",
    [
        ["--tol", "classify=0.9"],
        ["--tol.system_rel=5"],
        ["--tol", "neither_floor=100"],
        ["--tol", "solver_rel=0"],
    ],
)
def test_verify_refuses_fixed_thresholds(override, capsys):
    # No record reads them, so an override would change nothing.
    assert main(["verify", "--trials", "2", "--seed", "7", *override]) == 2
    assert "fixed thresholds" in capsys.readouterr().err


def test_main_leaves_no_state_behind(tmp_path, capsys):
    # A refused call between two equal calls changes neither their output
    # nor their report.
    def run(name):
        report = tmp_path / name
        argv = ["verify", "--trials", "2", "--seed", "7", "--out", str(report)]
        assert main(argv) == 0
        return capsys.readouterr().out, report.read_bytes()

    first = run("first.json")
    assert main(["verify", "--tol", "classify=0.9"]) == 2
    capsys.readouterr()
    assert run("second.json") == first


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_tolerance_override_does_not_leak_into_the_next_call(tmp_path, capsys):
    # The cached parser's `append` default must start empty on every call.
    def run(name, *extra):
        report = tmp_path / name
        argv = ["verify", "--trials", "2", "--seed", "7", "--out", str(report)]
        assert main([*argv, *extra]) == 0
        capsys.readouterr()
        return report.read_bytes()

    _build_parser.cache_clear()
    fresh = run("fresh.json")
    run("override.json", "--tol", "gradient=1e-3")
    assert run("after.json") == fresh
    assert json.loads(fresh)["config"]["tolerances"] == {}


@pytest.mark.parametrize(
    "between, code",
    [(["verify", "--dim", "x"], 2), (["--help"], 0), (["solve", "--help"], 0)],
)
def test_parser_exit_between_solves_leaves_no_state(tmp_path, capsys, between, code):
    # argparse ends these through SystemExit, part way through a parse.
    source = tmp_path / "seven.json"
    write_golden_seven(source)

    def run(name):
        target = tmp_path / name
        assert main(["solve", "ambo-black", str(source), str(target)]) == 0
        out = capsys.readouterr().out.replace(str(target), "TARGET")
        return out, target.read_bytes()

    first = run("first.json")
    assert main(between) == code
    capsys.readouterr()
    assert run("second.json") == first


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_failed_write_leaves_no_temporary_file(tmp_path, command):
    # The target is a directory, so the final replace fails.
    source = tmp_path / "seven.json"
    write_golden_seven(source)
    target = tmp_path / "outdir"
    target.mkdir()
    argv = {
        "solve": ["solve", "ambo-black", str(source), str(target)],
        "verify": ["verify", "--trials", "2", "--out", str(target)],
    }[command]
    assert main(argv) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "seven.json"]


@pytest.mark.parametrize(
    "override",
    [
        ["--tol", "classify=abc"],
        ["--tol.classify=abc"],
        ["--tol", "classify"],
        ["--tol.gradient=inf"],
        ["--tol", "gradient=nan"],
        ["--tol.gradient=-1e-6"],
    ],
)
def test_verify_malformed_tolerance_is_config_error(override):
    assert main(["verify", "--trials", "2", *override]) == 2


def test_solve_golden_black(tmp_path, capsys):
    source = tmp_path / "seven.json"
    target = tmp_path / "full.json"
    write_golden_seven(source)
    code = main(["solve", "ambo-black", str(source), str(target)])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch: dkp" in out
    field, lattice, dim = read_field_file(str(target))
    assert (lattice, dim) == ("qan", 4)
    assert len(field) == 10


def test_solve_round_trip_identical(tmp_path):
    source = tmp_path / "seven.json"
    target = tmp_path / "full.json"
    second = tmp_path / "again.json"
    write_golden_seven(source)
    main(["solve", "ambo-black", str(source), str(target)])
    field, lattice, dim = read_field_file(str(target))
    write_field_file(str(second), field, lattice, dim)
    assert read_field_file(str(second))[0] == field


def test_solve_inverse_branch(tmp_path, capsys):
    source = tmp_path / "seven.json"
    target = tmp_path / "full.json"
    write_golden_seven(source, Branch.DKP_MINUS)
    code = main([
        "solve", "ambo-black", str(source), str(target), "--branch", "dkp-minus",
    ])
    assert code == 0
    assert "branch: dkp-minus" in capsys.readouterr().out


def test_solve_cube(tmp_path, capsys):
    cell = OrientedCell(CellKind.CUBE4, (0,) * 4, (0, 1, 2, 3))
    required, _ = ivp_points(cell)
    golden = golden_field(cell)
    source = tmp_path / "nine.json"
    write_field_file(str(source), {p: golden[p] for p in required}, "cubic", 4)
    code = main(["solve", "cube4", str(source), str(tmp_path / "full.json")])
    assert code == 0
    assert "branch: dkp" in capsys.readouterr().out


def test_solve_zero_value_is_singular_exit(tmp_path):
    source = tmp_path / "seven.json"
    write_golden_seven(source)
    payload = json.loads(source.read_text())
    key = sorted(payload["values"])[0]
    payload["values"][key] = 0.0
    source.write_text(json.dumps(payload))
    assert main(["solve", "ambo-black", str(source), str(tmp_path / "o.json")]) == 3


@pytest.mark.parametrize(
    "case", ["duplicate", "non-canonical", "non-finite", "string", "boolean"]
)
def test_solve_rejects_ambiguous_field_file_with_usage_exit(tmp_path, case):
    source = tmp_path / "seven.json"
    write_golden_seven(source)
    payload = json.loads(source.read_text())
    key = sorted(payload["values"])[0]
    if case in ("non-finite", "string", "boolean"):
        value = payload["values"][key]
        payload["values"][key] = {
            "non-finite": math.nan, "string": repr(value), "boolean": True
        }[case]
        text = json.dumps(payload)
    else:
        # A second value for the first point, spelled the same or with a space.
        extra = key if case == "duplicate" else key.replace(",", ", ", 1)
        text = json.dumps(payload).replace(
            '"values": {', f'"values": {{"{extra}": 2.5, ', 1
        )
    source.write_text(text)
    assert main(["solve", "ambo-black", str(source), str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("dim", [4.5, "4", True, 11, 12])
def test_solve_rejects_dim_outside_range_with_usage_exit(tmp_path, dim):
    source = tmp_path / "seven.json"
    # Points carry dim + 1 coordinates, so only the dim itself is wrong; the
    # file is written by hand, since write_field_file refuses such a dim.
    size = dim if type(dim) is int else 4
    cell = OrientedCell(CellKind.BLACK_AMBO4, (0,) * (size + 1), (0, 1, 2, 3, 4))
    required, _ = ivp_points(cell)
    golden = golden_field(cell)
    values = {",".join(map(str, p)): golden[p] for p in required}
    payload = {
        "format": "plurikp-field/1", "lattice": "qan", "dim": dim, "values": values
    }
    source.write_text(json.dumps(payload))
    assert main(["solve", "ambo-black", str(source), str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize(
    "kind, lattice, point",
    [("cube4", "cubic", (0, 0, 1)), ("ambo-black", "qan", (0, 0, 1, 1))],
)
def test_solve_dim_three_is_config_exit(tmp_path, kind, lattice, point):
    source = tmp_path / "small.json"
    write_field_file(str(source), {point: 1.0}, lattice, 3)
    assert main(["solve", kind, str(source), str(tmp_path / "o.json")]) == 2


def test_solve_missing_file_is_io_exit(tmp_path):
    assert main(["solve", "ambo-black", str(tmp_path / "no.json"), "x.json"]) == 4


def test_solve_wrong_lattice_is_config_exit(tmp_path):
    cell = OrientedCell(CellKind.CUBE4, (0,) * 4, (0, 1, 2, 3))
    required, _ = ivp_points(cell)
    golden = golden_field(cell)
    source = tmp_path / "nine.json"
    write_field_file(str(source), {p: golden[p] for p in required}, "cubic", 4)
    assert main(["solve", "ambo-black", str(source), "x.json"]) == 2


def test_decompose_standard_star(tmp_path, capsys):
    out = tmp_path / "corners.txt"
    code = main(["decompose", "--standard", "qa3", "--dim", "3", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "residual chain: empty" in printed
    assert out.read_text().count("@corner") >= 14


def test_decompose_cubic_star(capsys):
    assert main(["decompose", "--standard", "z3", "--dim", "3"]) == 0
    assert "residual chain: empty" in capsys.readouterr().out


@pytest.mark.parametrize("standard", ["qa3", "z3"])
@pytest.mark.parametrize("dim", ["50", "11", "2", "-5"])
def test_decompose_standard_dim_outside_range_is_config_exit(standard, dim):
    assert main(["decompose", "--standard", standard, "--dim", dim]) == 2


def test_decompose_from_file(tmp_path, capsys):
    from plurikp.cells import format_chain, qan_point_flower

    chain_file = tmp_path / "flower.chain"
    star = qan_point_flower((0, 0, 0, 0), (0, 1, 2, 3))
    chain_file.write_text(format_chain(star) + "\n")
    code = main([
        "decompose", str(chain_file), "--vertex", "(0,0,0,0)",
    ])
    assert code == 0
    assert "residual chain: empty" in capsys.readouterr().out


def test_decompose_malformed_file(tmp_path):
    chain_file = tmp_path / "bad.chain"
    chain_file.write_text("1 nonsense\n")
    assert main(["decompose", str(chain_file), "--vertex", "(0,0,0,0)"]) == 2


@pytest.mark.parametrize(
    "command, data",
    [
        ("solve", b'{"format": "plurikp-field/1", "values": {"\xff": 1.0}}'),
        ("solve", b"[" * 200_000 + b"]" * 200_000),
        ("decompose", b"1 +oct[0 1 2 3]@(0,0,0,0,0)\n\xff\n"),
    ],
    ids=["field-not-utf8", "field-nested-too-deep", "chain-not-utf8"],
)
def test_unreadable_input_file_is_usage_exit(tmp_path, capsys, command, data):
    source = tmp_path / "input"
    source.write_bytes(data)
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", "ambo-black", str(source), str(out)]
    else:
        argv = ["decompose", str(source), "--vertex", "(0,0,0,0,0)", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input"]


def test_decompose_needs_vertex_with_file(tmp_path):
    chain_file = tmp_path / "flower.chain"
    chain_file.write_text("")
    assert main(["decompose", str(chain_file)]) == 2


def test_decompose_standard_defaults_to_the_default_dim(capsys):
    assert main(["decompose", "--standard", "qa3"]) == 0
    default = capsys.readouterr().out
    dim = str(config.DEFAULT_DIM)
    assert main(["decompose", "--standard", "qa3", "--dim", dim]) == 0
    assert capsys.readouterr().out == default


def test_decompose_refuses_a_vertex_with_standard(capsys):
    code = main(["decompose", "--standard", "qa3", "--dim", "4", "--vertex", "(9,9)"])
    assert code == 2
    assert "--vertex" in capsys.readouterr().err


def test_decompose_refuses_a_dim_with_a_flower_file(tmp_path, capsys):
    from plurikp.cells import format_chain, qan_point_flower

    chain_file = tmp_path / "flower.chain"
    chain_file.write_text(format_chain(qan_point_flower((0,) * 4, range(4))) + "\n")
    code = main(["decompose", str(chain_file), "--vertex", "(0,0,0,0)", "--dim", "3"])
    assert code == 2
    assert "--dim" in capsys.readouterr().err


def test_dilog_test_prints_table(capsys):
    assert main(["dilog-test"]) == 0
    out = capsys.readouterr().out
    assert "Li2(a^2)" in out
    assert "max deviation" in out


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 2
