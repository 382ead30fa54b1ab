import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operlax
from operlax import ConfigError, cli, gerstenhaber_bracket, make_operation, operation_from_dict
from operlax.cli import build_config, load_config, main
from operlax.evolution import CSV_HEADER


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SIM_ARGS = ["simulate", "--omega", "1", "--q0", "0", "--p0", "1",
            "--c", "0,0,0,0,1,0,0,0", "--dt", "1e-3", "--t-end", "2"]


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(SIM_ARGS + ["--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2002
    assert "max_err_mu_max=" in stdout and "max_energy_drift=" in stdout


def test_simulate_writes_the_csv_lines_of_its_trajectory(tmp_path, capsys, monkeypatch):
    # the CLI reads the chunk writer from the package when it runs
    seen = []
    writer = operlax.trajectory_csv_chunks
    monkeypatch.setattr(operlax, "trajectory_csv_chunks", lambda traj: seen.append(traj)
                        or writer(traj))
    out = tmp_path / "traj.csv"
    assert run(SIM_ARGS + ["--out", str(out)], capsys)[0] == 0
    traj, = seen
    assert len(traj) == 2001
    assert out.read_bytes() == ("\n".join(operlax.trajectory_csv_lines(traj)) + "\n").encode()


def test_simulate_missing_omega_is_usage_error(tmp_path, capsys):
    argv = ["simulate", "--q0", "0", "--p0", "1", "--out", str(tmp_path / "x.csv")]
    code, _, stderr = run(argv, capsys)
    assert code == 2
    assert "usage:" in stderr and "omega" in stderr


def test_simulate_degenerate_energy(tmp_path, capsys):
    argv = ["simulate", "--omega", "1", "--q0", "0", "--p0", "0",
            "--out", str(tmp_path / "x.csv")]
    code, _, stderr = run(argv, capsys)
    assert code == 2
    assert "degenerate energy" in stderr


def test_simulate_bad_flag_value(capsys):
    code, _, stderr = run(["simulate", "--omega", "1", "--q0", "0", "--p0", "1",
                           "--dt", "-0.1", "--out", "x.csv"], capsys)
    assert code == 2
    assert "dt" in stderr


def test_simulate_unwritable_path(capsys):
    code, _, stderr = run(SIM_ARGS + ["--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 1
    assert "error" in stderr


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frequency", "1"])
    assert exc.value.code == 2


def test_parser_built_once_gives_what_a_first_call_gives(tmp_path, capsys):
    # main reuses one parser per process: no call may leave a trace in it
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps({"dim": 2, "arity": 1, "coeffs": [0.0, 1.0, 0.0, 0.0]}))

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = [["simulate", "--frequency", "1"], ["verify", "operad", "--trials", "-1"],
             ["bracket", str(fp), str(fp)], ["--help"], ["--help"], ["verify", "--help"],
             ["simulate", "--frequency", "1"], ["bracket", str(fp), str(fp)]]
    first = []
    for argv in calls:
        cli._build_parser.cache_clear()
        first.append(call(argv))
    assert [code for code, _, _ in first] == [2, 2, 0, 0, 0, 0, 2, 0]
    cli._build_parser.cache_clear()
    assert [call(argv) for argv in calls] == first
    assert cli._build_parser.cache_info().misses == 1


def test_simulate_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(SIM_ARGS + ["--out", str(a)], capsys)[0] == 0
    assert run(SIM_ARGS + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_operad_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(["verify", "operad", "--trials", "40", "--seed", "42",
                      "--tol", "1e-10", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "verify-operad"
    assert report["seed"] == 42
    assert report["overall_pass"] is True
    assert report["wall_time_seconds"] >= 0.0
    names = [c["law"] for c in report["checks"]]
    assert names == sorted(names)
    assert {"antisymmetry", "composition-relations", "graded-jacobi", "unit-laws"} == set(names)
    for c in report["checks"]:
        assert set(c) == {"law", "trials", "max_abs_residual", "pass", "seed"}


def test_verify_identities_stdout(capsys):
    code, stdout, _ = run(["verify", "identities", "--trials", "100", "--seed", "1",
                           "--tol", "1e-12"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["overall_pass"] is True
    assert len(report["checks"]) == 6


def test_verify_theorem_small(capsys):
    code, stdout, _ = run(["verify", "theorem", "--trials", "1", "--seed", "7",
                           "--tol", "1e-6", "--t-end", "5"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["overall_pass"] is True
    assert len(report["checks"]) == 4


def test_verify_theorem_coarse_dt_is_usage_error(capsys):
    code, _, stderr = run(["verify", "theorem", "--trials", "1", "--dt", "0.07"], capsys)
    assert code == 2
    assert "usage:" in stderr and "dt" in stderr


def test_pde_check(capsys):
    code, stdout, _ = run(["pde-check", "--trials", "20", "--seed", "3"], capsys)
    assert code == 0
    report = json.loads(stdout)
    names = [c["law"] for c in report["checks"]]
    assert names == ["pde-residual", "pde-residual-halving"]


def test_failed_check_exits_1_but_writes_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(["verify", "identities", "--trials", "50", "--seed", "1",
                      "--tol", "1e-300", "--out", str(out)], capsys)
    assert code == 1
    report = json.loads(out.read_text())
    assert report["overall_pass"] is False


def test_verify_report_determinism(tmp_path, capsys):
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run(["verify", "operad", "--trials", "20", "--seed", "9", "--out", str(out)], capsys)
        obj = json.loads(out.read_text())
        obj.pop("wall_time_seconds")
        reports.append(json.dumps(obj, sort_keys=True))
    assert reports[0] == reports[1]


def _in_repr_band(x):
    # where orjson spells a double as json.dumps (repr) does: the report writer's fast path
    return x is None or abs(x) < 1e-9 or 1e-4 <= abs(x) < 1e16


# just inside and just outside each edge of that band
_BAND_EDGES = [math.nextafter(1e-9, 0.0), 1e-9, 1e-4, math.nextafter(1e-4, 0.0),
               math.nextafter(1e16, 0.0), 1e16]


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("residuals, wall", [
    *(([x], 0.5) for x in _BAND_EDGES),
    *(([0.25, 3e-17], x) for x in _BAND_EDGES),
    ([math.nan, 0.0], 0.5),  # a NaN residual is written as null
    ([-0.0], 0.5),
    ([2.27e-9, math.inf], 0.5),  # pde-check's residuals lie outside the band
    ([], 0.5),
    ([], 1e-5),
])
def test_verify_report_is_json_dumps_bytes(residuals, wall, seed, tmp_path, capsys,
                                           monkeypatch):
    import orjson

    reports = [operlax.LawReport(f"law-{k}", 3, r, True, k) for k, r in enumerate(residuals)]
    monkeypatch.setattr(operlax, "operad_law_suite", lambda trials, seed, tol: reports)
    clock = iter((0.0, wall))
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    dumps, fast = orjson.dumps, []
    monkeypatch.setattr(orjson, "dumps", lambda *a, **k: fast.append(1) or dumps(*a, **k))
    out = tmp_path / "report.json"
    assert run(["verify", "operad", "--seed", str(seed), "--out", str(out)], capsys)[0] == 0
    obj = {"suite": "verify-operad", "seed": seed, "checks": [r.to_dict() for r in reports],
           "overall_pass": True, "wall_time_seconds": wall}
    assert out.read_text() == json.dumps(obj, indent=2) + "\n"
    floats = [wall, *(c["max_abs_residual"] for c in obj["checks"])]
    assert bool(fast) == all(map(_in_repr_band, floats))


@pytest.mark.parametrize("seed", [0, 7, 101])
def test_theorem_report_at_benchmark_size_is_json_dumps_bytes(seed, tmp_path, capsys,
                                                              monkeypatch):
    import orjson

    dumps, fast = orjson.dumps, []
    monkeypatch.setattr(orjson, "dumps", lambda *a, **k: fast.append(1) or dumps(*a, **k))
    out = tmp_path / "theorem.json"
    argv = ["verify", "theorem", "--trials", "20", "--dt", "1e-3", "--t-end", "2",
            "--tol", "1e-6", "--seed", str(seed)]
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    # every residual is ~5e-11 or less and the run takes milliseconds: orjson wrote it
    assert fast == [1]
    stdout = run(argv, capsys)[1]
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "mode": "simulate", "omega": 1, "q0": 0, "p0": 1,
        "dt": 0.001, "t_end": 20, "c": [0, 0, 0, 0, 1, 0, 0, 0],
    }))
    cfg = load_config(str(path))
    assert cfg.mode == "simulate"
    assert cfg.dt == 0.001
    assert cfg.c == (0, 0, 0, 0, 1, 0, 0, 0)


def test_config_file_validation_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "simulate", "omega": 1, "q0": 0, "p0": 1,
                                "dt": -0.1, "out": "x.csv"}))
    with pytest.raises(ConfigError, match="dt"):
        load_config(str(path))


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mode": "simulate", "omega": 1, "q0": 0, "p0": 1,
                                "dt": 1e-3, "out": "x.csv"}))
    cfg = build_config("simulate", {"dt": 5e-4}, json.loads(path.read_text()))
    assert cfg.dt == 5e-4


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"mode": "simulate", "omgea": 1}))
    with pytest.raises(ConfigError, match="omgea"):
        load_config(str(path))


@pytest.mark.parametrize("field, value", [
    ("trials", True), ("tol", True), ("seed", False), ("record_every", True), ("dt", True),
    ("t_end", False), ("omega", True), ("q0", False), ("p0", True), ("out", True),
    ("mode", True), ("c", True), ("c", [0, 0, 0, 0, True, 0, 0, 0]),
])
def test_config_rejects_json_booleans(tmp_path, capsys, field, value):
    # bool is an int subclass, so each would otherwise be read as the number 1 or 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mode": "simulate", "omega": 1, "q0": 0, "p0": 1, "t_end": 1,
                                "out": str(tmp_path / "x.csv"), field: value}))
    with pytest.raises(ConfigError, match=f"{field}: JSON booleans are not numbers"):
        load_config(str(path))
    code, _, stderr = run(["simulate", "--config", str(path)], capsys)
    assert code == 2 and f"{field}: JSON booleans" in stderr


@pytest.mark.parametrize("field", ["omega", "q0", "p0", "dt", "t_end", "record_every", "trials",
                                   "tol", "seed"])
def test_build_config_refuses_a_bool_for_a_number(field):
    # the config file refuses JSON booleans; a flag value handed over directly is held to
    # the same rules as the library's, where a bool is not a number
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        build_config("verify-theorem", {field: True}, {})


def test_verify_config_with_booleans_is_usage_error(tmp_path, capsys):
    # read as numbers, this config would run 1 trial at tolerance 1.0 and exit 0
    path = tmp_path / "run.json"
    path.write_text('{"mode": "verify-operad", "trials": true, "tol": true, "seed": false}')
    code, stdout, stderr = run(["verify", "operad", "--config", str(path)], capsys)
    assert code == 2 and stdout == "" and "usage:" in stderr


@pytest.mark.parametrize("mode, code", [("simulate", 2), ("verify-identities", 2),
                                        ("verify-operad", 0)])
def test_config_file_mode_must_be_the_command(mode, code, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mode": mode, "trials": 2}))
    got, stdout, stderr = run(["verify", "operad", "--config", str(path)], capsys)
    assert got == code
    assert (stdout == "" and f"mode: the config file's {mode!r} is not 'verify-operad'" in stderr
            if code else json.loads(stdout)["checks"][0]["trials"] == 2)


# (command, its mode, a flag of a field the mode does not read, that field in a config
# file); theorem, pde-check and simulate read every flag of their subcommand, so their
# flag is one that argparse does not know
_UNREAD = [
    (["verify", "operad", "--trials", "3"], "verify-operad", ["--dt", "0.5", "--t-end", "1e-9"],
     {"dt": 0.5}),
    (["verify", "identities", "--trials", "3"], "verify-identities", ["--dt", "7"],
     {"t_end": 1.0}),
    (["verify", "theorem", "--trials", "1", "--t-end", "0.1"], "verify-theorem",
     ["--record-every", "2"], {"record_every": 2}),
    (["pde-check", "--trials", "3"], "pde-check", ["--omega", "1"], {"omega": 1}),
    (SIM_ARGS, "simulate", ["--seed", "5"], {"seed": 5}),
]


@pytest.mark.parametrize("command, mode, flag, key", _UNREAD, ids=[row[1] for row in _UNREAD])
def test_field_the_mode_does_not_read_is_usage_error(command, mode, flag, key, tmp_path,
                                                      capsys):
    argv = command + ["--out", str(tmp_path / "out")]
    assert run(argv, capsys)[0] == 0  # the command alone runs
    if mode in ("verify-operad", "verify-identities"):
        code, _, stderr = run(argv + flag, capsys)
        assert code == 2 and f"dt: {mode} does not take it" in stderr
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    (name, _), = key.items()
    (tmp_path / "run.json").write_text(json.dumps({"mode": mode, **key}))
    code, _, stderr = run(argv + ["--config", str(tmp_path / "run.json")], capsys)
    assert code == 2 and f"{name}: {mode} does not take it" in stderr
    with pytest.raises(ConfigError, match=f"^{name}: {mode} does not take it$"):
        load_config(tmp_path / "run.json")


def test_simulate_with_config_file(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"omega": 1, "q0": 0, "p0": 1, "dt": 1e-3,
                                "t_end": 1, "c": [0, 0, 0, 0, 1, 0, 0, 0]}))
    code, _, _ = run(["simulate", "--config", str(path), "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_bracket_command(tmp_path, capsys):
    f = make_operation(2, 1, [0.0, 1.0, 0.0, 0.0])
    g = make_operation(2, 1, [0.0, 0.0, 1.0, 0.0])
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps({"dim": 2, "arity": 1, "coeffs": [0.0, 1.0, 0.0, 0.0]}))
    gp.write_text(json.dumps({"dim": 2, "arity": 1, "coeffs": [0.0, 0.0, 1.0, 0.0]}))
    out = tmp_path / "out.json"
    code, _, _ = run(["bracket", str(fp), str(gp), "--out", str(out)], capsys)
    assert code == 0
    result = operation_from_dict(json.loads(out.read_text()))
    expected = gerstenhaber_bracket(f, g)
    np.testing.assert_array_equal(result.coeffs, expected.coeffs)


def test_bracket_missing_file(tmp_path, capsys):
    code, _, stderr = run(["bracket", str(tmp_path / "no.json"), str(tmp_path / "no2.json")],
                          capsys)
    assert code == 2
    assert "no.json" in stderr


def test_bracket_dim_mismatch(tmp_path, capsys):
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps({"dim": 2, "arity": 1, "coeffs": [1.0, 0.0, 0.0, 1.0]}))
    gp.write_text(json.dumps({"dim": 3, "arity": 1, "coeffs": [0.0] * 9}))
    code, _, _ = run(["bracket", str(fp), str(gp)], capsys)
    assert code == 2


def test_bracket_operation_of_huge_arity_is_usage_error(tmp_path, capsys):
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps({"dim": 2, "arity": 10 ** 5, "coeffs": [1.0, 2.0, 3.0, 4.0]}))
    code, _, stderr = run(["bracket", str(fp), str(fp)], capsys)
    assert code == 2
    assert stderr.splitlines()[-1] == ("operlax: error: need dim**(arity+1) coefficients for "
                                       "dim=2, arity=100000, got 4")


@pytest.mark.parametrize("obj", [{"dim": [1], "arity": 1, "coeffs": [1.0]},
                                 {"dim": 1, "arity": 1, "coeffs": {"a": 1.0}},
                                 {"dim": 1e400, "arity": 1, "coeffs": [1.0]}, [1.0],
                                 {"dim": 2.7, "arity": 1, "coeffs": [1.0, 0.0, 0.0, 1.0]},
                                 {"dim": True, "arity": 1, "coeffs": [1.0]},
                                 # a bool, a string or a nested list is no coefficient
                                 {"dim": 1, "arity": 1, "coeffs": [True]},
                                 {"dim": 1, "arity": 1, "coeffs": ["1"]},
                                 {"dim": 1, "arity": 1, "coeffs": "1"},
                                 {"dim": 1, "arity": 1, "coeffs": [[1.0]]}])
def test_bracket_malformed_operation_is_usage_error(obj, tmp_path, capsys):
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps(obj))
    gp.write_text(json.dumps({"dim": 1, "arity": 1, "coeffs": [1.0]}))
    code, _, stderr = run(["bracket", str(fp), str(gp)], capsys)
    assert code == 2
    assert "operation object" in stderr


def run_subprocess(argv, tmp_path):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "operlax.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


def test_bracket_overflow_writes_no_numpy_warning(tmp_path):
    # finite coefficients whose composites overflow: the finite check's error alone
    (tmp_path / "big.json").write_text(json.dumps({"dim": 2, "arity": 2, "coeffs": [1e200] * 8}))
    code, stderr = run_subprocess(["bracket", "big.json", "big.json"], tmp_path)
    assert code == 2
    usage, error = stderr.splitlines()
    assert usage.startswith("usage: operlax")
    assert error == "operlax: error: coefficients must all be finite"
    assert "Warning" not in stderr


def test_simulate_coarse_step_exits_0(tmp_path):
    # the coarsest dt IntegratorConfig accepts at omega = 1; its phase error
    # over t_end = 20 is far above 1e-6
    code, stderr = run_subprocess(["simulate", "--omega", "1", "--q0", "0", "--p0", "1",
                                   "--c", "0,0,0,0,1,0,0,0", "--dt", "0.1", "--t-end", "20",
                                   "--out", "coarse.csv"], tmp_path)
    assert code == 0, stderr
    assert "Traceback" not in stderr
    assert len((tmp_path / "coarse.csv").read_text().splitlines()) == 202


def test_verify_theorem_coarse_step_no_traceback(tmp_path):
    code, stderr = run_subprocess(["verify", "theorem", "--trials", "2", "--dt", "0.05",
                                   "--out", "theorem.json"], tmp_path)
    assert code in (0, 1), stderr
    assert "Traceback" not in stderr
    assert len(json.loads((tmp_path / "theorem.json").read_text())["checks"]) == 8


def test_simulate_energy_overflow_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(["simulate", "--omega", "1", "--q0", "0", "--p0", "1e160",
                           "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "overflows" in stderr


@pytest.mark.parametrize("flags, error", [
    (["--q0", "1.3407807929942596e154", "--p0", "0", "--t-end", "7"],
     "energy of (q, p) = (1.3407807929942596e+154, 0.0) overflows"),
    (["--q0", "1", "--p0", "1", "--t-end", "1", "--c", ",".join(["1e308"] * 8)],
     "params C1..C8 overflow the family at the initial state"),
], ids=["energy-turns-past-the-doubles", "family-overflows-at-t0"])
def test_simulate_overflow_is_one_quiet_usage_error(flags, error, tmp_path):
    # the run's own overflow names its input, and numpy writes nothing to stderr
    code, stderr = run_subprocess(["simulate", "--omega", "1", *flags, "--out", "x.csv"], tmp_path)
    assert code == 2
    usage, line = stderr.splitlines()
    assert usage.startswith("usage: operlax") and line == f"operlax: error: {error}"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, config", [
    (["verify", "theorem", "--trials", "1", "--t-end", "1e308"], None),
    (["verify", "operad", "--trials", "1"], b'{"out": ["a"]}'),
    (SIM_ARGS[:7] + ["--out", "x.csv"], b'{"c": 5}'),
    (SIM_ARGS[:7] + ["--t-end", "1e300", "--out", "x.csv"], None),
    (["verify", "operad", "--trials", "1"], b'\xff\xfe{"seed": 1}'),
    (["verify", "theorem", "--trials", "1", "--t-end", "1e300"], None),
    (SIM_ARGS[:7] + ["--seed", "5", "--out", "x.csv"], None),
], ids=["t-end-overflow", "out-not-a-path", "c-not-a-list", "t-end-huge", "config-not-utf8",
        "theorem-steps-above-2**53", "simulate-draws-nothing-to-seed"])
def test_rejected_input_is_usage_error(argv, config, tmp_path):
    if config is not None:
        (tmp_path / "run.json").write_bytes(config)
        argv = argv + ["--config", "run.json"]
    code, stderr = run_subprocess(argv, tmp_path)
    assert code == 2, stderr
    assert "Traceback" not in stderr and "usage:" in stderr


@pytest.mark.parametrize("command, config", [
    (["verify", "theorem", "--trials", "1"], {"t_end": 2 ** 1100}),
    (["simulate", "--out", "x.csv"], {"omega": 2 ** 1100, "q0": 0, "p0": 1}),
    (["simulate", "--out", "x.csv"], {"omega": 1, "q0": 2 ** 1100, "p0": 1}),
    (["simulate", "--out", "x.csv"], {"omega": 1, "q0": 0, "p0": 1, "c": [2 ** 1100] + [0] * 7}),
], ids=["theorem-t_end", "simulate-omega", "simulate-q0", "simulate-c"])
def test_config_int_past_the_doubles_is_usage_error(command, config, tmp_path):
    # JSON ints have no size limit: float() of one past the largest double raises
    # OverflowError, which is not a ValueError
    (tmp_path / "big.json").write_text(json.dumps(config))
    code, stderr = run_subprocess(command + ["--config", "big.json"], tmp_path)
    assert code == 2, stderr
    assert "Traceback" not in stderr and "usage:" in stderr


def test_simulate_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def no_memory(config):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(operlax, "evolve", no_memory)
    code, _, stderr = run(SIM_ARGS + ["--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert stderr == "operlax: error: Unable to allocate 7.28 TiB\n"


@pytest.mark.parametrize("command, suite", [
    (["verify", "operad"], "operad_law_suite"), (["verify", "theorem"], "theorem_suite"),
    (["verify", "identities"], "proof_identity_suite"), (["pde-check"], "pde_suite"),
])
def test_each_mode_calls_its_suite_by_name_at_call_time(command, suite, capsys, monkeypatch):
    # a tracer patches the module attribute: the mode must call the patched one
    calls = []
    monkeypatch.setattr(operlax, suite, lambda *args, **kwargs: calls.append((args, kwargs)) or [])
    code, stdout, _ = run(command + ["--trials", "3", "--seed", "5", "--tol", "0.5"], capsys)
    assert code == 0 and json.loads(stdout)["suite"] == "-".join(command)
    assert [args for args, _ in calls] == [(3, 5, 0.5)]


# The smallest positive number, 0.2, caps an accepted dt at 0.1/0.2 = 0.5, so
# t_end = 1e308 always overflows t_end/dt and every other t_end is at most 3:
# an accepted config runs at most 3000 steps (at the default dt 1e-3).  A huge
# whole trial count is a valid request, so trials never draws 1e308.
_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1.0, 0.0, 0.2, 0.5, -1, 0, 1, 3]


def _json_values(numbers):
    atoms = st.one_of(st.none(), st.booleans(), st.sampled_from(numbers),
                      st.sampled_from(["", ".", "x", "1,2,3,4,5,6,7,8", "nan"]))
    return st.one_of(atoms, st.lists(st.sampled_from(numbers), min_size=8, max_size=8),
                     st.lists(atoms, max_size=3),
                     st.dictionaries(st.sampled_from(["a", "dim"]), atoms, max_size=2))


# a key left out takes its default, like a null one
_CONFIGS = st.fixed_dictionaries({}, optional={
    key: _json_values([x for x in _NUMBERS if key != "trials" or x != 1e308])
    for key in ("mode",) + cli._FIELDS
})
_COMMANDS = st.sampled_from([["simulate"], ["verify", "operad"], ["verify", "theorem"],
                             ["verify", "identities"], ["pde-check"]])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_COMMANDS, _CONFIGS)
def test_config_fuzz_exits_0_1_or_2(command, config):
    # null keys fall back to the defaults; shrink those sizes to keep every run small
    small = {"trials": 2, "t_end": 1.0}
    modes = {mode: (command, name, {k: small.get(k, v) for k, v in d.items()})
             for mode, (command, name, d) in cli._MODES.items()}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_MODES", modes)
        mp.chdir(tmp)
        Path("run.json").write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + ["--config", "run.json"])
    assert code in (0, 1, 2), err.getvalue()


# Flag values: NaN, infinities, zeros, negatives and 1e300 beside valid ones.
# Accepted runs stay small: a positive t_end is at most 3 (3000 steps at the
# default dt 1e-3; a larger accepted dt only shortens the run) or 1e300, whose
# t_end/dt is above 2**53 for every dt a finite omega accepts, and a positive
# integer is at most 3, so a theorem run has at most 3 trials.
# Half the draws come from the valid list, so that some runs are accepted.
_FLAG_NUMBERS = (st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e300"])
                 | st.sampled_from(["1e-3", "0.5", "2", "3"]))
_FLAG_C = st.sampled_from(["0,0,0,0,1,0,0,0", "1e300,0,0,0,0,0,0,-1e300", "nan,0,0,0,0,0,0,0",
                           "1,2", "x"])
# (command, flags drawn or left out, flags always drawn: simulate's state, and
# the sizes whose defaults are large)
_FLAG_COMMANDS = [
    (["simulate", "--out=traj.csv"], ["--c", "--dt", "--record-every"],
     ["--omega", "--q0", "--p0", "--t-end"]),
    (["verify", "theorem", "--out=report.json"], ["--dt", "--tol", "--seed"],
     ["--t-end", "--trials"]),
    (["pde-check", "--out=report.json"], ["--tol", "--seed"], ["--trials"]),
]


@st.composite
def _flag_argv(draw):
    argv, optional, required = draw(st.sampled_from(_FLAG_COMMANDS))
    for flag in optional + required:
        if flag in required or draw(st.booleans()):
            value = draw(_FLAG_C if flag == "--c" else _FLAG_NUMBERS)
            argv = argv + [f"{flag}={value}"]  # "=" keeps "-inf" a value, not a flag
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_flag_argv())
def test_flag_fuzz_exits_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a malformed value this way
                code = exc.code
    assert code in (0, 1, 2), err.getvalue()


ROOT = Path(__file__).resolve().parents[1]


def _digest_script():
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  ROOT / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_config_acceptance_digest_is_the_stored_line(tmp_path):
    # what load_config makes of the digest script's grid of config files depends on
    # config parsing alone, not on libm, so its line holds on any host
    digests = _digest_script()
    line = f"{hashlib.sha256(digests._config_outcomes(ROOT, str(tmp_path))).hexdigest()}  " \
           "config-acceptance"
    assert line in (ROOT / "REPORT_DIGESTS.txt").read_text().splitlines()


def _in_process(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) in (0, 1)  # 1: a failed check, still written


def test_report_and_csv_digests_are_the_stored_lines(tmp_path):
    # the reports and CSVs read libm's, numpy's and BLAS's bits, so they are pinned only
    # on a host whose primitives fingerprint as the stored line's do
    script = _digest_script()
    stored = script.read_lines(ROOT / "REPORT_DIGESTS.txt")
    differ = script.differing_primitives(stored["host-primitives"])
    if differ:
        pytest.skip(f"host primitives differ from the stored fingerprint: {', '.join(differ)}")
    found = script.output_digests(_in_process, str(tmp_path))
    assert len(found) == 15
    differ = [name for name in found if found[name] != stored[name]]
    assert not differ, f"outputs whose digest differs from REPORT_DIGESTS.txt: {differ}"


def test_fingerprint_names_a_primitive_one_ulp_off(monkeypatch):
    script = _digest_script()
    stored = script.read_lines(ROOT / "REPORT_DIGESTS.txt")["host-primitives"]
    probe, sin = script._ANGLES[100], math.sin
    monkeypatch.setattr(math, "sin", lambda x: math.nextafter(sin(x), math.inf) if x == probe
                        else sin(x))
    assert script.differing_primitives(stored) == ["math.sin"]


def _print_calls(path: Path) -> list:
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_only_the_cli_prints():
    # the library reports through return values and exceptions; writing is the CLI's
    package = Path(operlax.__file__).parent
    assert _print_calls(package / "cli.py")  # the finder sees the CLI's own calls
    calls = {p.name: _print_calls(p) for p in package.glob("*.py") if p.name != "cli.py"}
    assert calls and not any(calls.values()), calls
