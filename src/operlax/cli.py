"""Command-line front end: simulation runs, verification suites, bracket tool.

Exit codes are fixed: 0 when everything passed, 1 for runtime or check
failures, 2 for usage and configuration errors, including any input a library
type rejects; ``main`` alone maps errors to codes.  All numeric output uses
shortest round-trip decimal formatting capped at 17 significant digits, and
every random suite is driven by a single ``--seed`` through the documented
PCG64 streams, so identical invocations produce identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import make_dataclass
from functools import cache, partial

import operlax

from .errors import (BranchCutError, ConfigError, DegenerateStateError, DivergenceError,
                     _check_finite, _check_int, _check_positive)

# One row per mode: its subcommand, the package function it calls, and the fields it
# reads with their defaults (None: required).  The library names are read from the
# numpy-free package when a mode runs, so a patched one (a tracer's, a test's) is called.
_MODES = {
    "simulate": ("simulate", "evolve", {"omega": None, "q0": None, "p0": None, "c": (0.0,) * 8,
                                        "dt": 1e-3, "t_end": 20.0, "record_every": 1}),
    "verify-operad": ("verify", "operad_law_suite", {"trials": 200, "tol": 1e-10, "seed": 0}),
    "verify-theorem": ("verify", "theorem_suite", {"trials": 20, "tol": 1e-6, "seed": 0,
                                                   "dt": 1e-3, "t_end": 20.0}),
    "verify-identities": ("verify", "proof_identity_suite",
                          {"trials": 1000, "tol": 1e-12, "seed": 0}),
    "pde-check": ("pde-check", "pde_suite", {"trials": 100, "tol": 1e-8, "seed": 0}),
}
MODES = tuple(_MODES)


def _rule(holds, what):  # a rule in the library's form, for a value the library takes
    def check(**values):
        (name, v), = values.items()
        if not holds(v):
            raise ValueError(f"{name} must be {what}, got {v!r}")
    return check


# One row per run field: its name, the type its flag parses to, the rules a given value
# must pass (each raises ValueError: the library's own, and the CLI's where the library
# takes more) and the flag's help.  A subcommand's flags are its modes' fields and out.
_TABLE = (
    ("omega", float, (_check_finite, _check_positive), None),
    ("q0", float, (_check_finite,), None),
    ("p0", float, (_check_finite,), None),
    ("c", str, (), "C1,...,C8 family parameters"),
    ("dt", float, (_check_positive,), None),
    ("t_end", float, (_check_positive,), None),
    ("record_every", int, (partial(_check_int, 1),), None),
    ("trials", int, (partial(_check_int, 1),), None),  # the suites take 0
    ("tol", float, (_check_positive,), None),
    ("seed", int, (partial(_check_int, 0), _rule(lambda n: n < 2 ** 64, "< 2**64")),
     "root PRNG seed"),
    ("out", str, (_rule(lambda v: isinstance(v, str), "a path"),), "output path (default: stdout)"),
)
_FIELDS = tuple(row[0] for row in _TABLE)
RunConfig = make_dataclass("RunConfig", ["mode", *((name, object, None) for name in _FIELDS)],
                           frozen=True, namespace={"__module__": __name__})


def _parse_c(value) -> tuple:
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)):
        raise ConfigError(f"c: expected a list or comma-separated values, got {value!r}")
    if len(parts) != 8:
        raise ConfigError(f"c: expected 8 comma-separated values, got {len(parts)}")
    try:
        return tuple(float(x) for x in parts)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past the doubles overflows
        raise ConfigError(f"c: {exc}") from exc


def _validated(cfg: RunConfig) -> RunConfig:
    try:
        for name, _, rules, _ in _TABLE:
            for rule in rules if getattr(cfg, name) is not None else ():
                rule(**{name: getattr(cfg, name)})
    except ValueError as exc:  # the rule's own words, which name the field
        raise ConfigError(str(exc)) from exc
    reads = _MODES[cfg.mode][2]
    for name in _FIELDS:
        if name not in reads and name != "out" and getattr(cfg, name) is not None:
            raise ConfigError(f"{name}: {cfg.mode} does not take it")
    for name, default in reads.items():
        if default is None and getattr(cfg, name) is None:
            raise ConfigError(f"{name}: is required for {cfg.mode}")
    return cfg


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: {path} is not valid JSON: {exc}") from exc


def _read_config_file(path: str) -> dict:
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(raw) - set(_FIELDS) - {"mode"}
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")
    for name, value in raw.items():  # bool is an int: JSON true would pass as 1
        if bool in map(type, value if isinstance(value, list) else [value]):
            raise ConfigError(f"{name}: JSON booleans are not numbers, got {json.dumps(value)}")
    for name, kind, *_ in _TABLE:  # a JSON 3.0 is the int 3
        if kind is int and isinstance(raw.get(name), float):
            if not raw[name].is_integer():
                raise ConfigError(f"{name}: must be an integer, got {raw[name]!r}")
            raw[name] = int(raw[name])
    return raw


def load_config(path: str) -> RunConfig:
    """Read a flat JSON config file and return the validated RunConfig."""
    raw = _read_config_file(path)
    if "mode" not in raw:
        raise ConfigError("mode: missing from config file")
    return build_config(str(raw["mode"]), {}, raw)


def build_config(mode: str, flags: dict, file_values: dict) -> RunConfig:
    """Merge flag values over file values over mode defaults, then validate."""
    if mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}, got {mode!r}")
    merged = {k: v for k, v in _MODES[mode][2].items() if v is not None}
    merged.update({k: v for k, v in file_values.items() if k != "mode" and v is not None})
    merged.update({k: v for k, v in flags.items() if v is not None})
    if "c" in merged:
        merged["c"] = _parse_c(merged["c"])
    return _validated(RunConfig(mode=mode, **{k: merged.get(k) for k in _FIELDS}))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise ConfigError("out: simulate needs an output path for the CSV")
    icfg = operlax.IntegratorConfig(dt=cfg.dt, t_end=cfg.t_end, omega=cfg.omega, q0=cfg.q0,
                                    p0=cfg.p0, params=operlax.MuParams(cfg.c),
                                    record_every=cfg.record_every)
    if operlax.hamiltonian(icfg.initial_state()) <= 0.0:
        raise ConfigError("q0/p0: degenerate energy (H = 0); nothing to evolve")
    # the CSV's formatter, imported before the run: imported between the run and the CSV,
    # it left the benchmark's trajectory workload a peak RSS ~3 MB (5%) higher
    import orjson  # noqa: F401
    traj = getattr(operlax, _MODES[cfg.mode][1])(icfg)
    with open(cfg.out, "wb") as fh:  # one write per chunk of records, not one per line
        fh.writelines(operlax.trajectory_csv_chunks(traj))
    print(
        f"simulate: records={len(traj)} "
        f"max_err_mu_max={traj.max_err_mu()!r} "
        f"max_energy_drift={traj.max_energy_drift()!r}"
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    _, name, reads = _MODES[cfg.mode]
    suite = getattr(operlax, name)  # imports the library, numpy with it, before the clock
    started = time.monotonic()
    checks = sorted(suite(cfg.trials, cfg.seed, cfg.tol,
                          **{k: getattr(cfg, k) for k in ("dt", "t_end") if k in reads}),
                    key=lambda r: r.law_name)
    overall = all(c.passed for c in checks)
    obj = {"suite": cfg.mode, "seed": int(cfg.seed), "checks": [c.to_dict() for c in checks],
           "overall_pass": overall, "wall_time_seconds": time.monotonic() - started}
    _write_text(cfg.out, json.dumps(obj, indent=2) + "\n")
    return 0 if overall else 1


def cmd_bracket(first: str, second: str, out: str | None) -> int:
    f, g = (operlax.operation_from_dict(_read_json(path, "operation file"))
            for path in (first, second))
    result = operlax.gerstenhaber_bracket(f, g)
    _write_text(out, json.dumps(operlax.operation_to_dict(result)) + "\n")
    return 0


@cache  # parsing leaves the parser as it was, so one serves every call of main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operlax",
        description="Operadic Lax flows of the harmonic oscillator: simulate and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {command: sub.add_parser(command, help=text) for command, text in (
        ("simulate", "integrate one configuration and write a CSV trajectory"),
        ("verify", "run a randomized verification suite"),
        ("pde-check", "finite-difference residuals of the defining PDE"))}
    parsers["verify"].add_argument("suite", choices=[
        mode.removeprefix("verify-") for mode, row in _MODES.items() if row[0] == "verify"])
    for command, p in parsers.items():
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        takes = {"out"}.union(*(reads for c, _, reads in _MODES.values() if c == command))
        for name, kind, _, help_text in _TABLE:
            if name in takes:
                p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, help=help_text)
    br = sub.add_parser("bracket", help="bracket of two operation JSON files")
    br.add_argument("first")
    br.add_argument("second")
    br.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bracket":
            return cmd_bracket(args.first, args.second, args.out)
        mode = args.command if args.command != "verify" else f"verify-{args.suite}"
        file_values = _read_config_file(args.config) if args.config else {}
        if file_values.get("mode", mode) != mode:
            raise ConfigError(f"mode: the config file's {file_values['mode']!r} is not {mode!r}")
        cfg = build_config(mode, {k: getattr(args, k, None) for k in _FIELDS}, file_values)
        return cmd_simulate(cfg) if mode == "simulate" else cmd_verify(cfg)
    except (DegenerateStateError, DivergenceError, BranchCutError, OSError, MemoryError) as exc:
        print(f"operlax: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError, or any input a library type rejects
        parser.print_usage(sys.stderr)
        print(f"operlax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
