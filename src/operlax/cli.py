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
from functools import partial

from .errors import (BranchCutError, ConfigError, DegenerateStateError, DivergenceError,
                     _check_finite, _check_int, _check_positive)

# The library names the modes call, bound here when a mode runs so that --help and usage
# and config errors never import numpy.  A bound name (a tracer's or test's patch) is kept.
_LIBRARY = ("IntegratorConfig", "MuParams", "evolve", "gerstenhaber_bracket", "hamiltonian",
            "operad_law_suite", "operation_from_dict", "operation_to_dict", "pde_suite",
            "proof_identity_suite", "theorem_suite", "trajectory_csv_lines")


def __getattr__(name):  # a library name read before a mode has bound it
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


def _bind_library():
    globals().update({name: __getattr__(name) for name in _LIBRARY if name not in globals()})

# Each verification mode's suite, called by its module-level name when the mode
# runs, so that a patched attribute (a tracer's, a test's) is the one called.
_SUITES = {
    "verify-operad": lambda c: operad_law_suite(c.trials, c.seed, c.tol),
    "verify-theorem": lambda c: theorem_suite(c.trials, c.seed, c.tol, dt=c.dt, t_end=c.t_end),
    "verify-identities": lambda c: proof_identity_suite(c.trials, c.seed, c.tol),
    "pde-check": lambda c: pde_suite(c.trials, c.seed, c.tol),
}

MODES = ("simulate", *_SUITES)

_DEFAULTS = {
    "simulate": {"dt": 1e-3, "t_end": 20.0, "record_every": 1, "c": (0.0,) * 8},
    "verify-operad": {"trials": 200, "tol": 1e-10, "seed": 0},
    "verify-theorem": {"trials": 20, "tol": 1e-6, "seed": 0, "dt": 1e-3, "t_end": 20.0},
    "verify-identities": {"trials": 1000, "tol": 1e-12, "seed": 0},
    "pde-check": {"trials": 100, "tol": 1e-8, "seed": 0},
}


def _rule(holds, what):  # a rule in the library's form, for a value the library takes
    def check(**values):
        (name, v), = values.items()
        if not holds(v):
            raise ValueError(f"{name} must be {what}, got {v!r}")
    return check


# One row per run field: its name, the type its flag parses to, the rules a given value
# must pass (each raises ValueError: the library's own, and the CLI's where the library
# takes more), the subcommands whose flag it is, and the flag's help.
_TABLE = (
    ("omega", float, (_check_finite, _check_positive), "simulate", None),
    ("q0", float, (_check_finite,), "simulate", None),
    ("p0", float, (_check_finite,), "simulate", None),
    ("c", str, (), "simulate", "C1,...,C8 family parameters"),
    ("dt", float, (_check_positive,), "simulate verify", None),
    ("t_end", float, (_check_positive,), "simulate verify", None),
    ("record_every", int, (partial(_check_int, 1),), "simulate", None),
    ("trials", int, (partial(_check_int, 1),), "verify pde-check", None),  # the suites take 0
    ("tol", float, (_check_positive,), "verify pde-check", None),
    ("seed", int, (partial(_check_int, 0), _rule(lambda n: n < 2 ** 64, "< 2**64")),
     "verify pde-check", "root PRNG seed"),
    ("out", str, (_rule(lambda v: isinstance(v, str), "a path"),), "simulate verify pde-check",
     "output path (default: stdout)"),
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
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}, got {cfg.mode!r}")
    try:
        for name, _, rules, *_ in _TABLE:
            for rule in rules if getattr(cfg, name) is not None else ():
                rule(**{name: getattr(cfg, name)})
    except ValueError as exc:  # the rule's own words, which name the field
        raise ConfigError(str(exc)) from exc
    if cfg.mode == "simulate":
        for name in ("omega", "q0", "p0"):
            if getattr(cfg, name) is None:
                raise ConfigError(f"{name}: is required for simulate")
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
    merged = dict(_DEFAULTS.get(mode, {}))
    merged.update({k: v for k, v in file_values.items() if k != "mode" and v is not None})
    merged.update({k: v for k, v in flags.items() if v is not None})
    if "c" in merged and merged["c"] is not None:
        merged["c"] = _parse_c(merged["c"])
    return _validated(RunConfig(mode=mode, **{k: merged.get(k) for k in _FIELDS}))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _report_json(suite: str, seed: int, checks) -> tuple[dict, bool]:
    checks = sorted(checks, key=lambda r: r.law_name)
    overall = all(c.passed for c in checks)
    obj = {
        "suite": suite,
        "seed": int(seed),
        "checks": [c.to_dict() for c in checks],
        "overall_pass": overall,
        "wall_time_seconds": 0.0,
    }
    return obj, overall


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise ConfigError("out: simulate needs an output path for the CSV")
    _bind_library()
    icfg = IntegratorConfig(dt=cfg.dt, t_end=cfg.t_end, omega=cfg.omega, q0=cfg.q0,
                            p0=cfg.p0, params=MuParams(cfg.c), record_every=cfg.record_every)
    if hamiltonian(icfg.initial_state()) <= 0.0:
        raise ConfigError("q0/p0: degenerate energy (H = 0); nothing to evolve")
    # the CSV's formatter, imported before the run: imported between the run and the CSV,
    # it left the benchmark's trajectory workload a peak RSS ~3 MB (5%) higher
    import orjson  # noqa: F401
    traj = evolve(icfg)
    with open(cfg.out, "w") as fh:
        fh.writelines(line + "\n" for line in trajectory_csv_lines(traj))
    print(
        f"simulate: records={len(traj)} "
        f"max_err_mu_max={traj.max_err_mu()!r} "
        f"max_energy_drift={traj.max_energy_drift()!r}"
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    _bind_library()
    started = time.monotonic()
    obj, overall = _report_json(cfg.mode, cfg.seed, _SUITES[cfg.mode](cfg))
    obj["wall_time_seconds"] = time.monotonic() - started
    _write_text(cfg.out, json.dumps(obj, indent=2) + "\n")
    return 0 if overall else 1


def cmd_bracket(first: str, second: str, out: str | None) -> int:
    _bind_library()
    f, g = (operation_from_dict(_read_json(path, "operation file")) for path in (first, second))
    result = gerstenhaber_bracket(f, g)
    _write_text(out, json.dumps(operation_to_dict(result)) + "\n")
    return 0


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
    parsers["verify"].add_argument("suite",
                                   choices=[m[7:] for m in _SUITES if m.startswith("verify-")])
    for p in parsers.values():
        p.add_argument("--config", help="JSON file with the same keys as the flags")
    for name, kind, _, commands, help_text in _TABLE:
        for command in commands.split():
            parsers[command].add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind,
                                          help=help_text)
    br = sub.add_parser("bracket", help="bracket of two operation JSON files")
    br.add_argument("first")
    br.add_argument("second")
    br.add_argument("--out", default=None)
    return parser


def _flags_dict(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in _FIELDS if hasattr(args, k)}


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
        cfg = build_config(mode, _flags_dict(args), file_values)
        if mode == "simulate":
            return cmd_simulate(cfg)
        return cmd_verify(cfg)
    except (DegenerateStateError, DivergenceError, BranchCutError, OSError, MemoryError) as exc:
        print(f"operlax: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError, or any input a library type rejects
        parser.print_usage(sys.stderr)
        print(f"operlax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
