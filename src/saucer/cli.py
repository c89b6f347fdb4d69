"""Command line front end.

Subcommands: verify (check suites), simulate (maneuver integration),
classify (null type of a distribution direction), lift (engine-to-contact
joystick pipeline), plan (reachability planning). Reports are JSON; time
series are CSV. Exit codes: 0 on success, 1 when a check or plan fails,
2 for usage errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import numbers
import os
import sys
import warnings
from typing import Sequence

import numpy as np

from . import fibration, gl2, planner
from .kernels import BACKEND
from .maneuvers import (ChartEscapeWarning, ControlProgram, ManeuverMode,
                        constraint_residuals, integrate_trajectory)
from .reports import format_compact, format_pretty
from .sampling import DEFAULT_SEED
from .suites import SUITE_NAMES, catalog_report, run_suites

_CONFIG_KEYS = ("seed", "jobs", "format", "suite")
_MODES = ("attacking", "landing", "g2s", "g2d")


def _usage_error(message: str) -> "SystemExit":
    print(f"saucer: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_vector(text: str, size: int, what: str) -> np.ndarray:
    parts = [t for t in text.replace(",", " ").split() if t]
    try:
        vals = [float(t) for t in parts]
    except ValueError:
        raise _usage_error(f"{what} must be numeric, got {text!r}")
    if len(vals) != size:
        raise _usage_error(f"{what} needs {size} components, got {len(vals)}")
    return np.array(vals)


def _parse_control(text: str):
    """JSON control spec (number, polynomial list, sin dict) or a bare float."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        try:
            return float(text)
        except ValueError:
            raise _usage_error(f"cannot parse control spec {text!r}")


def _control_callable(spec):
    try:
        control = fibration.ControlSpec.from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise _usage_error(f"bad control spec {spec!r}: {exc}")
    if isinstance(spec, numbers.Real) and not isinstance(spec, bool):
        return float(spec)
    return control.value_fn


def _load_controls_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _usage_error(f"cannot read controls file {path}: {exc}")
    if not isinstance(data, dict):
        raise _usage_error(f"controls file {path} must hold a JSON object")
    return data


def _parse_time_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _usage_error(f"--t must be start:end:step, got {text!r}")
    try:
        t0, t1, step = (float(v) for v in parts)
    except ValueError:
        raise _usage_error(f"--t must be numeric start:end:step, got {text!r}")
    if step <= 0.0 or t1 <= t0:
        raise _usage_error("--t needs end > start and step > 0")
    return t0, t1, step


def _shift_spec(spec, t0: float):
    """Control spec evaluated at absolute time t0 + s, derivatives intact."""
    base = fibration.ControlSpec.from_spec(spec)
    if t0 == 0.0:
        return base
    return fibration.ControlSpec(
        lambda s: base.value_fn(t0 + s),
        lambda s: base.derivative_fn(t0 + s),
        f"{base.describe} shifted by {t0:g}", vectorized=base.vectorized)


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _usage_error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _usage_error(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise _usage_error(f"{path}:{lineno}: unknown key {key!r} "
                               f"(known: {', '.join(_CONFIG_KEYS)})")
        cfg[key] = value
    return cfg


def _resolve_seed(flag_value, cfg: dict) -> int:
    if flag_value is not None:
        return flag_value
    if "seed" in cfg:
        try:
            return int(cfg["seed"], 0)
        except ValueError:
            raise _usage_error(f"config seed must be an integer, got {cfg['seed']!r}")
    env = os.environ.get("SAUCER_SEED", "").strip()
    if env:
        try:
            return int(env, 0)
        except ValueError:
            raise _usage_error(f"SAUCER_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _emit(text: str, out_path: str | None) -> None:
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _payload_text(payload: dict, fmt: str) -> str:
    if fmt == "compact":
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.12g}" for v in row])


def _trajectory_csv(path: str, traj) -> None:
    cols = ([traj.times] + [traj.states[:, i] for i in range(5)]
            + [traj.velocities[:, i] for i in range(5)])
    _write_csv(path, ("t", "x", "y", "z", "a", "b",
                      "vx", "vy", "vz", "va", "vb"), cols)


# -- verify ---------------------------------------------------------------------

def _cmd_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    seed = _resolve_seed(args.seed, cfg)
    jobs = args.jobs if args.jobs is not None else cfg.get("jobs", "4")
    fmt = args.format or cfg.get("format", "pretty")
    suite = args.suite or cfg.get("suite", "all")
    if fmt not in ("pretty", "compact"):
        raise _usage_error(f"format must be pretty or compact, got {fmt!r}")
    if suite != "all" and suite not in SUITE_NAMES:
        raise _usage_error(f"unknown suite {suite!r} "
                           f"(known: {', '.join(SUITE_NAMES)}, all)")
    # Checks run serially; jobs is still validated so old configs keep parsing.
    try:
        jobs_ok = int(jobs) >= 1
    except ValueError:
        jobs_ok = False
    if not jobs_ok:
        raise _usage_error(f"jobs must be an integer >= 1, got {jobs!r}")
    if args.catalog is not None:
        if suite != "symmetry":
            raise _usage_error("--catalog is only meaningful with --suite symmetry")
        try:
            payload = catalog_report(args.catalog, seed)
        except ValueError as exc:
            raise _usage_error(str(exc))
        _emit(_payload_text(payload, fmt), args.out)
        return 0 if payload["pass"] else 1
    names = SUITE_NAMES if suite == "all" else (suite,)
    reports = run_suites(names, seed)
    text = format_pretty(reports) if fmt == "pretty" else format_compact(reports)
    _emit(text, args.out)
    return 0 if all(rep.passed for rep in reports) else 1


# -- simulate -------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    mode = ManeuverMode.from_name(args.mode)
    file_vals = _load_controls_file(args.controls) if args.controls else {}

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return file_vals.get(key, fallback)

    u1 = _parse_control(args.u1) if args.u1 is not None else file_vals.get("u1", 1.0)
    u2 = _parse_control(args.u2) if args.u2 is not None else file_vals.get("u2", 0.0)
    u3 = _parse_control(args.u3) if args.u3 is not None else file_vals.get("u3", 0.0)
    duration = float(pick(args.duration, "duration", 1.0))
    dt = float(pick(args.dt, "dt", 1e-3))
    start_spec = pick(args.start, "start", "0,0,0,0,0")
    if isinstance(start_spec, str):
        start = _parse_vector(start_spec, 5, "--start")
    else:
        start = np.asarray(start_spec, dtype=float)
        if start.shape != (5,):
            raise _usage_error("start in controls file needs 5 components")
    program = ControlProgram(mode, _control_callable(u1), _control_callable(u2),
                             _control_callable(u3), duration=duration, dt=dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChartEscapeWarning)
        traj = integrate_trajectory(program, start)
    residuals = constraint_residuals(traj)
    if args.csv:
        _trajectory_csv(args.csv, traj)
    payload = {
        "mode": mode.value,
        "backend": BACKEND,
        "duration": duration,
        "samples": int(len(traj.times)),
        "endpoint": [float(v) for v in traj.endpoint],
        "max_contact": float(residuals.max_contact),
        "max_nullity": {k: float(np.max(v)) if len(v) else 0.0
                        for k, v in sorted(residuals.nullity.items())},
        "escaped": bool(traj.escaped),
        "pass": bool(residuals.passed()),
    }
    _emit(_payload_text(payload, args.format), args.out)
    return 0 if payload["pass"] else 1


# -- classify -------------------------------------------------------------------

def _cmd_classify(args) -> int:
    X = _parse_vector(args.vector, 4, "--vector")
    try:
        cls = gl2.classify_direction(X, tol=args.tol)
    except ValueError as exc:
        raise _usage_error(str(exc))
    g1, g2v, g3 = gl2.bilinears(X, X)
    payload = {
        "class": cls.value,
        "g1": g1,
        "g2": g2v,
        "g3": g3,
        "upsilon": gl2.quartic_upsilon(X),
    }
    _emit(_payload_text(payload, args.format), args.out)
    return 0


# -- lift -----------------------------------------------------------------------

def _cmd_lift(args) -> int:
    file_vals = _load_controls_file(args.controls) if args.controls else {}
    u_spec = _parse_control(args.u) if args.u is not None else file_vals.get("u", 1.0)
    w_spec = _parse_control(args.w) if args.w is not None else file_vals.get("w", 1.0)
    t0 = 0.0
    duration, n_steps = args.duration, args.steps
    if args.t is not None:
        t0, t1, step = _parse_time_range(args.t)
        duration = t1 - t0
        n_steps = max(1, int(round(duration / step)))
    y0 = _parse_vector(args.y0, 5, "--y0") if args.y0 else None
    try:
        run = fibration.run_joystick(_shift_spec(u_spec, t0), _shift_spec(w_spec, t0),
                                     duration=duration, n_steps=n_steps, y0=y0)
    except fibration.LiftSingular as exc:
        print(f"saucer: lift failed: {exc}", file=sys.stderr)
        return 1
    except (TypeError, ValueError) as exc:
        raise _usage_error(str(exc))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        eng = run.engine
        times = eng.times + t0
        _write_csv(os.path.join(args.out_dir, "engine.csv"),
                   ("t", "y0", "y1", "y2", "y3", "y4", "u", "w"),
                   [times] + [eng.states[:, i] for i in range(5)]
                   + [eng.u, eng.w])
        lif = run.lifted
        _write_csv(os.path.join(args.out_dir, "lifted.csv"),
                   ("t",) + tuple(f"y{i}" for i in range(6))
                   + tuple(f"v{i}" for i in range(6)),
                   [times] + [lif.states[:, i] for i in range(6)]
                   + [lif.velocities[:, i] for i in range(6)])
        con = run.contact
        _write_csv(os.path.join(args.out_dir, "projected.csv"),
                   ("t", "x", "y", "z", "a", "b",
                    "vx", "vy", "vz", "va", "vb", "T"),
                   [times] + [con.states[:, i] for i in range(5)]
                   + [con.velocities[:, i] for i in range(5)]
                   + [con.cone_parameter])
    rep = run.report
    worst_t = (None if rep.worst_sample is None
               else t0 + float(run.engine.times[rep.worst_sample]))
    payload = {
        "samples": int(len(run.engine.times)),
        "t0": t0,
        "duration": duration,
        "max_angular": float(rep.max_angular),
        "max_contact": float(rep.max_contact),
        "worst_t": worst_t,
        "skipped": int(rep.skipped),
        "endpoint": [float(v) for v in run.contact.states[-1]],
        "pass": bool(rep.max_angular <= 1e-5 and rep.max_contact <= 1e-8),
    }
    _emit(_payload_text(payload, args.format), args.out)
    return 0 if payload["pass"] else 1


# -- plan -----------------------------------------------------------------------

def _cmd_plan(args) -> int:
    mode = ManeuverMode.from_name(args.mode)
    start = _parse_vector(args.start, 5, "--from")
    goal = _parse_vector(args.goal, 5, "--to")
    plan = planner.plan_path(mode, start, goal, tol=args.tol,
                             max_iterations=args.max_iterations)
    payload = plan.to_json_dict()
    traj = planner.replay(plan)
    residuals = constraint_residuals(traj)
    payload["replay"] = {
        "endpoint_error": float(np.max(np.abs(traj.endpoint - plan.achieved))),
        "max_contact": float(residuals.max_contact),
        "max_nullity": float(residuals.max_nullity),
        "pass": bool(residuals.passed()),
    }
    if args.replay_csv:
        _trajectory_csv(args.replay_csv, traj)
    _emit(_payload_text(payload, args.format), args.out)
    return 0 if plan.success and payload["replay"]["pass"] else 1


# -- parser ----------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("pretty", "compact"), default="pretty",
                     help="JSON style: indented or single line (default pretty)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="also write the report to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saucer",
        description="Numerical engine for saucer maneuver geometries.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="run deterministic check suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default=None,
                   help="suite to run (default all)")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                   help="sampling seed (overrides config and SAUCER_SEED)")
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for old scripts and configs and checked to "
                        "be >= 1, but ignored: checks run serially")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value defaults: " + ", ".join(_CONFIG_KEYS))
    p.add_argument("--catalog", choices=("attacking", "landing", "g2", "g2s", "g2d"),
                   default=None,
                   help="with --suite symmetry: focused per-field catalog report")
    p.add_argument("--format", choices=("pretty", "compact"), default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("simulate", help="integrate a maneuver control law")
    p.add_argument("--mode", choices=_MODES, required=True)
    p.add_argument("--start", default=None, help="comma separated chart point")
    p.add_argument("--controls", metavar="FILE", default=None,
                   help="JSON file with u1,u2,u3 (and optionally start, "
                        "duration, dt); explicit flags win")
    p.add_argument("--u1", default=None, help="control: number, [c0,c1,...] or sin dict")
    p.add_argument("--u2", default=None)
    p.add_argument("--u3", default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="write samples t,x,y,z,a,b,vx..vb to FILE")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("classify", help="null type of a distribution direction")
    p.add_argument("--vector", required=True, help="four components X1..X4")
    p.add_argument("--tol", type=float, default=gl2.CLASSIFY_TOL)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("lift", help="engine curve -> canonical lift -> contact side")
    p.add_argument("--controls", metavar="FILE", default=None,
                   help="JSON file with u and w specs; explicit flags win")
    p.add_argument("--u", default=None, help="row control spec")
    p.add_argument("--w", default=None, help="column control spec (must avoid 0)")
    p.add_argument("--t", metavar="T0:T1:STEP", default=None,
                   help="time range, e.g. 0:2:0.001 (overrides duration/steps)")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--y0", default=None, help="initial engine state y0..y4")
    p.add_argument("--out-dir", metavar="DIR", default=None,
                   help="write engine/lifted/projected CSV files to DIR")
    _add_common(p)
    p.set_defaults(func=_cmd_lift)

    p = subs.add_parser("plan", help="steer between chart points with family legs")
    p.add_argument("--mode", choices=_MODES, required=True)
    p.add_argument("--from", dest="start", required=True, metavar="X,Y,Z,A,B")
    p.add_argument("--to", dest="goal", required=True, metavar="X,Y,Z,A,B")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--replay-csv", metavar="FILE", default=None,
                   help="write the replayed trajectory as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"saucer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
