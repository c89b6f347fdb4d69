"""Command line front end.

Subcommands: verify (check suites), simulate (maneuver integration),
classify (null type of a distribution direction), lift (engine-to-contact
joystick pipeline), plan (reachability planning). Reports are JSON; time
series are CSV. Exit codes: 0 on success, 1 when a check or plan fails,
2 for usage errors. A number that is not finite (an overflowed plan, say)
is reported as null, so every report is strict JSON.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
import warnings
from typing import Sequence

import numpy as np

from . import fibration, gl2, kernels, planner
from .kernels import BACKEND, ControlSpec
from .maneuvers import (ChartEscapeWarning, ControlProgram, ManeuverMode,
                        constraint_residuals, integrate_trajectory)
from .reports import report_payload, timings_payload
from .sampling import DEFAULT_SEED
from .suites import SUITE_NAMES, catalog_report, run_suites

_CONFIG_KEYS = ("seed", "jobs", "format", "suite")
_MODES = tuple(mode.value for mode in ManeuverMode)


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
    if not all(map(math.isfinite, vals)):
        raise _usage_error(f"{what} must be finite, got {text!r}")
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


def _control(spec) -> ControlSpec:
    """The spec's `ControlSpec`; a usage error if the spec is malformed."""
    try:
        return ControlSpec.from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise _usage_error(f"bad control spec {spec!r}: {exc}")


def _read_control(flag: str | None, file_vals: dict, key: str, default: float) -> ControlSpec:
    """The control of a flag, else of the controls file's key, else the default."""
    return _control(_parse_control(flag) if flag is not None else file_vals.get(key, default))


def _load_controls_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _usage_error(f"cannot read controls file {path}: {exc}")
    if not isinstance(data, dict):
        raise _usage_error(f"controls file {path} must hold a JSON object")
    return data


def _file_number(value, key: str) -> float:
    """A controls-file number (a flag's value passes through); a usage error
    naming the key for anything float() refuses, and for true and false."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise _usage_error(f"{key} in controls file must be a number, got {value!r}")


def _parse_time_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _usage_error(f"--t must be start:end:step, got {text!r}")
    try:
        t0, t1, step = (float(v) for v in parts)
    except ValueError:
        raise _usage_error(f"--t must be numeric start:end:step, got {text!r}")
    if not all(map(math.isfinite, (t0, t1, step))):
        raise _usage_error(f"--t must be finite start:end:step, got {text!r}")
    if step <= 0.0 or t1 <= t0:
        raise _usage_error("--t needs end > start and step > 0")
    if not math.isfinite((t1 - t0) / step):
        raise _usage_error(f"--t spans more steps than a float holds, got {text!r}")
    return t0, t1, step


def _shift_spec(spec, t0: float) -> ControlSpec:
    """Control spec evaluated at absolute time t0 + s, derivatives intact."""
    base = ControlSpec.from_spec(spec)
    if t0 == 0.0:
        return base
    return dataclasses.replace(
        base, value_fn=kernels.ArrayFunction(lambda s: base.values(t0 + s)),
        derivative_fn=kernels.ArrayFunction(lambda s: base.derivatives(t0 + s)),
        describe=f"{base.describe} shifted by {t0:g}")


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


def _finite_json(obj):
    """obj with every float that is not finite replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _payload_text(payload: dict, fmt: str) -> str:
    payload = _finite_json(payload)
    if fmt == "compact":
        return json.dumps(payload, separators=(",", ":"), sort_keys=True, allow_nan=False)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


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
        if args.timings:
            raise _usage_error("--timings applies to suite runs, not to --catalog")
        if suite != "symmetry":
            raise _usage_error("--catalog is only meaningful with --suite symmetry")
        try:
            payload = catalog_report(args.catalog, seed)
        except ValueError as exc:
            raise _usage_error(str(exc))
        _emit(_payload_text(payload, fmt), args.out)
        return 0 if payload["pass"] else 1
    names = SUITE_NAMES if suite == "all" else (suite,)
    start = time.perf_counter()
    reports = run_suites(names, seed)
    total_s = time.perf_counter() - start
    _emit(_payload_text(report_payload(reports), fmt), args.out)
    if args.timings:
        with open(args.timings, "w", encoding="utf-8") as fh:
            json.dump(timings_payload(reports, total_s), fh, indent=2)
            fh.write("\n")
    return 0 if all(rep.passed for rep in reports) else 1


# -- simulate -------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    mode = ManeuverMode.from_name(args.mode)
    file_vals = _load_controls_file(args.controls) if args.controls else {}

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return file_vals.get(key, fallback)

    u1 = _read_control(args.u1, file_vals, "u1", 1.0)
    u2 = _read_control(args.u2, file_vals, "u2", 0.0)
    u3 = _read_control(args.u3, file_vals, "u3", 0.0)
    duration = _file_number(pick(args.duration, "duration", 1.0), "duration")
    dt = _file_number(pick(args.dt, "dt", 1e-3), "dt")
    start_spec = pick(args.start, "start", "0,0,0,0,0")
    if isinstance(start_spec, str):
        start = _parse_vector(start_spec, 5,
                              "--start" if args.start is not None else "start in controls file")
    elif isinstance(start_spec, list) and len(start_spec) == 5:
        start = np.array([_file_number(v, "start component") for v in start_spec])
        if not np.all(np.isfinite(start)):
            raise _usage_error(f"start in controls file must be finite, got {start_spec!r}")
    else:
        raise _usage_error("start in controls file needs 5 components")
    try:
        program = ControlProgram(mode, u1, u2, u3, duration=duration, dt=dt)
    except ValueError as exc:
        raise _usage_error(str(exc))
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
    u_spec = _read_control(args.u, file_vals, "u", 1.0)
    w_spec = _read_control(args.w, file_vals, "w", 1.0)
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
    samples = len(run.engine.times)
    certified = rep.skipped < samples   # u/w constant keeps every contact speed at 0
    if not certified:
        print("saucer: lift certified no sample: every contact speed is below the floor",
              file=sys.stderr)
    payload = {
        "samples": samples,
        "t0": t0,
        "duration": duration,
        "max_angular": float(rep.max_angular),
        "max_contact": float(rep.max_contact),
        "worst_t": worst_t,
        "skipped": int(rep.skipped),
        "endpoint": [float(v) for v in run.contact.states[-1]],
        "pass": bool(certified and rep.passed()),
    }
    _emit(_payload_text(payload, args.format), args.out)
    return 0 if payload["pass"] else 1


# -- plan -----------------------------------------------------------------------

def _cmd_plan(args) -> int:
    mode = ManeuverMode.from_name(args.mode)
    start = _parse_vector(args.start, 5, "--from")
    goal = _parse_vector(args.goal, 5, "--to")
    try:
        plan = planner.plan_path(mode, start, goal, tol=args.tol,
                                 max_iterations=args.max_iterations, trace=args.trace)
    except ValueError as exc:
        raise _usage_error(str(exc))
    payload = plan.to_json_dict()
    traj = planner.replay(plan)
    residuals = constraint_residuals(traj)
    endpoint_error = float(np.max(np.abs(traj.endpoint - plan.achieved)))
    payload["replay"] = {
        "endpoint_error": endpoint_error,
        "max_contact": float(residuals.max_contact),
        "max_nullity": float(residuals.max_nullity),
        "pass": planner.replay_passed(residuals, endpoint_error),
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


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it as it is."""
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
                   help="with --suite symmetry: the suite's own checks of one catalog, per field")
    p.add_argument("--format", choices=("pretty", "compact"), default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.add_argument("--timings", metavar="FILE", default=None,
                   help="also write per-check wall times in seconds, "
                        "{suite: {check: s}} and the total, to FILE")
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
    p.add_argument("--trace", action="store_true",
                   help="add a per-iteration trace (max |gap| to the goal when the "
                        "iteration began, legs added) to the report")
    _add_common(p)
    p.set_defaults(func=_cmd_plan)

    return parser


#: Flags whose value is a comma-separated vector.
_VECTOR_FLAGS = ("--from", "--to", "--start", "--y0", "--vector")
_NEGATIVE_NUMBER = re.compile(r"-[\d.]")


def _glue_vector_values(argv: Sequence[str]) -> list[str]:
    """Write "--to -1.7,0.9" as "--to=-1.7,0.9".

    argparse takes an argument that starts with a minus and is not a plain
    number for an option, so a vector with a negative first component would
    otherwise leave its flag without a value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_FLAGS and _NEGATIVE_NUMBER.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_vector_values(argv))
    try:
        # numbers that overflow report null, so numpy's warnings about them
        # are noise on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SystemExit:
        raise
    except (ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"saucer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
