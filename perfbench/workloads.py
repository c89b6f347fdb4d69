"""The three closed-loop workloads: seeded inputs, one op, and its checks.

Each workload turns the benchmark seed into an endless, deterministic stream
of op inputs; the package only ever sees those inputs. `run` is the timed
part of an op and calls saucer's public functions through their modules (so
the tracer's wrappers are seen); `outcome` is untimed and checks the output
against certificates at the bounds the CLI uses, never against stored
numbers. README.md records why each workload exists.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import sys
import time
import warnings
import zlib
from pathlib import Path

import numpy as np

import oracle

MODES = ("attacking", "landing", "g2s", "g2d")

#: Plan boxes: the acceptance box of criterion 8 and the package's own
#: sampling box [-2, 2]^5 (saucer.sampling.BOX_HALF_WIDTH, fixed here so the
#: inputs do not move if that constant does).
PLAN_BOXES = (0.8, 2.0)
PLAN_TOL = 1e-3
#: Pairs per (mode, box) stratum in one Latin-hypercube block.
LHS_BLOCK = 4

CONSTANT_STEPS = 200_000
VARYING_STEPS = 20_000
VARYING_MODES = ("landing", "g2s")
JOYSTICK_STEPS = 40_000

#: Certificate bounds of `saucer simulate`, `saucer plan` and `saucer lift`.
REPLAY_ENDPOINT_TOL = 1e-8
JOYSTICK_ANGULAR_TOL = 1e-5
JOYSTICK_CONTACT_TOL = 1e-8

_TIMESTAMP = re.compile(r'"timestamp":"[^"]*"')


def import_saucer(root: Path):
    """Import saucer from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import saucer
    where = Path(saucer.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"saucer imported from {where}, not from {src}")
    return saucer


def _call_if_present(module, name: str, *args) -> None:
    fn = getattr(module, name, None)
    if fn is not None:
        fn(*args)


def warm_caches() -> None:
    """Build the symbolic caches a first use pays: catalogs, landing bracket, frames."""
    from saucer import catalogs, fibration, planner
    for name in ("attacking", "landing", "g2"):
        catalogs.catalog(name)
    _call_if_present(planner, "landing_nested_bracket_norm", np.zeros((1, 5)))
    for chart in ("x", "y"):
        _call_if_present(fibration, "coframe", chart, np.zeros(6))
        _call_if_present(fibration, "frame", chart, np.zeros(6))
    _call_if_present(fibration, "x_from_y_jacobian", np.zeros(6))


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def latin_hypercube(rng: np.random.Generator, n: int, dim: int, half: float) -> np.ndarray:
    """n points in [-half, half]^dim, one per 1/n slice of every coordinate."""
    slots = rng.permuted(np.tile(np.arange(n), (dim, 1)), axis=1).T
    return half * (2.0 * (slots + rng.uniform(size=(n, dim))) / n - 1.0)


@dataclasses.dataclass
class OpResult:
    latency_s: float
    failed: bool
    errors: list
    work: float
    fingerprint: str | None = None   # what must repeat for the same input
    exception: str | None = None


def run_op(workload, item, run=None) -> OpResult:
    """Time `run` (default workload.run) on item, then check it.

    An exception is a failed op. The output is dropped once checked, so peak
    RSS does not grow with the number of ops a run completes.
    """
    start = time.perf_counter()
    try:
        output = (run or workload.run)(item)
    except Exception as exc:  # the op failed; the benchmark keeps going
        return OpResult(time.perf_counter() - start, True, [], 0.0, exception=repr(exc))
    latency = time.perf_counter() - start
    failed, errors, work = workload.outcome(item, output)
    fingerprint = getattr(workload, "fingerprint", None)
    return OpResult(latency, failed, errors, work, fingerprint and fingerprint(output))


class Verify:
    """One `saucer verify --suite all` pass through saucer.cli.main."""

    name = "verify"
    warm_up = True
    round_ops = 1

    def __init__(self):
        self.jobs = len(os.sched_getaffinity(0))

    def inputs(self, seed: int):
        rng = rng_for(seed, self.name)
        while True:
            yield int(rng.integers(1, 2 ** 31))

    def run(self, seed: int):
        from saucer import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", "all", "--seed", str(seed),
                             "--jobs", str(self.jobs), "--format", "compact"])
        return code, buf.getvalue()

    def outcome(self, seed: int, output):
        code, text = output
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return True, [], 0.0
        if code == 0 and payload.get("pass") is True:
            return False, [], 1.0
        bad = [f"{s['suite']}/{c['check']}" for s in payload.get("suites", [])
               for c in s.get("checks", []) if not c.get("pass")]
        return False, [f"verify seed {seed}: exit {code}, failed {bad}"], 1.0

    @staticmethod
    def fingerprint(output) -> str:
        """Payload text with the timestamp blanked, for the determinism check."""
        return _TIMESTAMP.sub('"timestamp":""', output[1])


class Plan:
    """What `saucer plan` does: plan_path, replay, constraint_residuals."""

    name = "plan"
    warm_up = True
    #: Runs end on a block boundary, so every run holds whole Latin hypercubes.
    round_ops = LHS_BLOCK * len(PLAN_BOXES) * len(MODES)

    def inputs(self, seed: int):
        """Blocks cycling mode-major within box; every stratum is a Latin hypercube."""
        rng = rng_for(seed, self.name)
        while True:
            strata = {(mode, box): latin_hypercube(rng, LHS_BLOCK, 10, box)
                      for box in PLAN_BOXES for mode in MODES}
            for k in range(LHS_BLOCK):
                for box in PLAN_BOXES:
                    for mode in MODES:
                        pair = strata[(mode, box)][k]
                        yield mode, pair[:5], pair[5:]

    def run(self, item):
        from saucer import maneuvers, planner
        mode, start, goal = item
        plan = planner.plan_path(maneuvers.ManeuverMode(mode), start, goal, tol=PLAN_TOL)
        traj = planner.replay(plan)
        return plan, traj, maneuvers.constraint_residuals(traj)

    def outcome(self, item, output):
        mode, start, goal = item
        plan, traj, residuals = output
        errors = []
        end_err = float(np.max(np.abs(traj.endpoint - plan.achieved)))
        if not residuals.passed():
            errors.append(f"{mode} replay not admissible: contact "
                          f"{residuals.max_contact:.3g}, nullity {residuals.max_nullity:.3g}")
        if not end_err <= REPLAY_ENDPOINT_TOL:
            errors.append(f"{mode} replay endpoint off the plan by {end_err:.3g}")
        if plan.success:
            gap = float(np.max(np.abs(traj.endpoint - goal)))
            if not gap < PLAN_TOL + REPLAY_ENDPOINT_TOL:
                errors.append(f"{mode} plan reports success, replay misses goal by {gap:.3g}")
        return not plan.success, errors, 1.0


class Trajectory:
    """Batches of seven ops: four long constant-control runs, two time-varying
    runs and one joystick run. A round is one batch."""

    name = "trajectory"
    #: No first-use cost beyond warm_caches.
    warm_up = False
    round_ops = len(MODES) + len(VARYING_MODES) + 1

    def inputs(self, seed: int):
        rng = rng_for(seed, self.name)
        while True:
            for mode in MODES:
                yield "constant", mode, rng.uniform(-0.4, 0.4, 5), tuple(rng.uniform(-0.5, 0.5, 3))
            for mode in VARYING_MODES:
                specs = tuple({"kind": "sin", "amplitude": float(rng.uniform(0.2, 0.6)),
                               "frequency": float(rng.uniform(0.5, 3.0)),
                               "phase": float(rng.uniform(0.0, 2.0 * np.pi))}
                              for _ in range(3))
                yield "varying", mode, rng.uniform(-0.4, 0.4, 5), specs
            u = [float(c) for c in rng.uniform(-1.0, 1.0, 3)]
            w = [float(rng.uniform(0.8, 1.5)), float(rng.uniform(-0.2, 0.2))]
            yield "joystick", None, u, w

    def run(self, item):
        from saucer import fibration, maneuvers
        kind, mode, a, b = item
        if kind == "joystick":
            return fibration.run_joystick(a, b, duration=2.0, n_steps=JOYSTICK_STEPS)
        if kind == "constant":
            controls, steps = b, CONSTANT_STEPS
        else:
            controls = [fibration.ControlSpec.from_spec(s).value_fn for s in b]
            steps = VARYING_STEPS
        program = maneuvers.ControlProgram(maneuvers.ManeuverMode(mode), *controls,
                                           duration=1.0, dt=1.0 / steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", maneuvers.ChartEscapeWarning)
            traj = maneuvers.integrate_trajectory(program, a)
        return traj, maneuvers.constraint_residuals(traj)

    def outcome(self, item, output):
        kind, mode, a, b = item
        errors = []
        if kind == "joystick":
            rep = output.report
            if not (rep.max_angular <= JOYSTICK_ANGULAR_TOL
                    and rep.max_contact <= JOYSTICK_CONTACT_TOL):
                errors.append(f"joystick certificate: angular {rep.max_angular:.3g}, "
                              f"contact {rep.max_contact:.3g}")
            return False, errors, float(len(output.engine.times))
        traj, residuals = output
        if not residuals.passed():
            errors.append(f"{kind} {mode} not admissible: contact "
                          f"{residuals.max_contact:.3g}, nullity {residuals.max_nullity:.3g}")
        if kind == "constant":
            err = oracle.endpoint_error(mode, a, b, 1.0, traj.endpoint)
            if not err <= oracle.ORACLE_TOL:
                errors.append(f"constant {mode} endpoint differs from the oracle by {err:.3g}")
        return False, errors, float(len(traj))


WORKLOADS = {w.name: w for w in (Verify, Plan, Trajectory)}
