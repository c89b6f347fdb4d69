"""Check results and suite reports for the command-line verifier.

Checks run one after another in the order given, so a fixed seed gives
byte-identical JSON output apart from the timestamp field.
"""
from __future__ import annotations

import dataclasses
import datetime
import time
import traceback
from typing import Callable, Sequence

from .kernels import BACKEND


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """A check's verdict, residual, detail and bound; a check returns it
    nameless, and `run_checks` names it from the check's table entry."""

    passed: bool
    value: float | None = None
    detail: str = ""
    threshold: float | None = None
    name: str = ""
    #: Wall time of the check, set by `run_checks`; never in the payload.
    seconds: float | None = dataclasses.field(default=None, compare=False)


Check = tuple[str, Callable[[], CheckResult]]


@dataclasses.dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_checks(checks: Sequence[Check]) -> tuple[CheckResult, ...]:
    """Run check thunks in order; a check that raises becomes a failed result.

    Each result carries the name of its (name, thunk) entry, the one place
    a check is named, and the check's wall time in `seconds`.
    """

    def guarded(name: str, thunk: Callable[[], CheckResult]) -> CheckResult:
        start = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # a crashed check is a failed check
            tb = traceback.format_exc(limit=2).strip().splitlines()[-1]
            result = CheckResult(False, None, f"raised {exc!r} ({tb})")
        return dataclasses.replace(result, name=name, seconds=time.perf_counter() - start)

    return tuple(guarded(name, thunk) for name, thunk in checks)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def report_payload(reports: Sequence[SuiteReport]) -> dict:
    """JSON-ready report: per check id, residual, threshold, pass.

    Checks may hand back numpy scalars; everything is coerced to builtins.
    """
    return {
        "backend": BACKEND,
        "suites": [
            {
                "suite": rep.suite,
                "seed": rep.seed,
                "pass": bool(rep.passed),
                "checks": [
                    {
                        "check": r.name,
                        "residual": None if r.value is None else float(r.value),
                        "threshold": None if r.threshold is None else float(r.threshold),
                        "pass": bool(r.passed),
                        "detail": r.detail,
                    }
                    for r in rep.results
                ],
            }
            for rep in reports
        ],
        "pass": all(bool(rep.passed) for rep in reports),
        "timestamp": _timestamp(),
    }


def timings_payload(reports: Sequence[SuiteReport], total_s: float) -> dict:
    """{suite: {check: seconds}} plus the wall time of the whole run as "total"."""
    payload: dict = {rep.suite: {r.name: r.seconds for r in rep.results} for rep in reports}
    payload["total"] = total_s
    return payload

