"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import oracle
import run
import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
workloads.import_saucer(ROOT)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(99))) == (None, 9)
    value, n_beyond = stats.tail(list(range(1, 101)))
    assert (value, n_beyond) == (90, 10)
    assert stats.percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_self_time_subtracts_merged_children_and_counted_calls():
    spans = [
        (1, "parent", 0.0, 10.0, None, 0, 0.5),
        (2, "child", 1.0, 3.0, 1, 0, 0.0),   # overlaps the next child (pool threads)
        (3, "child", 2.0, 5.0, 1, 0, 0.25),
        (4, "child", 7.0, 8.0, 1, 0, 0.0),
        (5, "late", 9.5, 12.0, 1, 0, 0.0),   # only 0.5 of it lies inside the parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5) - 0.5)
    assert selfs[3] == pytest.approx(3.0 - 0.25)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_wraps_every_binding_and_restores_them():
    from saucer import maneuvers, suites
    original = maneuvers.constraint_residuals
    tracer = tracing.Tracer()
    item = ("attacking", np.zeros(5), np.array([0.1, 0.0, 0.0, 0.0, 0.0]))
    with tracer.installed():
        assert suites.constraint_residuals is maneuvers.constraint_residuals
        assert suites.constraint_residuals is not original
        failed, errors, _ = workloads.Plan().outcome(item, workloads.Plan().run(item))
    assert suites.constraint_residuals is original
    assert not failed and not errors
    totals = tracer.layer_totals()
    assert totals["maneuvers.constraint_residuals.calls"] == 1
    assert totals["planner.plan_path.calls"] == 1
    assert totals["kernels.velocity.calls"] > 0
    assert totals["planner.replay.self_s"] > 0.0
    assert not tracer.missing


class _Raises:
    name = "raises"

    def run(self, item):
        if item == "bad":
            raise ValueError("boom")
        return item

    def outcome(self, item, output):
        return False, [], 1.0


def test_exception_is_a_failed_op_not_a_crash():
    w = _Raises()
    ops = [workloads.run_op(w, item) for item in ("good", "bad")]
    assert [op.failed for op in ops] == [False, True]
    assert ops[1].errors == [] and "boom" in ops[1].exception
    metrics, report = run.end_to_end(w, ops, setup_s=1.0, ref_rate=run.REFERENCE_RATE / 2)
    assert metrics["norm_work_per_s"] == pytest.approx(2.0 * report["work_per_s"][0])
    assert report["fail_frac"][0] == 0.5
    assert "1/2" in report["fail_frac"][1]


def _euler(mode, p0, u1, u2, u3, duration, n_steps):
    from saucer import kernels
    out = np.empty((n_steps + 1, 5))
    out[0] = p0
    h = duration / n_steps
    for k in range(n_steps):
        out[k + 1] = out[k] + h * kernels.velocity(mode, out[k], u1, u2, u3)
    return out


def test_oracle_trips_on_a_broken_integrator(monkeypatch):
    from saucer import kernels
    monkeypatch.setattr(workloads, "CONSTANT_STEPS", 2000)
    w = workloads.Trajectory()
    item = ("constant", "landing", np.array([0.1, -0.2, 0.3, 0.2, -0.1]), (0.3, -0.2, 0.4))
    _, errors, _ = w.outcome(item, w.run(item))
    assert errors == []
    monkeypatch.setattr(kernels, "rk4_constant", _euler)
    traj, residuals = w.run(item)
    assert residuals.passed()
    _, errors, _ = w.outcome(item, (traj, residuals))
    assert len(errors) == 1 and "oracle" in errors[0]


def test_oracle_matches_itself_at_any_step():
    p0, u = [0.1, 0.2, 0.3, -0.4, 0.5], (0.7, -0.3, 0.2)
    for mode in workloads.MODES:
        fine = oracle.endpoint(mode, p0, u, 1.0, steps=1000)
        assert oracle.endpoint_error(mode, p0, u, 1.0, fine) < 1e-12


def test_latin_hypercube_fills_every_slice():
    pts = workloads.latin_hypercube(np.random.default_rng(0), 8, 10, 2.0)
    slices = np.floor((pts / 2.0 + 1.0) / 2.0 * 8).astype(int)
    for column in slices.T:
        assert sorted(column) == list(range(8))


def test_refuses_to_run_without_saucer_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_spec_names_only_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {e["name"] for e in spec["per_layer"]} <= set(run.LAYER_REPORT)


def _record(backend, value):
    return {"workload": "plan", "trace": 0, "machine": {"backend": backend},
            "metrics": {"norm_work_per_s": {"value": value, "unit": "1/s"}}}


def test_compare_refuses_mixed_backends():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = compare.compare([_record("python", 10.0)] * 3, [_record("python", 5.0)] * 3, spec)
    assert "REGRESSED" in lines[-1]
    with pytest.raises(ValueError, match="backend"):
        compare.compare([_record("python", 10.0)], [_record("compiled", 1.0)], spec)


def test_run_for_ends_on_a_round_and_measures_the_host():
    class Rounds(_Raises):
        round_ops = 3

    ops, ref_rate = run.run_for(Rounds(), iter(["good"] * 100), seconds=1e-9)
    assert len(ops) == 3 and ref_rate > 0.0
