"""End-to-end command line behavior: payload shapes, exit codes, determinism."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import saucer
from saucer import cli, fibration, kernels, planner, suites
from saucer.maneuvers import ControlProgram, ManeuverMode, integrate_trajectory
from saucer.reports import CheckResult, SuiteReport, run_checks


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    """json.loads that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} in a report")
    return json.loads(text, parse_constant=refuse)


def _without_timestamp(payload_text):
    data = json.loads(payload_text)
    data.pop("timestamp", None)
    return data


def test_verify_single_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "config", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    (suite,) = data["suites"]
    assert suite["suite"] == "config"
    assert suite["seed"] == 7
    for check in suite["checks"]:
        assert set(check) == {"check", "residual", "threshold", "pass", "detail"}
        assert check["pass"] is True


def test_verify_reports_are_deterministic(capsys):
    args = ("verify", "--suite", "structure", "--seed", "7", "--format", "compact")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert _without_timestamp(out1) == _without_timestamp(out2)
    # and byte-identical once the timestamp line is dropped
    j1, j2 = json.loads(out1), json.loads(out2)
    j1.pop("timestamp"), j2.pop("timestamp")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    verify = ("verify", "--suite", "all", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *verify)
    code, out, _ = run_cli(capsys, "plan", "--mode", "landing", "--from", "0,0,0,0,0",
                           "--to", "0.3,-0.2,0.1,0.2,-0.4", "--format", "compact",
                           "--trace", "--tol", "1e-4")
    assert code == 0 and "trace" in json.loads(out)
    code2, out2, _ = run_cli(capsys, *verify)
    assert code1 == code2 == 0
    timestamp = re.compile(r'"timestamp": "[^"]*"')
    assert timestamp.sub("", out1) == timestamp.sub("", out2)
    assert cli.build_parser() is cli.build_parser()


def test_verify_seed_changes_samples_not_verdicts(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "gl2", "--seed", "1")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "gl2", "--seed", "2")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["pass"] and d2["pass"]
    r1 = [c["residual"] for c in d1["suites"][0]["checks"]]
    r2 = [c["residual"] for c in d2["suites"][0]["checks"]]
    assert r1 != r2


def test_verify_seed_precedence_env_config_flag(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "saucer.cfg"
    cfg.write_text("seed = 11\nformat = compact\n")
    monkeypatch.setenv("SAUCER_SEED", "22")
    # config beats env
    _, out, _ = run_cli(capsys, "verify", "--suite", "config",
                        "--config", str(cfg))
    assert json.loads(out)["suites"][0]["seed"] == 11
    # flag beats config
    _, out, _ = run_cli(capsys, "verify", "--suite", "config",
                        "--config", str(cfg), "--seed", "33")
    assert json.loads(out)["suites"][0]["seed"] == 33
    # env used when nothing else is given
    monkeypatch.delenv("SAUCER_SEED", raising=False)
    monkeypatch.setenv("SAUCER_SEED", "0x2A")
    _, out, _ = run_cli(capsys, "verify", "--suite", "config")
    assert json.loads(out)["suites"][0]["seed"] == 42


def test_verify_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "config", "--config", str(cfg))
    assert exc.value.code == 2


def test_verify_catalog_requires_symmetry_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "config", "--catalog", "g2")
    assert exc.value.code == 2


def test_verify_catalog_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "symmetry",
                           "--catalog", "g2", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["catalog"] == "g2"
    assert data["dimension"] == 14
    assert data["killing_signature"] == [8, 6, 0]
    assert data["oracle"]["model"] == "g2-split"
    assert data["pass"] is True
    assert len(data["field_residuals"]) == 14
    assert max(data["field_residuals"].values()) < 1e-7
    assert data["detail"].startswith("worst field g2-")
    c = np.asarray(data["structure_constants"])
    assert c.shape == (14, 14, 14)


def test_verify_jobs_is_accepted_but_ignored(capsys, tmp_path):
    base = ("verify", "--suite", "symmetry", "--seed", "7", "--format", "compact")
    _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    _, out4, _ = run_cli(capsys, *base, "--jobs", "4")
    assert _without_timestamp(out1) == _without_timestamp(out4)
    for check in json.loads(out1)["suites"][0]["checks"]:
        if check["check"].endswith("-catalog"):
            assert re.fullmatch(r"worst field \S+ at \((-?\d+\.\d{6}, ){4}-?\d+\.\d{6}\)",
                                check["detail"]), check["detail"]
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 4\n")
    code, _, _ = run_cli(capsys, "verify", "--suite", "config", "--config", str(cfg))
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "config", "--jobs", "0")
    assert exc.value.code == 2
    cfg.write_text("jobs = four\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "config", "--config", str(cfg))
    assert exc.value.code == 2


def test_verify_out_writes_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "config",
                           "--seed", "7", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["pass"] is True


def test_verify_timings_cover_every_check_and_leave_stdout_alone(capsys, tmp_path):
    timings = tmp_path / "timings.json"
    plain = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
    timed = run_cli(capsys, "verify", "--suite", "all", "--seed", "7",
                    "--timings", str(timings))
    assert plain[0] == timed[0] == 0
    assert _without_timestamp(plain[1]) == _without_timestamp(timed[1])
    assert "seconds" not in timed[1] and "total" not in timed[1]
    report = json.loads(timed[1])
    data = json.loads(timings.read_text())
    total = data.pop("total")
    assert {(s["suite"], c["check"]) for s in report["suites"] for c in s["checks"]} \
        == {(suite, check) for suite, checks in data.items() for check in checks}
    assert sum(len(checks) for checks in data.values()) == 40
    seconds = [v for checks in data.values() for v in checks.values()]
    assert all(v >= 0.0 for v in seconds)
    assert total >= sum(seconds)


@pytest.mark.parametrize("fmt", ["pretty", "compact"])
def test_verify_reports_a_non_finite_residual_as_null(capsys, monkeypatch, fmt):
    def nan_suite(names, seed):
        check = ("nan-check", lambda: CheckResult("nan-check", False, float("nan"), "", 1e-9))
        return [SuiteReport("structure", seed, run_checks([check]))]

    monkeypatch.setattr(cli, "run_suites", nan_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "structure", "--format", fmt)
    assert code == 1
    (suite,) = _strict_json(out)["suites"]
    assert suite["checks"][0]["residual"] is None


def test_verify_timings_do_not_apply_to_catalog_reports(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "symmetry", "--catalog", "g2",
                "--timings", str(tmp_path / "t.json"))
    assert exc.value.code == 2


def test_classify_payload(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vector", "1,2,4,8")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "TypeN"
    assert abs(data["g1"]) < 1e-12
    assert abs(data["g2"]) < 1e-12
    assert abs(data["g3"]) < 1e-12
    assert abs(data["upsilon"]) < 1e-12


def test_classify_zero_vector_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "classify", "--vector", "0,0,0,0")
    assert exc.value.code == 2


@pytest.mark.parametrize("vector", ["1e200,1e200,1e200,1e200", "1e-200,1e-200,1e-200,1e-200",
                                    "1e-170,0,0,0"])
def test_classify_is_scale_invariant_at_the_ends_of_the_float_range(capsys, vector):
    # 1e200 nu(1), 1e-200 nu(1) and 1e-170 nu(0) lie on the cubic cone
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "classify", "--vector", vector, "--format", "compact")
    assert code == 0
    assert _strict_json(out)["class"] == "TypeN"


def test_classify_bad_vector_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "classify", "--vector", "1,2,3")
    assert exc.value.code == 2


@pytest.mark.parametrize("tol,expected", [("1e-3", "TypeN"), ("1e-9", "TypeII")])
def test_classify_tolerance_reaches_the_classifier(capsys, tol, expected):
    # nu(0.5) + 1e-6 e1
    code, out, _ = run_cli(capsys, "classify", "--vector", "1.000001,0.5,0.25,0.125",
                           "--tol", tol)
    assert code == 0
    assert json.loads(out)["class"] == expected


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0"])
def test_classify_rejects_bad_tolerance_as_usage_error(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--vector", "1,2,4,8", "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol" in captured.err


def test_simulate_with_flags_and_csv(capsys, tmp_path):
    csv_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", "--mode", "attacking",
                           "--u1", "1", "--u2", "0.5", "--u3", "0.25",
                           "--duration", "0.5", "--dt", "0.001",
                           "--csv", str(csv_file))
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "attacking"
    assert data["pass"] is True
    assert data["samples"] == 501
    assert data["max_contact"] < 1e-9
    assert len(data["endpoint"]) == 5
    with csv_file.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "z", "a", "b", "vx", "vy", "vz", "va", "vb"]
    assert len(rows) == 502
    end = np.array([float(v) for v in rows[-1][1:6]])
    np.testing.assert_allclose(end, data["endpoint"], atol=1e-9)


@pytest.mark.parametrize("flags", [("--mode", "landing", "--start", "0,0,0,1e200,0"),
                                   ("--mode", "attacking", "--u1", "1e308", "--u3", "1e308")])
def test_simulate_reports_a_trajectory_that_overflows_as_escaped(capsys, flags):
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "simulate", *flags, "--format", "compact")
    data = _strict_json(out)
    assert None in data["endpoint"]
    assert data["escaped"] is True
    assert (code, data["pass"]) == (1, False)


def test_simulate_controls_file(capsys, tmp_path):
    controls = tmp_path / "controls.json"
    controls.write_text(json.dumps({
        "u1": [0.0, 1.0], "u2": {"kind": "sin", "amplitude": 0.5},
        "u3": 1.0, "duration": 0.4, "dt": 0.001,
        "start": [0, 0, 0, 0.1, -0.2]}))
    code, out, _ = run_cli(capsys, "simulate", "--mode", "landing",
                           "--controls", str(controls))
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["samples"] == 401


def test_simulate_flags_override_controls_file(capsys, tmp_path):
    controls = tmp_path / "controls.json"
    controls.write_text(json.dumps({"u1": 1.0, "duration": 1.0, "dt": 0.01}))
    code, out, _ = run_cli(capsys, "simulate", "--mode", "g2s",
                           "--controls", str(controls), "--duration", "0.2")
    assert code == 0
    assert json.loads(out)["samples"] == 21


@pytest.mark.parametrize("key,value", [
    ("duration", "abc"),
    ("duration", [1]),
    ("duration", True),
    ("dt", None),
    ("dt", "fast"),
    ("start", ["a", 0, 0, 0, 0]),
    ("start", "a,0,0,0,0"),
    ("start", [[0], 0, 0, 0, 0]),
    ("start", [0, 0, 0]),
    ("start", {"x": 0}),
    ("start", [float("nan"), 0, 0, 0, 0]),
    ("start", [0, 0, float("inf"), 0, 0]),
    ("start", "0,inf,0,0,0"),
])
def test_simulate_controls_file_values_must_be_numbers(capsys, tmp_path, key, value):
    controls = tmp_path / "controls.json"
    controls.write_text(json.dumps({"u1": 1.0, "duration": 0.1, key: value}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--mode", "attacking", "--controls", str(controls)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"saucer: error: {key}" in captured.err


def test_lift_pipeline_with_time_range(capsys, tmp_path):
    out_dir = tmp_path / "lift"
    code, out, _ = run_cli(capsys, "lift",
                           "--u", json.dumps({"kind": "sin", "amplitude": 1.0,
                                              "frequency": 2.0, "phase": 0.3}),
                           "--w", "1", "--t", "0:2:0.005",
                           "--out-dir", str(out_dir))
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["max_angular"] <= 1e-5
    assert data["max_contact"] <= 1e-8
    assert data["samples"] == 401
    assert data["t0"] == 0.0
    for name in ("engine.csv", "lifted.csv", "projected.csv"):
        assert (out_dir / name).exists()
    with (out_dir / "engine.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 402


def test_lift_that_certifies_no_sample_fails(capsys):
    # u/w constant keeps y5 constant, so the projected contact velocity vanishes
    code, out, err = run_cli(capsys, "lift", "--u", "1", "--w", "1", "--format", "compact")
    assert code == 1
    data = json.loads(out)
    assert data["skipped"] == data["samples"] == 401
    assert data["pass"] is False
    assert "certified no sample" in err


@pytest.mark.parametrize("bound", ["ANGULAR_TOL", "CONTACT_TOL"])
def test_lift_and_the_joystick_check_read_one_verdict(capsys, monkeypatch, bound):
    spec = json.dumps({"kind": "sin", "amplitude": 1.0, "frequency": 2.0})
    check = dict(suites._fibration_checks(1))["joystick-certification"]

    def verdicts():
        code, out, _ = run_cli(capsys, "lift", "--u", spec, "--w", "1", "--format", "compact")
        return code, json.loads(out)["pass"], check().passed

    assert verdicts() == (0, True, True)
    # both residuals are above zero, so a zero bound fails lift and the check
    monkeypatch.setattr(fibration, bound, 0.0)
    assert verdicts() == (1, False, False)


def test_lift_singularity_exits_one(capsys):
    code, out, err = run_cli(capsys, "lift", "--u", "1",
                             "--w", json.dumps([-0.5, 1.0]),
                             "--duration", "1", "--steps", "100")
    assert code == 1
    assert "lift failed" in err and "|w|" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--mode", "attacking", "--duration", "1e9", "--dt", "1e-9"),
    ("lift", "--steps", "1000000000000000000"),
])
def test_an_unallocatable_step_count_is_a_one_line_error(capsys, argv):
    # 1e18 samples are more than the address space holds, so numpy refuses
    # them at once and nothing is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("saucer: error: ") and err.count("\n") == 1


def test_plan_roundtrip_payload(capsys, tmp_path):
    replay_csv = tmp_path / "replay.csv"
    code, out, _ = run_cli(capsys, "plan", "--mode", "g2d",
                           "--from", "0,0,0,0,0", "--to", "0.5,0,0.2,0,0",
                           "--tol", "1e-3", "--replay-csv", str(replay_csv))
    assert code == 0
    data = json.loads(out)
    assert data["success"] is True
    assert data["replay"]["pass"] is True
    assert data["gap_max"] < 1e-3
    assert data["replay"]["endpoint_error"] < 1e-8
    assert replay_csv.exists()
    for leg in data["legs"]:
        assert set(leg) == {"field", "duration"}


def test_plan_replay_off_its_endpoint_fails(capsys, monkeypatch):
    # a replay that leaves the constraints satisfied but ends 1e-6 away in z
    # from the plan's achieved point does not certify the plan
    def shifted(plan, _replay=planner.replay):
        traj = _replay(plan)
        traj.states[-1, 2] += 1e-6
        return traj

    monkeypatch.setattr(planner, "replay", shifted)
    code, out, _ = run_cli(capsys, "plan", "--mode", "g2d",
                           "--from", "0,0,0,0,0", "--to", "0.5,0,0.2,0,0",
                           "--tol", "1e-3", "--format", "compact")
    data = json.loads(out)
    assert data["success"] is True
    assert data["replay"]["endpoint_error"] > planner.REPLAY_TOL
    assert data["replay"]["max_contact"] <= 1e-9
    assert data["replay"]["pass"] is False
    assert code == 1


def test_plan_failure_exits_one(capsys):
    # the phase-1 guess toward this goal overflows, so no plan reaches it
    code, out, _ = run_cli(capsys, "plan", "--mode", "attacking",
                           "--from", "0,0,0,0,0", "--to", "1e308,1e308,1e308,1e308,1e308",
                           "--max-iterations", "1", "--tol", "1e-9")
    assert code == 1
    assert json.loads(out)["success"] is False


@pytest.mark.parametrize("flags", [
    ("--from", "nan,0,0,0,0"),
    ("--to", "inf,0,0,0,0"),
    ("--tol", "-1"),
    ("--tol", "nan"),
    ("--max-iterations", "0"),
])
def test_plan_rejects_bad_inputs_as_usage_errors(capsys, flags):
    argv = {"--from": "0,0,0,0,0", "--to": "0,0,0.4,0,0"}
    argv.update([flags])
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--mode", "attacking", *(v for kv in argv.items() for v in kv)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "saucer: error:" in captured.err


def test_plan_trace_is_opt_in(capsys):
    args = ("plan", "--mode", "landing", "--from", "0,0,0,0,0",
            "--to", "0.3,-0.2,0.1,0.2,-0.4", "--format", "compact")
    _, plain, _ = run_cli(capsys, *args)
    _, traced, _ = run_cli(capsys, *args, "--trace")
    plain, traced = json.loads(plain), json.loads(traced)
    assert set(plain) == {"mode", "start", "goal", "legs", "achieved", "gap_max",
                          "iterations", "tolerance", "success", "pieces", "replay"}
    trace = traced.pop("trace")
    assert traced == plain
    assert len(trace) == plain["iterations"]
    assert sum(step["legs_added"] for step in trace) == len(plain["legs"])
    assert trace[-1]["gap_max"] < 1e-3 <= trace[0]["gap_max"]


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    (("simulate", "--mode", "attacking", "--duration", "inf"), "duration"),
    (("simulate", "--mode", "attacking", "--duration", "nan"), "duration"),
    (("simulate", "--mode", "attacking", "--dt", "nan"), "dt"),
    (("simulate", "--mode", "attacking", "--dt=-inf"), "dt"),
    (("simulate", "--mode", "attacking", "--duration", "1e300", "--dt", "1e-10"), "duration"),
    (("lift", "--t", "0:inf:0.1"), "--t"),
    (("lift", "--t", "0:1:nan"), "--t"),
    (("lift", "--t=-1e308:1e308:1"), "--t"),
    (("lift", "--duration", "nan"), "duration"),
    (("lift", "--duration", "inf"), "duration"),
    (("simulate", "--mode", "attacking", "--start", "nan,0,0,0,0"), "--start"),
    (("simulate", "--mode", "attacking", "--start", "inf,0,0,0,0"), "--start"),
    (("lift", "--u", "0.5", "--w", "[1, 0.3]", "--y0", "nan,0,0,0,0"), "--y0"),
    (("classify", "--vector", "nan,0,0,1"), "--vector"),
    (("classify", "--vector", "inf,0,0,1"), "--vector"),
    (("plan", "--mode", "attacking", "--from", "nan,0,0,0,0", "--to", "0,0,0,0,0"),
     "--from"),
])
def test_non_finite_times_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"saucer: error: {flag} ")


BAD_CONTROL_SPECS = ("[]", "[[1, 2]]", "NaN", '{"kind": "sin", "amplitude": NaN}',
                     "true", "[true,false]", '["1",2]', '{"kind":"sin","amplitude":"2"}',
                     '{"kind":"cos","frequency":false}')


@pytest.mark.parametrize("spec", BAD_CONTROL_SPECS)
def test_lift_rejects_malformed_control_specs(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lift", "--u", spec, "--steps", "10"])
    assert exc.value.code == 2
    assert "saucer: error:" in capsys.readouterr().err


def test_simulate_samples_control_specs_as_arrays(capsys):
    spec = {"kind": "sin", "amplitude": 0.4, "frequency": 2.5, "phase": 0.3}
    control = cli._control(spec)
    assert isinstance(control, fibration.ControlSpec)
    times_seen = []

    def watched(t):
        times_seen.append(np.ndim(t))
        return control.value_fn(t)

    counted = fibration.ControlSpec(kernels.ArrayFunction(watched), control.derivative_fn,
                                    control.describe)
    mode = ManeuverMode.LANDING
    p0 = [0.1, -0.2, 0.3, 0.2, -0.1]
    by_spec = integrate_trajectory(
        ControlProgram(mode, counted, 0.5, counted, duration=0.5, dt=1e-3), p0)
    by_callable = integrate_trajectory(
        ControlProgram(mode, control.value_fn, 0.5, control.value_fn,
                       duration=0.5, dt=1e-3), p0)
    assert times_seen == [1, 1]
    for field in ("times", "states", "velocities"):
        np.testing.assert_array_equal(getattr(by_spec, field), getattr(by_callable, field))
    code, out, _ = run_cli(capsys, "simulate", "--mode", "landing", "--u1", json.dumps(spec),
                           "--u2", "0.5", "--u3", json.dumps(spec),
                           "--start", "0.1,-0.2,0.3,0.2,-0.1",
                           "--duration", "0.5", "--dt", "1e-3", "--format", "compact")
    assert code == 0
    assert json.loads(out)["endpoint"] == by_callable.endpoint.tolist()


@pytest.mark.parametrize("spec", BAD_CONTROL_SPECS)
def test_simulate_rejects_malformed_control_specs(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--mode", "attacking", "--u1", spec, "--duration", "0.1"])
    assert exc.value.code == 2
    assert "bad control spec" in capsys.readouterr().err


def test_lift_reports_the_absolute_time_of_its_worst_sample(capsys, monkeypatch):
    spec = {"kind": "sin", "amplitude": 1.0, "frequency": 2.0}
    argv = ("lift", "--u", json.dumps(spec), "--w", "1", "--t", "1:3:0.01",
            "--format", "compact")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    # every angle of the clean run is rounding noise, so no time is named
    assert data["worst_t"] is None and data["max_angular"] <= fibration.ANGULAR_FLOOR
    project = fibration.project_to_contact

    def tilted(lifted):
        curve = project(lifted)
        curve.velocities[57, 2] += 1e-6
        return curve

    monkeypatch.setattr(fibration, "project_to_contact", tilted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    run = fibration.run_joystick(cli._shift_spec(spec, 1.0), 1.0, duration=2.0, n_steps=200)
    assert run.report.worst_sample == 57
    assert json.loads(out)["worst_t"] == 1.0 + run.engine.times[57]


@pytest.mark.parametrize("mode,goal", [("landing", "1e300,0,0,0,0"),
                                       ("attacking", "1e308,1e308,1e308,1e308,1e308")])
def test_plan_that_overflows_stops_and_reports_strict_json(capsys, mode, goal):
    code, out, err = run_cli(capsys, "plan", "--mode", mode, "--from", "0,0,0,0,0",
                             "--to", goal, "--format", "compact", "--trace")
    assert code == 1
    assert "NaN" not in out and "Infinity" not in out
    data = _strict_json(out)
    assert data["success"] is False
    assert data["gap_max"] is None
    assert data["iterations"] == len(data["trace"]) <= 3
    assert data["replay"]["pass"] is False
    assert "Warning" not in err


@pytest.mark.parametrize("mode", ["attacking", "landing", "g2s", "g2d"])
def test_plan_of_nan_legs_reports_them_as_null(capsys, mode):
    # every phase-1 duration toward 1e308 in each coordinate is nan: the
    # payload lists the four legs its achieved point was flowed by, with
    # null durations, and stays strict JSON
    code, out, err = run_cli(capsys, "plan", "--mode", mode, "--from", "0,0,0,0,0",
                             "--to", "1e308,1e308,1e308,1e308,1e308", "--format", "compact")
    assert code == 1 and "Warning" not in err
    data = _strict_json(out)
    assert data["legs"] == [{"field": k, "duration": None} for k in range(4)]
    assert data["achieved"] == [None] * 5 and data["reason"] == "gap not finite"
    assert data["replay"]["pass"] is False


@pytest.mark.parametrize("start", ["0,0,0,1e150,1e150", "0,0,0,-1e150,1e150",
                                   "0,0,0,1e150,-1e150", "0,0,0,-1e150,-1e150",
                                   "0,0,0,1e200,0"])
def test_plan_whose_phase1_system_is_singular_fails_as_a_verdict(capsys, start):
    # far out in (a, b) the landing fields' phase-1 system is singular or
    # overflows: a failed plan with its reason, not a usage error
    code, out, err = run_cli(capsys, "plan", "--mode", "landing", "--from", start,
                             "--to", "0.1,0.1,0.1,0.1,0.1", "--format", "compact")
    assert code == 1 and err == ""
    data = _strict_json(out)
    assert (data["success"], data["reason"], data["legs"]) == (False, "phase-1 singular", [])
    assert data["achieved"] == data["start"]


#: Commands whose numbers overflow, with the sha256 of their compact payloads.
OVERFLOW_RUNS = [
    (("classify", "--vector", "1e200,1e200,1e200,1e200"),
     "96269f1f5d203aa7d734fbed3b5bdeeb302a1f0b320ed3095920648477a664b2"),
    (("simulate", "--mode", "landing", "--start", "0,0,0,1e200,0"),
     "38c34a52144e8696fa300e6bf10084b09597d62321014f7fd15d307f9a09109c"),
    (("lift", "--y0", "0,0,1e200,1e200,1e200", "--steps", "20"),
     "138f5425d63e2e49f06ec30b145c52278a5e05d0779dfd1a3cd2d7e56cdba4e8"),
    (("lift", "--u", "1e300", "--steps", "20"),
     "6a0b52e77636c10a75409341f6bd8b2f39b4f8bab033617d47fb5c8aaee35a7f"),
]


@pytest.mark.parametrize("argv,sha256", OVERFLOW_RUNS,
                         ids=["classify", "simulate", "lift-y0", "lift-u"])
def test_commands_that_overflow_raise_no_numpy_warnings(capsys, argv, sha256):
    # every command runs with numpy's overflow and invalid warnings off, as
    # plan does: the payload reports the numbers that overflowed as null
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, "--format", "compact")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Warning" not in err
    assert "null" in out and _strict_json(out)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
    assert code == (0 if argv[0] == "classify" else 1)
    if "--u" in argv:
        assert "certified no sample" in err


VECTOR_RUNS = [
    (("plan", "--mode", "landing", "--format", "compact"),
     (("--from", "-0.3,0.2,0,0.1,0"), ("--to", "-1.7,0.9,-0.6,-1.3,1.8")),
     lambda d: d["start"][0] == -0.3 and d["goal"] == [-1.7, 0.9, -0.6, -1.3, 1.8]),
    (("simulate", "--mode", "attacking", "--u1", "1", "--u2", "0", "--u3", "0",
      "--duration", "0.1", "--format", "compact"),
     (("--start", "-0.5,0,0,0,0"),),
     lambda d: d["endpoint"][0] == -0.5),
    (("lift", "--u", "[0, 1]", "--w", "1", "--steps", "20", "--format", "compact"),
     (("--y0", "-1,0,0,0,0"),),
     lambda d: d["endpoint"] == list(fibration.run_joystick(
         [0, 1], 1, duration=2.0, n_steps=20, y0=[-1.0, 0, 0, 0, 0]).contact.states[-1])),
    (("classify", "--format", "compact"),
     (("--vector", "-1,-2,-4,-8"),),
     lambda d: d["class"] == "TypeN"),
]


@pytest.mark.parametrize("base,vectors,check", VECTOR_RUNS,
                         ids=[run[0][0] for run in VECTOR_RUNS])
def test_vector_flags_take_a_negative_first_component(capsys, base, vectors, check):
    spaced = [v for flag_value in vectors for v in flag_value]
    glued = [f"{flag}={value}" for flag, value in vectors]
    code, out, _ = run_cli(capsys, *base, *spaced)
    code_glued, out_glued, _ = run_cli(capsys, *base, *glued)
    assert code == code_glued == 0
    assert out == out_glued
    assert check(json.loads(out))


def test_runtime_never_imports_sympy():
    script = textwrap.dedent("""
        import contextlib, io, sys
        import numpy as np
        from saucer import catalogs, cli, fibration, planner
        for name in ("attacking", "landing", "g2"):
            catalogs.catalog(name)
        planner.landing_nested_bracket_norm(np.zeros((1, 5)))
        for chart in ("x", "y"):
            fibration.coframe(chart, np.zeros(6))
            fibration.frame(chart, np.zeros(6))
        fibration.x_from_y_jacobian(np.zeros(6))
        runs = [
            ["verify", "--suite", "all", "--seed", "3"],
            ["classify", "--vector", "1,2,4,8"],
            ["simulate", "--mode", "landing", "--u1", "1", "--u2", "0.5",
             "--u3", "0.2", "--duration", "0.2"],
            ["plan", "--mode", "landing", "--from", "0,0,0,0,0",
             "--to", "0.3,-0.2,0.1,0.2,-0.4"],
            ["lift", "--u", "[0, 1]", "--w", "1", "--steps", "50"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
        print(codes, "sympy" in sys.modules)
    """)
    src = str(Path(saucer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0]", "False"]


def test_the_package_imports_no_module_and_each_module_imports_alone():
    package = Path(saucer.__file__).resolve().parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    script = textwrap.dedent("""
        import importlib, sys
        import numpy

        def loaded():
            return [k for k in sys.modules if k == "saucer" or k.startswith("saucer.")]

        import saucer
        print(sorted(k for k in loaded() if k != "saucer"))
        for name in sys.argv[1:]:
            for key in loaded():
                del sys.modules[key]
            importlib.import_module(f"saucer.{name}")
            print(name)
    """)
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run([sys.executable, "-c", script, *modules], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", *modules, ""]
    assert "cli" in modules and "planner" in modules
