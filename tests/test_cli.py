"""End-to-end command line behavior: payload shapes, exit codes, determinism."""
from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest

from saucer import cli, fibration


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_classify_bad_vector_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "classify", "--vector", "1,2,3")
    assert exc.value.code == 2


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


def test_lift_singularity_exits_one(capsys):
    code, out, err = run_cli(capsys, "lift", "--u", "1",
                             "--w", json.dumps([-0.5, 1.0]),
                             "--duration", "1", "--steps", "100")
    assert code == 1
    assert "lift failed" in err and "|w|" in err


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


def test_plan_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "plan", "--mode", "attacking",
                           "--from", "0,0,0,0,0", "--to", "0,0,0.4,0,0",
                           "--max-iterations", "0", "--tol", "1e-9")
    assert code == 1
    assert json.loads(out)["success"] is False


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


BAD_CONTROL_SPECS = ("[]", "[[1, 2]]", "NaN", '{"kind": "sin", "amplitude": NaN}')


@pytest.mark.parametrize("spec", BAD_CONTROL_SPECS)
def test_lift_rejects_malformed_control_specs(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lift", "--u", spec, "--steps", "10"])
    assert exc.value.code == 2
    assert "saucer: error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", BAD_CONTROL_SPECS)
def test_simulate_rejects_malformed_control_specs(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--mode", "attacking", "--u1", spec, "--duration", "0.1"])
    assert exc.value.code == 2
    assert "bad control spec" in capsys.readouterr().err


def test_lift_reports_the_absolute_time_of_its_worst_sample(capsys):
    spec = {"kind": "sin", "amplitude": 1.0, "frequency": 2.0}
    code, out, _ = run_cli(capsys, "lift", "--u", json.dumps(spec), "--w", "1",
                           "--t", "1:3:0.01", "--format", "compact")
    assert code == 0
    data = json.loads(out)
    run = fibration.run_joystick(cli._shift_spec(spec, 1.0), 1.0, duration=2.0, n_steps=200)
    assert data["worst_t"] == 1.0 + run.engine.times[run.report.worst_sample]
    assert 1.0 <= data["worst_t"] <= 3.0
