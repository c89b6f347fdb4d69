"""saucer benchmark: one closed-loop workload per run, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload {verify,plan,trajectory} \
        --seed N --seconds S --trace {0,1}

One caller runs ops back to back (the next op starts when the last returns)
until S seconds of op time have been measured. `--trace 0` runs the program
untouched and reports the end-to-end metrics listed in BENCHMARK.json;
`--trace 1` runs a fixed number of ops untraced and then traced, and reports
the per-layer metrics plus the tracing overhead. Set-up time is measured in
fresh interpreters either way. Throughput is also reported normalized to a
fixed reference loop timed between ops (see REFERENCE_RATE).

The report (every metric by name and unit, the machine record) goes to
stdout and to perfbench/results/; the last stdout line is the JSON result.
Exit status: 0 when every check passed, 1 when the correctness gate failed,
2 when the benchmark could not run (for instance no saucer under ./src).
Seeds 1-50 were used to tune and check the benchmark; seed HELD_OUT_SEED is
kept for confirming later gain claims.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

HELD_OUT_SEED = 7919

#: The host's speed drifts by +-20% over minutes. After every REFERENCE_EVERY_S
#: of op time, a fixed pure-Python loop runs for REFERENCE_SHARE of that time;
#: norm_work_per_s is work_per_s scaled to a host running it at REFERENCE_RATE.
REFERENCE_EVERY_S = 0.5
REFERENCE_SHARE = 0.1
REFERENCE_RATE = 1e7
SETUP_REPEATS = 3
SETUP_METRICS = ("setup.import_sympy_s", "setup.import_saucer_s", "setup.catalogs_s")
#: Every per-layer metric a traced run prints, in layer order.
LAYER_REPORT = (*SETUP_METRICS, *tracing.REPORTED, "tracing.overhead_frac")

#: Rough op time per workload, used only to size the traced run so that its
#: untraced and traced halves together take about --seconds.
NOMINAL_OP_S = {"verify": 2.5, "plan": 0.2, "trajectory": 1.3}


def _median(values):
    return statistics.median(values) if values else 0.0


# -- set-up --------------------------------------------------------------------

def _sympy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the top-level sympy package, from -X importtime."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[2].strip() == "sympy":
            return int(parts[1]) / 1e6
    return 0.0


def measure_setup(trace: bool) -> tuple[list, dict]:
    """Cold starts in SETUP_REPEATS fresh interpreters, and their median split."""
    totals, sympy_s, saucer_s, caches_s = [], [], [], []
    flags = ["-X", "importtime"] if trace else []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, *flags, str(HERE / "setup_child.py"), str(ROOT)],
                              capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(rec["import_saucer_s"] + rec["caches_s"])
        sy = _sympy_import_s(proc.stderr) if trace else 0.0
        sympy_s.append(sy)
        saucer_s.append(rec["import_saucer_s"] - (sy if rec["sympy_in_import"] else 0.0))
        caches_s.append(rec["caches_s"] - (0.0 if rec["sympy_in_import"] else sy))
    return totals, dict(zip(SETUP_METRICS, map(_median, (sympy_s, saucer_s, caches_s))))


# -- machine record ------------------------------------------------------------

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    kernels = sys.modules.get("saucer.kernels")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "sympy": importlib.metadata.version("sympy"),
        "backend": getattr(kernels, "BACKEND", "none"),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- measuring -----------------------------------------------------------------

def reference_loop(seconds: float) -> tuple[int, float]:
    """(iterations, elapsed) of a fixed pure-Python float loop run for `seconds`.

    Any thread the program left running would slow this loop too and hide
    the program's own cost, so that is refused.
    """
    if threading.active_count() > 1:
        raise RuntimeError(f"{threading.active_count() - 1} threads outlived an op; "
                           "the host speed cannot be measured")
    n, x, y = 0, 0.1, 0.1
    start = time.perf_counter()
    while True:
        for _ in range(1000):
            x = x * 0.999 + y * 0.001
            y = y - 5e-4 * x + 1e-4
        n += 1000
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n, elapsed


def run_for(workload, items, seconds: float) -> tuple[list, float]:
    """Closed loop until `seconds` of op time is measured and a round is complete.

    Between ops, the reference loop runs for REFERENCE_SHARE of the op time
    since its last sample; returns the ops and the reference loop's mean rate.
    """
    ops, busy, since = [], 0.0, 0.0
    ref_n, ref_s = 0, 0.0
    while busy < seconds or len(ops) % workload.round_ops:
        ops.append(workloads.run_op(workload, next(items)))
        busy += ops[-1].latency_s
        since += ops[-1].latency_s
        done = not (busy < seconds or len(ops) % workload.round_ops)
        if since >= REFERENCE_EVERY_S or done:
            n, el = reference_loop(max(REFERENCE_SHARE * since, 1e-3))
            ref_n, ref_s, since = ref_n + n, ref_s + el, 0.0
    return ops, ref_n / ref_s


def run_traced(workload, items: list) -> tuple[list, list, tracing.Tracer]:
    """The same ops untraced, then traced."""
    untraced = [workloads.run_op(workload, item) for item in items]
    tracer = tracing.Tracer()

    def in_root_span(item):
        return tracer.call_span(f"{workload.name}.op", workload.run, (item,))

    traced = []
    with tracer.installed():
        for i, item in enumerate(items):
            tracer.op = i
            traced.append(workloads.run_op(workload, item, in_root_span))
    return untraced, traced, tracer


def end_to_end(workload, ops: list, setup_s: float, ref_rate: float) -> tuple[dict, dict]:
    """(gated metrics, report under the workload-specific metric names)."""
    lat = [op.latency_s for op in ops]
    busy = sum(lat)
    work = sum(op.work for op in ops)
    failed = sum(op.failed for op in ops)
    p50_ms = _median(lat) * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work_per_s = work / busy if busy else 0.0
    metrics = {"setup_s": setup_s, "norm_work_per_s": work_per_s * REFERENCE_RATE / ref_rate,
               "peak_rss_mb": rss_mb}
    report = {"setup_s": (setup_s, "s"),
              "norm_work_per_s": (metrics["norm_work_per_s"], "1/s"),
              "work_per_s": (work_per_s, "1/s"),
              "reference_rate": (ref_rate, "1/s"),
              "fail_frac": (failed / len(ops), f"ratio (base {failed}/{len(ops)} ops)"),
              "peak_rss_mb": (rss_mb, "MB")}
    if workload.name == "verify":
        report["verify_s"] = (p50_ms / 1e3, "s")
    elif workload.name == "plan":
        p90, n_beyond = stats.tail(lat, 90.0)
        report["plans_per_s"] = (len(ops) / busy, "1/s")
        report["plan_p50_ms"] = (p50_ms, "ms")
        report["plan_p90_ms"] = (None if p90 is None else p90 * 1e3,
                                 f"ms ({n_beyond} of {len(lat)} samples beyond)")
    else:
        report["samples_per_s"] = (work / busy, "1/s")
    return metrics, report


def _layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


# -- main ----------------------------------------------------------------------

def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = _load_spec()
    try:
        workloads.import_saucer(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import saucer from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)

    setup_samples, setup_split = measure_setup(trace)
    setup_s = _median(setup_samples)
    workloads.warm_caches()
    inputs = workload.inputs(args.seed)
    first = next(inputs)
    warm = workloads.run_op(workload, first) if workload.warm_up else None
    inputs = itertools.chain([first], inputs)

    errors = list(warm.errors) if warm else []
    if trace:
        rounds = args.seconds / (2.0 * NOMINAL_OP_S[workload.name] * workload.round_ops)
        n = max(1, round(rounds)) * workload.round_ops
        items = list(itertools.islice(inputs, n))
        untraced, traced, tracer = run_traced(workload, items)
        ops = untraced + traced
        pairs = zip(untraced, traced)
    else:
        ops, ref_rate = run_for(workload, inputs, args.seconds)
        pairs = [(warm, ops[0])] if warm else []
    for op in ops:
        errors.extend(op.errors)
    for a, b in pairs:
        if not (a.failed or b.failed) and a.fingerprint != b.fingerprint:
            errors.append(f"same {workload.name} input gave different results")

    machine = machine_record()
    if trace:
        values = tracer.layer_totals()
        values.update(setup_split)
        wall_u = sum(op.latency_s for op in untraced)
        values["tracing.overhead_frac"] = (sum(op.latency_s for op in traced) - wall_u) / wall_u
        report = {name: (values.get(name, 0.0), _layer_unit(name)) for name in LAYER_REPORT}
        entries = spec["per_layer"]
    else:
        values, report = end_to_end(workload, ops, setup_s, ref_rate)
        entries = spec["end_to_end"]
    metrics = {e["name"]: {"value": float(values.get(e["name"], 0.0)), "unit": e["unit"]}
               for e in entries}
    failed = sum(op.failed for op in ops)
    correct = not errors

    print(f"perfbench {workload.name} seed={args.seed} trace={int(trace)} "
          f"ops={len(ops)} failed={failed} correct={correct}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>12} {unit}")
    if trace and tracer.missing:
        print("  functions not found, reported as 0: " + ", ".join(tracer.missing))
    for err in errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": int(trace), "machine": machine, "correct": correct,
              "attempted": len(ops), "failed": failed, "errors": errors[:20],
              "metrics": metrics, "report": {k: v[0] for k, v in report.items()},
              "setup_samples_s": setup_samples,
              "latencies_s": [op.latency_s for op in ops]}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if trace:
        tracer.write_spans(f"{stem}-spans.jsonl.gz")

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
