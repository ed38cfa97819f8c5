"""Benchmark of the quantum-replicator CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: portrait-center, portrait-converge, scan-dense, analyze-batch (see
METRICS.md).  The seed draws the specs; the program only sees the generated
spec files.  One closed-loop client runs the workload's CLI
calls in a child process (child.py) for S seconds and every call's exit code
and output digest is compared with the benchmark's own reference model
(reference.py), then semantic checks run on the outputs outside the timed
region.  Times are scaled to a reference CPU speed (speed.py) so that the
speed swings of a shared host cancel out.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run (tracing.py).  Exit code 0 when every check passed, 1 when one
failed, 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
# Set-ups before the timed passes, and as many after them, so that one slow
# phase of a shared host does not hold all of them.
SETUP_REPS = 5
# p99 is printed only when at least ten samples lie beyond it.
TAIL_SAMPLES = 1000
# sha256 of `quantum-replicator demo a` output: the demo has no seed, so its
# bytes are pinned here.
DEMO_A_SHA = "d3a2f64b7239b28eee5cf0b546812ef92b783a6c271c5472661b86a0542fe341"
# argv: src dir, perfbench dir, demo output, speed output.  The sampler
# starts before the package is imported.
SETUP_CODE = "\n".join([
    "import sys",
    "sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])",
    "import speed",
    "with speed.Sampler() as sampler:",
    "    from quantum_replicator.cli import main",
    "    code = main(['demo', 'a', '--out', sys.argv[3]])",
    "with open(sys.argv[4], 'w') as fh:",
    "    fh.write(f'{sampler.speed()!r} {sampler.spent!r}')",
    "sys.exit(code)",
])


def measure_setup(workdir, reps):
    """Seconds, scaled to the reference CPU speed, for fresh interpreters to
    import the package and finish `demo a`."""
    times, failures = [], []
    out, speed_out = workdir / "demo_a.json", workdir / "setup_speed.txt"
    for _ in range(reps):
        for path in (out, speed_out):
            if path.exists():
                path.unlink()
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(out), str(speed_out)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60)
        wall = time.perf_counter() - start
        if speed_out.exists():
            speed, spent = map(float, speed_out.read_text().split())
            times.append((wall - spent) * speed)
        else:  # a failed set-up; its wall time keeps the metric defined
            times.append(wall)
        sha = workloads.digest(out.read_bytes() if out.exists() else None)
        if proc.returncode != 0 or sha != DEMO_A_SHA or not speed_out.exists():
            failures.append({"argv": ["demo", "a"], "exit": proc.returncode,
                             "sha256": sha, "stderr": proc.stderr.decode()[-500:]})
    return times, failures


def run_child(wl, workdir, seconds, trace):
    manifest = {
        "src": str(SRC),
        "calls": [[c.argv, c.out, c.code, c.sha] for c in wl.calls],
        "seconds": seconds,
        "trace": bool(trace),
        "spans_out": str(OUT_ROOT / f"spans-{wl.name}.json"),
    }
    manifest_path = workdir / "manifest.json"
    result_path = workdir / "result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    child = HERE / "child.py"
    # The last pass may start just before `seconds` is up and run past it.
    proc = subprocess.run([sys.executable, str(child), str(manifest_path), str(result_path)],
                          cwd=ROOT, timeout=2 * seconds + 60)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(wl, result, setup_times, attempted, failed):
    pass_s = statistics.median(result["scaled_s"])
    return {
        "pass_s": (pass_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "work_per_s": (wl.work / pass_s, "1/s"),
    }


def latency_line(latencies_s):
    """Per-call latency of cli.main, printed but not a gated metric."""
    lat_ms = [v * 1e3 for v in latencies_s]
    line = f"cli.main latency over {len(lat_ms)} calls: p50 {statistics.median(lat_ms):.4f} ms"
    if len(lat_ms) >= TAIL_SAMPLES:
        line += f", p99 {statistics.quantiles(lat_ms, n=100)[98]:.4f} ms"
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quantum_replicator" / "cli.py").is_file():
        sys.stderr.write(f"no package to measure: {SRC / 'quantum_replicator'} is missing\n")
        return 2

    workdir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup_times, failures = [], []
        if not args.trace:
            setup_times, failures = measure_setup(workdir, SETUP_REPS)
        result = run_child(wl, workdir, args.seconds, args.trace)
        failures += result["failures"]
        if not args.trace:
            times, more_failures = measure_setup(workdir, SETUP_REPS)
            setup_times += times
            failures += more_failures
        attempted = len(setup_times) + result["attempted"]
        for name, check in wl.checks:
            attempted += 1
            try:
                ok = check(workdir)
            except Exception:  # e.g. output too damaged to parse: a failed check
                ok = False
                traceback.print_exc()
            if not ok:
                failures.append({"check": name})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = hashlib.sha256("".join(f"{c.code} {c.sha}\n" for c in wl.calls).encode())
    print(f"workload {wl.name} seed {args.seed}: {json.dumps(wl.info)}")
    print(f"record sha256 {record.hexdigest()} over {len(wl.calls)} call(s); "
          f"{len(result['walls_s'])} timed passes of {wl.work} {wl.unit}")
    print("timed passes, wall (s) " + " ".join(f"{w:.3f}" for w in result["walls_s"]))
    print("timed passes, scaled (s) " + " ".join(f"{w:.3f}" for w in result["scaled_s"]))
    if not args.trace:
        print(latency_line(result["latencies_s"]))
    for failure in failures[:10]:
        print("FAILED " + json.dumps(failure)[:400])
    failed = len(failures)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(wl, result, setup_times, attempted,
                                               failed).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def unit_of(name):
    if name.endswith("_per_s"):
        return "B/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("ns_per_step"):
        return "ns"
    if name == "cli.out_bytes":
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
