"""Timed passes of one workload, run in a process of its own.

Usage: python3 child.py MANIFEST RESULT

The manifest (written by run.py) lists the CLI calls with their expected exit
codes and output digests.  One closed-loop client calls
``quantum_replicator.cli.main(argv)`` in-process, one call after another, in
timed passes until the time is up.  The package is imported before timing
starts; there is no separate warm-up pass (a first pass measured no slower
than later ones).  A `speed.Sampler` runs through every pass, and each pass
is also reported scaled to the reference CPU speed; run.py reports the median
scaled pass.  Every call's exit code and ``--out`` digest is compared with the
expectation.  With tracing on, half the time goes to untraced passes and half
to traced ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed
from workloads import ABSENT

MIN_PASSES = 3
CHUNK = 1 << 20


def file_stats(path):
    """(sha256 or ABSENT, bytes, newlines) of a file, read in chunks so the
    check adds little to the peak memory of the process."""
    sha, size, lines = hashlib.sha256(), 0, 0
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(CHUNK):
                sha.update(chunk)
                size += len(chunk)
                lines += chunk.count(b"\n")
    except FileNotFoundError:
        return ABSENT, 0, 0
    return sha.hexdigest(), size, lines


class Client:
    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.attempted = 0
        self.failures = []
        self.out_bytes = 0
        self.out_rows = 0

    def call(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            return exc.code
        except Exception:  # a crash is a failed call, not a crashed benchmark
            return "exception: " + traceback.format_exc(limit=3)

    def run_pass(self):
        """(wall seconds, scaled seconds, per-call seconds) of one pass; failures
        are recorded.  The times leave out the sampler's own time."""
        latencies = []
        self.out_bytes = self.out_rows = 0
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                speed.Sampler() as sampler:
            for argv, out, code, sha in self.calls:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)
                spent = sampler.spent
                start = time.perf_counter()
                rc = self.call(argv)
                latencies.append(time.perf_counter() - start - (sampler.spent - spent))
                got, size, lines = file_stats(out)
                self.attempted += 1
                if rc != code or got != sha:
                    self.failures.append({"argv": argv, "exit": rc, "expected_exit": code,
                                          "sha256": got, "expected_sha256": sha})
                self.out_bytes += size
                if out.endswith(".csv") and size:
                    self.out_rows += lines - 1  # the header is not a row
        wall = sum(latencies)
        return wall, wall * sampler.speed(), latencies


def timed_passes(client, seconds, on_pass=None):
    walls, scaled, latencies = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, wall_scaled, lat = client.run_pass()
        walls.append(wall)
        scaled.append(wall_scaled)
        latencies.extend(lat)
        if on_pass is not None:
            on_pass()
    return walls, scaled, latencies


def main(manifest_path, result_path):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from quantum_replicator import cli

    client = Client(cli, manifest["calls"])
    seconds = manifest["seconds"]
    result = {}
    if not manifest["trace"]:
        walls, scaled, latencies = timed_passes(client, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["latencies_s"] = latencies
    else:
        import tracing

        walls, scaled, _ = timed_passes(client, seconds / 2)
        tracer = tracing.Tracer()
        per_pass = []
        last_spans = []

        def collect():
            per_pass.append(tracer.layer_metrics(client.out_bytes, client.out_rows))
            last_spans[:] = tracer.spans
            tracer.reset()

        tracer.install()
        try:
            traced_walls, traced_scaled, _ = timed_passes(client, seconds / 2,
                                                          on_pass=collect)
        finally:
            tracer.uninstall()
        tracing.dump(last_spans, manifest["spans_out"])
        layers = tracing.median_metrics(per_pass)
        layers["trace.overhead_frac"] = (statistics.median(traced_scaled)
                                         / statistics.median(scaled) - 1.0)
        result["layers"] = layers
        result["traced_walls_s"] = traced_walls
    result.update(walls_s=walls, scaled_s=scaled, attempted=client.attempted,
                  failures=client.failures)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
