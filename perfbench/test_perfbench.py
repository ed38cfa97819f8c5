"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py

They run run.py end to end with a short time budget (each run still makes
three timed passes).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seconds", "0.1"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def bench(workload, seed, trace=0, root=ROOT):
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    return json.loads(lines[-1])


def record_of(lines):
    return next(re.search(r"record sha256 (\w+)", ln).group(1)
                for ln in lines if ln.startswith("record"))


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "B")}


def test_same_seed_same_digests_and_counts():
    (p1, l1), (p2, l2) = bench("scan-dense", 3, trace=1), bench("scan-dense", 3, trace=1)
    assert p1.returncode == p2.returncode == 0, p1.stdout + p1.stderr
    assert record_of(l1) == record_of(l2)
    assert counts(result_of(l1)) == counts(result_of(l2))
    assert counts(result_of(l1))["scenarios.lattice_points"] == 39711


def test_traced_run_keeps_output_bytes():
    # Every traced pass compares each call's output digest with the reference.
    proc, lines = bench("analyze-batch", 4, trace=1)
    result = result_of(lines)
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0, proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.main.calls"] == workloads.BATCH_SPECS * len(workloads.BATCH_COMMANDS)
    assert m["games.quantum_transform.calls"] > 0 and m["stability.classify.calls"] > 0
    assert "trace.overhead_frac" in m


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_second_seed_passes_every_check(workload):
    proc, lines = bench(workload, 7)
    result = result_of(lines)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_output_byte_fails(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    cli = tmp_path / "src" / "quantum_replicator" / "cli.py"
    text = cli.read_text()
    assert 'return "\\n".join(lines) + "\\n"' in text
    cli.write_text(text.replace('return "\\n".join(lines) + "\\n"',
                                'return "\\n".join(lines) + " \\n"'))
    proc, lines = bench("scan-dense", 3, root=tmp_path)
    result = result_of(lines)
    assert proc.returncode == 1 and not result["correct"] and result["failed"] > 0


def test_refuses_checkout_without_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc, lines = bench("scan-dense", 1, root=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)
