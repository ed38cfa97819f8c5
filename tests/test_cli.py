import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quantum_replicator
from quantum_replicator.cli import (_VALUE_FLAGS, COMMANDS, CSV_CHUNK_ROWS, _emit_json,
                                    _parse_args, build_parser, main)
from quantum_replicator import cli, dynamics
from quantum_replicator.dynamics import (GRID_LIMIT, MAX_STEPS_LIMIT, ReplicatorField,
                                         integrate, phase_portrait)
from quantum_replicator.ess import compare_classical_quantum
from quantum_replicator.games import (ClassicalBimatrix, InitialStateWeights,
                                      SimplifiedGame, quantum_transform)
from quantum_replicator.scenarios import RESOLUTION_LIMIT, make_case
from quantum_replicator.stability import linearize

CASE_A_SPEC = {"game": {"a": 1, "b": -1, "c": -1, "d": 1},
               "weights": [0.3, 0.4, 0.1, 0.2]}
CASE_C_SPEC = {"game": {"a": 1, "b": 3, "c": -2, "d": -1},
               "weights": [0.25, 0.60, 0.05, 0.10]}
CLASSICAL_C_SPEC = {"game": {"a": 1, "b": 3, "c": -2, "d": -1}, "weights": [1, 0, 0, 0]}


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment of a fresh interpreter that imports this package's source."""
    src = str(Path(quantum_replicator.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


class TestTransform:
    def test_classical_state_reproduces_game(self, spec_file, capsys):
        spec = spec_file({"game": {"a": 2, "b": 1, "c": 1, "d": 3},
                          "weights": [1, 0, 0, 0]})
        code, out, _ = run(capsys, "transform", "--spec", spec)
        assert code == 0
        payload = json.loads(out)
        assert payload["omega"] == [[0.0, 2.0], [1.0, 0.0]]
        assert payload["chi"] == [[0.0, 1.0], [3.0, 0.0]]
        assert (payload["K1"], payload["K2"]) == (1.0, 0.0)

    def test_case_a_k_params(self, spec_file, capsys):
        code, out, _ = run(capsys, "transform", "--spec", spec_file(CASE_A_SPEC))
        payload = json.loads(out)
        assert payload["K1"] == pytest.approx(0.2)
        assert payload["K2"] == pytest.approx(-0.2)

    def test_bad_weight_sum_exits_2(self, spec_file, capsys):
        spec = spec_file({"game": {"a": 1, "b": -1, "c": -1, "d": 1},
                          "weights": [0.3, 0.3, 0.2, 0.1]})
        code, _, err = run(capsys, "transform", "--spec", spec)
        assert code == 2
        assert "weights must sum to 1" in err

    def test_renormalize_flag(self, spec_file, capsys):
        spec = spec_file({"game": {"a": 1, "b": -1, "c": -1, "d": 1},
                          "weights": [3, 4, 1, 2]})
        code, out, _ = run(capsys, "transform", "--spec", spec, "--renormalize")
        assert code == 0
        assert json.loads(out)["K1"] == pytest.approx(0.2)

    def test_full_bimatrix_accepted(self, spec_file, capsys):
        spec = spec_file({"game": {"a11": 0, "a12": 1, "a21": 2, "a22": 0,
                                   "b11": 0, "b12": 3, "b21": 4, "b22": 0},
                          "weights": [1, 0, 0, 0]})
        code, out, _ = run(capsys, "transform", "--spec", spec)
        assert code == 0
        assert json.loads(out)["omega"] == [[0.0, 1.0], [2.0, 0.0]]

    def test_full_bimatrix_is_not_reduced(self, spec_file, capsys):
        # Finite entries whose reduction a12 - a22 overflows: the transform
        # mixes the entries as given and never needs the reduced constants.
        game = {"a11": 0.5, "a12": 1e308, "a21": 2, "a22": -1e308,
                "b11": 1, "b12": -3, "b21": 4, "b22": 0}
        weights = [0.25, 0.6, 0.05, 0.1]
        code, out, err = run(capsys, "transform", "--spec",
                             spec_file({"game": game, "weights": weights}))
        assert (code, err) == (0, "")
        pair = quantum_transform(ClassicalBimatrix(**game), InitialStateWeights(*weights))
        payload = json.loads(out)
        assert payload["omega"] == [list(row) for row in pair.omega]
        assert payload["chi"] == [list(row) for row in pair.chi]

    def test_missing_spec_file_exits_3(self, capsys):
        code, _, err = run(capsys, "transform", "--spec", "/nonexistent/spec.json")
        assert code == 3


class TestClassify:
    def test_case_c_quantum(self, spec_file, capsys):
        code, out, _ = run(capsys, "classify", "--spec", spec_file(CASE_C_SPEC))
        assert code == 0
        payload = json.loads(out)
        interior = [e for e in payload["equilibria"] if e["kind"] == "interior"][0]
        assert interior["tag"] == "saddle"
        assert interior["inside_unit_square"] is False

    def test_case_c_classical(self, spec_file, capsys):
        spec = spec_file({"game": CASE_C_SPEC["game"], "weights": [1, 0, 0, 0]})
        code, out, _ = run(capsys, "classify", "--spec", spec)
        payload = json.loads(out)
        interior = [e for e in payload["equilibria"] if e["kind"] == "interior"][0]
        assert interior["tag"] == "center-linearization"
        assert interior["inside_unit_square"] is True

    def test_degenerate_interior_omitted(self, spec_file, capsys):
        spec = spec_file({"game": {"a": 1, "b": 2, "c": 3, "d": 4},
                          "weights": [0.4, 0.3, 0.2, 0.1]})  # K1 = -K2 = 0.2
        code, out, _ = run(capsys, "classify", "--spec", spec)
        assert code == 0
        payload = json.loads(out)
        assert all(e["kind"] == "corner" for e in payload["equilibria"])
        assert payload["interior_omitted_reason"] == "K1+K2 = 0"


class TestEss:
    def test_case_a(self, spec_file, capsys):
        code, out, _ = run(capsys, "ess", "--spec", spec_file(CASE_A_SPEC))
        assert code == 0
        payload = json.loads(out)
        assert payload["flip"] == "gained-ess"
        assert payload["classical"]["is_attractor"] is True
        assert payload["classical"]["is_ess"] is False
        assert payload["quantum"]["is_ess"] is True


class TestSimulate:
    def test_case_a_trajectory(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", "--spec", spec_file(CASE_A_SPEC),
                         "--start", "0.9,0.1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,x,y"
        _, x, y = map(float, lines[-1].split(","))
        assert abs(x - 1.0) < 1e-4 and abs(y) < 1e-4

    def test_missing_start(self, spec_file, capsys):
        code, _, err = run(capsys, "simulate", "--spec", spec_file(CASE_A_SPEC))
        assert code == 2
        assert "start" in err

    @pytest.mark.parametrize("spec,start,options,status", [
        (CLASSICAL_C_SPEC, (0.3, 0.3), {"step": 0.3, "max_steps": 5000}, "max-steps"),
        (CASE_A_SPEC, (-0.1, 0.5), {}, "left-domain"),
        # the y velocity is NaN, the x velocity 0: not converged
        ({"game": {"a": 1, "b": -1, "c": 0, "d": 1}, "weights": [1, 0, 0, 0]},
         (0.0, 1e200), {}, "left-domain"),
    ], ids=["max-steps", "left-domain", "nan-velocity"])
    def test_csv_matches_the_trajectory(self, spec_file, tmp_path, capsys, spec, start,
                                        options, status):
        out_path = tmp_path / "traj.csv"
        argv = ["simulate", "--spec", spec_file(spec), f"--start={start[0]},{start[1]}",
                *(f"--{k.replace('_', '-')}={v!r}" for k, v in options.items())]
        code, out, err = run(capsys, *argv)
        assert run(capsys, *argv, "--out", str(out_path)) == (0, "", err)
        game, weights = spec["game"], spec["weights"]
        fld = ReplicatorField.quantum(SimplifiedGame(**game), InitialStateWeights(*weights))
        traj = integrate(fld, start, **options)
        assert traj.status == status
        assert err == f"status: {status} after {len(traj) - 1} steps\n"
        rows = [f"{t!r},{x!r},{y!r}" for t, x, y in zip(traj.times, traj.xs, traj.ys)]
        assert (code, out) == (0, "\n".join(["t,x,y", *rows]) + "\n")
        assert out_path.read_text() == out

    def test_memory_per_sample(self, spec_file, tmp_path):
        # The samples and the 4096-row CSV chunk are held, not the CSV lines or
        # a t cell per sample: each further sample raises the peak by about
        # 100 B here, no more than the 114 B of integrate alone.  Both orbits
        # fill a chunk and end max-steps.
        spec = spec_file(CLASSICAL_C_SPEC)
        build_parser()
        peaks = []
        for steps in (5_000, 25_000):
            tracemalloc.start()
            try:
                code = main(["simulate", "--spec", spec, "--start", "0.3,0.3",
                             "--max-steps", str(steps), "--out", str(tmp_path / "t.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert (peaks[1] - peaks[0]) / 20_000 < 135


class TestPortrait:
    def test_header_and_ids(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "portrait.csv"
        code, _, _ = run(capsys, "portrait", "--spec", spec_file(CASE_A_SPEC),
                         "--grid", "2", "--max-steps", "50", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "id,t,x,y"
        ids = {line.split(",")[0] for line in lines[1:]}
        assert ids == {"0", "1", "2", "3"}

    @pytest.mark.parametrize("spec,grid,options,statuses,drawn", [
        # 9 orbits x 1001 samples
        (CASE_C_SPEC, 3, {"max_steps": 1000}, {"max-steps"}, 9),
        # a coordination game: orbits converge after 455 to 543 samples
        ({"game": {"a": 2, "b": 1, "c": 3, "d": 1}, "weights": [0.5, 0.25, 0.25, 0]},
         3, {"step": 0.1, "max_steps": 5000, "convergence_tol": 1e-6}, {"converged"}, 9),
        # the centre seed (0.5, 0.5) is the rest point: it is skipped, ids run on
        ({"game": {"a": 1, "b": 1, "c": 1, "d": 1}, "weights": [1, 0, 0, 0]},
         5, {"step": 0.1, "convergence_tol": 1e-9}, {"converged"}, 24),
        # a long step: orbits land on the faces or leave the square
        ({"game": {"a": 1, "b": -6, "c": 6, "d": 4}, "weights": [1, 0, 0, 0]},
         3, {"step": 1.0, "max_steps": 1000}, {"max-steps", "left-domain"}, 9),
        (CASE_C_SPEC, 2, {"step": 1e-3, "max_steps": 3000}, {"max-steps"}, 4),
        (CLASSICAL_C_SPEC, 2, {"step": 0.3, "max_steps": 2000}, {"max-steps"}, 4),
    ], ids=["case-c-quantum", "converging", "rest-point-seed", "faces-left-domain",
            "step-1e-3", "step-0.3"])
    def test_csv_spanning_several_pieces(self, spec_file, tmp_path, capsys, spec, grid,
                                         options, statuses, drawn):
        out_path = tmp_path / "portrait.csv"
        flags = {"max_steps": "--max-steps", "step": "--step", "convergence_tol": "--tol"}
        argv = ["portrait", "--spec", spec_file(spec), "--grid", str(grid),
                *(f"{flags[k]}={v!r}" for k, v in options.items())]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(out_path))[0] == 0
        assert out_path.read_text() == out
        game, weights = spec["game"], spec["weights"]
        fld = ReplicatorField.quantum(SimplifiedGame(**game), InitialStateWeights(*weights))
        trajectories = phase_portrait(fld, grid, **options)
        assert len(trajectories) == drawn
        assert {traj.status for traj in trajectories} == statuses
        rows = [f"{tid},{t!r},{x!r},{y!r}"
                for tid, traj in enumerate(trajectories)
                for t, x, y in zip(traj.times, traj.xs, traj.ys)]
        assert len(rows) > CSV_CHUNK_ROWS
        assert out == "\n".join(["id,t,x,y", *rows]) + "\n"

    @pytest.mark.parametrize("flag,value", [
        ("--grid", "1"), ("--step", "0"), ("--max-steps", "0"), ("--tol", "nan"),
        ("--max-steps", "10000001")])
    @pytest.mark.parametrize("existing", [b"kept\n", None], ids=["existing", "missing"])
    def test_invalid_option_leaves_out_untouched(self, spec_file, tmp_path, capsys, flag,
                                                 value, existing):
        out_path = tmp_path / "portrait.csv"
        if existing is not None:
            out_path.write_bytes(existing)
        code, out, err = run(capsys, "portrait", "--spec", spec_file(CASE_C_SPEC),
                             flag, value, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if existing is None:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == existing

    @pytest.mark.parametrize("form", ["flag", "spec"])
    @pytest.mark.parametrize("grid", [GRID_LIMIT + 1, 10**400], ids=["limit+1", "1e400"])
    def test_grid_limit_refused_before_the_first_seed(self, spec_file, tmp_path, capsys,
                                                      monkeypatch, grid, form):
        def no_orbit(*args, **kwargs):
            raise AssertionError("a seed was integrated")
        monkeypatch.setattr(dynamics, "integrate", no_orbit)
        out_path = tmp_path / "portrait.csv"
        out_path.write_bytes(b"kept\n")
        if form == "flag":
            argv = ["--spec", spec_file(CASE_A_SPEC), "--grid", str(grid)]
        else:
            spec = {**CASE_A_SPEC, "options": {"grid": grid}}
            argv = ["--spec", spec_file(spec)]
        code, out, err = run(capsys, "portrait", *argv, "--max-steps", "1",
                             "--out", str(out_path))
        assert (code, out, err) == (2, "", "error: grid must be at most 1000\n")
        assert out_path.read_bytes() == b"kept\n"

    def test_memory_does_not_grow_with_the_grid(self, spec_file, tmp_path):
        # Trajectories are integrated and written one at a time.  500 steps keep
        # the call short under tracemalloc, which traces every float; holding
        # every trajectory would still make the grid-6 peak about twice the grid-3 one.
        spec = spec_file(CLASSICAL_C_SPEC)
        build_parser()
        peaks = []
        for grid in (3, 6):
            tracemalloc.start()
            try:
                code = main(["portrait", "--spec", spec, "--grid", str(grid),
                             "--max-steps", "500", "--out", str(tmp_path / "portrait.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] <= 1.5 * peaks[0]


FULL_DEVICE = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                 reason="no /dev/full on this platform")

# (spec, flags) of portraits drawn by one process and by several.
WORKER_CASES = {
    # The centre seed (0.5, 0.5) is the rest point and is skipped; with two
    # processes the second slice starts at the seed after it, with id 12.
    "rest-point-at-boundary": ({"game": {"a": 1, "b": 1, "c": 1, "d": 1},
                                "weights": [1, 0, 0, 0]},
                               ["--grid", "5", "--step", "0.1", "--tol", "1e-9"]),
    # converged orbits of unequal lengths, 455 to 543 samples
    "converging": ({"game": {"a": 2, "b": 1, "c": 3, "d": 1},
                    "weights": [0.5, 0.25, 0.25, 0]},
                   ["--grid", "3", "--step", "0.1", "--max-steps", "5000", "--tol", "1e-6"]),
    # max-steps orbits on the faces and left-domain orbits of unequal lengths
    "faces-left-domain": ({"game": {"a": 1, "b": -6, "c": 6, "d": 4},
                           "weights": [1, 0, 0, 0]},
                          ["--grid", "3", "--step", "1.0", "--max-steps", "1000"]),
}


def use_cpus(monkeypatch, cpus):
    """Make every portrait run on min(cpus, its seeds) processes, whatever its size."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_FORK_MIN_STEPS", 0)


def count_forks(monkeypatch):
    """The pids of the processes that os.fork starts from now on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPortraitWorkers:
    @pytest.mark.parametrize("case", sorted(WORKER_CASES))
    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_same_bytes_as_one_process(self, spec_file, tmp_path, capsys, monkeypatch,
                                       case, cpus):
        spec, flags = WORKER_CASES[case]
        argv = ["portrait", "--spec", spec_file(spec), *flags]
        use_cpus(monkeypatch, 1)
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        use_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        assert run(capsys, *argv) == (0, expected, "")
        assert run(capsys, *argv, "--out", str(tmp_path / "portrait.csv")) == (0, "", "")
        assert (tmp_path / "portrait.csv").read_text() == expected
        assert len(forks) == 2 * (cpus - 1)
        assert_no_child_left()
        ids = [int(line.split(",", 1)[0]) for line in expected.splitlines()[1:]]
        assert sorted(set(ids)) == list(range(ids[-1] + 1))
        assert ids == sorted(ids)

    def test_rest_point_seed_just_before_the_second_slice(self):
        spec, _ = WORKER_CASES["rest-point-at-boundary"]
        fld = ReplicatorField.quantum(SimplifiedGame(**spec["game"]),
                                      InitialStateWeights(*spec["weights"]))
        seeds = dynamics._portrait_seeds(fld, 5, 0.1, 100, 1e-9)
        assert len(seeds) == 24
        assert seeds[11] == (1 / 2, 2 / 6) and seeds[12] == (1 / 2, 4 / 6)

    def test_worker_that_cannot_start_leaves_its_slice_here(self, spec_file, capsys,
                                                            monkeypatch):
        spec, flags = WORKER_CASES["converging"]
        argv = ["portrait", "--spec", spec_file(spec), *flags]
        use_cpus(monkeypatch, 1)
        expected = run(capsys, *argv)
        use_cpus(monkeypatch, 3)
        fork, started = os.fork, []

        def fork_once():  # the second worker finds no process to run in
            if started:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            started.append(fork())
            return started[-1]
        monkeypatch.setattr(os, "fork", fork_once)
        assert run(capsys, *argv) == expected
        assert len(started) == 1
        assert_no_child_left()

    @FULL_DEVICE
    def test_failed_write_kills_and_reaps_the_workers(self, spec_file, capsys, monkeypatch):
        parent = os.getpid()
        integrate = dynamics.integrate

        slept = []

        def slow_in_workers(*args, **kwargs):
            if os.getpid() != parent and not slept:
                slept.append(60)
                time.sleep(60)
            return integrate(*args, **kwargs)
        monkeypatch.setattr(dynamics, "integrate", slow_in_workers)
        use_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        start = time.monotonic()
        code, out, err = run(capsys, "portrait", "--spec", spec_file(CASE_C_SPEC),
                             "--grid", "4", "--max-steps", "2000", "--out", "/dev/full")
        assert time.monotonic() - start < 30  # the workers were not waited for
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot write /dev/full") and err.count("\n") == 1
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("how,why", [("raise", "exit status 1"),
                                         ("kill", "signal 9")])
    def test_failed_worker_exits_3_and_never_returns(self, spec_file, tmp_path, capsys,
                                                     monkeypatch, how, why):
        parent = os.getpid()
        integrate = dynamics.integrate

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), 9)
                raise RuntimeError("worker failure")
            return integrate(*args, **kwargs)
        monkeypatch.setattr(dynamics, "integrate", failing)
        use_cpus(monkeypatch, 3)
        marker = tmp_path / "returned"
        try:
            code = main(["portrait", "--spec", spec_file(CASE_A_SPEC), "--grid", "3",
                         "--max-steps", "100", "--out", str(tmp_path / "portrait.csv")])
        finally:
            with open(marker, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            if os.getpid() != parent:  # a worker came back here: end it, the test fails
                os._exit(0)
        assert marker.read_text(encoding="utf-8") == f"{parent}\n"
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error: portrait worker for orbits 3-5 failed ({why})\n")
        assert_no_child_left()

    def test_worker_count(self, monkeypatch):
        seeds = [(0.5, 0.5)] * 6
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        assert cli._worker_count(seeds, 100_000) == 4
        assert cli._worker_count(seeds[:3], 100_000) == 3
        # the samples held by all processes at once stay within one trajectory's bound
        assert cli._worker_count(seeds, MAX_STEPS_LIMIT // 2) == 2
        assert cli._worker_count(seeds, MAX_STEPS_LIMIT) == 1
        # below the floor of requested steps, one process
        assert cli._worker_count(seeds, -(-cli._FORK_MIN_STEPS // 6)) == 4
        assert cli._worker_count(seeds, cli._FORK_MIN_STEPS // 6 - 1) == 1
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert cli._worker_count(seeds, 100_000) == 1

    def test_one_process_without_fork_or_with_another_thread(self, monkeypatch):
        import threading
        seeds = [(0.5, 0.5)] * 6
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert cli._worker_count(seeds, 100_000) == 1
        finally:
            stop.set()
            thread.join()
        assert cli._worker_count(seeds, 100_000) == 4
        monkeypatch.delattr(os, "fork")
        assert cli._worker_count(seeds, 100_000) == 1


class TestScan:
    def test_header_and_vertex_absent(self, spec_file, capsys):
        code, out, _ = run(capsys, "scan", "--spec", spec_file(CASE_A_SPEC),
                           "--resolution", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "w11,w12,w21,w22,flip"
        assert len(lines) <= 5
        assert not any(line.startswith("1.0,0.0,0.0,0.0") for line in lines[1:])

    def test_byte_stable(self, spec_file, capsys):
        spec = spec_file(CASE_A_SPEC)
        _, out1, _ = run(capsys, "scan", "--spec", spec, "--resolution", "8")
        _, out2, _ = run(capsys, "scan", "--spec", spec, "--resolution", "8")
        assert out1 == out2

    @pytest.mark.parametrize("form", ["flag", "spec"])
    @pytest.mark.parametrize("resolution", [RESOLUTION_LIMIT + 1, 10**400])
    def test_resolution_limit_refused_before_any_allocation(self, spec_file, tmp_path,
                                                            capsys, resolution, form):
        out_path = tmp_path / "scan.csv"
        out_path.write_bytes(b"kept\n")
        if form == "flag":
            argv = ["--spec", spec_file(CASE_A_SPEC), "--resolution", str(resolution)]
        else:
            spec = {**CASE_A_SPEC, "options": {"resolution": resolution}}
            argv = ["--spec", spec_file(spec)]
        build_parser()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "scan", *argv, "--out", str(out_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", "error: resolution must be at most 250\n")
        assert out_path.read_bytes() == b"kept\n"
        assert peak < 64 * 1024

    def test_memory_per_hit(self, spec_file, tmp_path):
        # The hits are held, their CSV lines are not: about 340 B a hit here.
        out_path = tmp_path / "scan.csv"
        spec = spec_file({**CASE_A_SPEC, "weights": [1, 0, 0, 0]})
        build_parser()
        tracemalloc.start()
        try:
            code = main(["scan", "--spec", spec, "--resolution", "60",
                         "--out", str(out_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        hits = out_path.read_text().count("\n") - 1
        assert hits == 29_791
        assert peak / hits < 400


class TestDemo:
    @pytest.mark.parametrize("case,flip", [("a", "gained-ess"), ("b", "lost-ess")])
    def test_flip(self, capsys, case, flip):
        code, out, _ = run(capsys, "demo", case)
        assert code == 0
        payload = json.loads(out)
        assert payload["comparison"]["flip"] == flip
        assert all(c["ok"] for c in payload["checks"])

    def test_case_c(self, capsys):
        code, out, _ = run(capsys, "demo", "c")
        payload = json.loads(out)
        assert payload["comparison"]["flip"] == "none"

    def test_round_trip_json(self, capsys):
        code, out, _ = run(capsys, "demo", "a")
        assert json.loads(out)  # parses

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "demo", "b")
        _, out2, _ = run(capsys, "demo", "b")
        assert out1 == out2


GAME = CASE_A_SPEC["game"]
WEIGHTS = CASE_A_SPEC["weights"]


class TestInProcessCalls:
    @pytest.mark.parametrize("argv", [
        ["portrait", "--grid", "2", "--max-steps", "30"],
        ["ess"],
        ["simulate", "--start", "0.9,0.1", "--max-steps", "40"],
    ])
    def test_call_after_argparse_rejection_matches_fresh_process(
            self, spec_file, capsys, argv):
        argv = argv + ["--spec", spec_file(CASE_A_SPEC)]
        for rejected in (["classify", "--bogus"], ["portrait", "--grid", "x"], []):
            with pytest.raises(SystemExit):
                main(rejected)
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "quantum_replicator.cli", *argv],
                               capture_output=True, env=fresh_env(), check=False)
        assert (code, out.encode(), err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0 and out

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_sequence_of_calls_matches_fresh_processes(self, spec_file, tmp_path, capsys,
                                                       monkeypatch):
        # The help and usage text wrap at the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        raw = spec_file({"game": GAME, "weights": [3, 4, 1, 2]}, "raw.json")
        huge = spec_file({"game": GAME, "weights": [1e308, 1e308, 0, 0]}, "huge.json")
        bad = spec_file({"game": {**GAME, "a": "1"}, "weights": WEIGHTS}, "bad.json")
        good = spec_file(CASE_A_SPEC, "good.json")
        out = str(tmp_path / "out.json")
        unwritable = str(tmp_path / "missing" / "out.json")
        calls = [
            (["ess", "--spec", raw, "--renormalize", "--tol", "0.5", "--out", out], 0),
            (["ess", "--spec", raw, "--out", out], 2),
            (["ess", "--spec", huge, "--renormalize", "--out", out], 0),
            (["--help"], 0),
            (["classify", "--spec", good, "--bogus"], 2),
            (["transform", "--spec", bad], 2),
            (["transform", "--spec", good, "--out", unwritable], 3),
            (["classify", "--spec", good, "--out", out], 0),
            (["classify", "--spec", good, "extra"], 2),
        ]
        env = fresh_env()

        def written():
            if not os.path.exists(out):
                return None
            data = Path(out).read_bytes()
            os.remove(out)
            return data

        for argv, expected in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # --help and argparse rejections
                code = exc.code
            captured = capsys.readouterr()
            in_process = (code, captured.out.encode(), captured.err.encode(), written())
            fresh = subprocess.run([sys.executable, "-m", "quantum_replicator.cli", *argv],
                                   capture_output=True, env=env, check=False)
            assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr,
                                  written()), argv
            assert code == expected, argv


class TestFreshInterpreter:
    def test_no_subcommand_imports_numpy(self, spec_file, tmp_path):
        # The package uses the standard library only, also where numpy is installed.
        spec = spec_file(CASE_A_SPEC)
        calls = [["transform", "--spec", spec], ["classify", "--spec", spec],
                 ["ess", "--spec", spec],
                 ["simulate", "--spec", spec, "--start", "0.9,0.1", "--max-steps", "50"],
                 ["portrait", "--spec", spec, "--grid", "2", "--max-steps", "50"],
                 ["scan", "--spec", spec, "--resolution", "4"], ["demo", "a"]]
        assert [argv[0] for argv in calls] == list(COMMANDS)
        script = ("import json, sys\n"
                  "from quantum_replicator.cli import main\n"
                  "codes = [main(argv + ['--out', sys.argv[2]])"
                  " for argv in json.loads(sys.argv[1])]\n"
                  "print(codes, 'numpy' in sys.modules)\n")
        fresh = subprocess.run([sys.executable, "-c", script, json.dumps(calls),
                                str(tmp_path / "out")],
                               capture_output=True, text=True, env=fresh_env(), check=False)
        assert fresh.stdout == f"{[0] * len(calls)} False\n", fresh.stderr

    def test_import_adds_no_typing(self):
        # -S, so that no .pth file of site loads typing first.  The standard
        # modules the package imports are loaded before it: on later 3.13
        # releases dataclasses loads typing through inspect, and then the
        # package's own imports cannot be told apart.
        script = ("import sys, argparse, cmath, collections, dataclasses, functools, "
                  "itertools, json, math, os\n"
                  "preloaded = 'typing' in sys.modules\n"
                  "import quantum_replicator.cli\n"
                  "print(preloaded or 'typing' not in sys.modules)\n")
        fresh = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                               text=True, env=fresh_env(), check=False)
        assert fresh.stdout == "True\n", fresh.stderr

    @pytest.mark.parametrize("argv", [
        ["demo", "a"], ["scan", "--resolution", "30"],
        ["simulate", "--start", "0.9,0.1", "--max-steps", "50"]])
    def test_failed_write_to_stdout_exits_3(self, spec_file, argv):
        # demo's JSON fails at the flush; scan's 286 kB of CSV inside the write.
        # simulate's status line is not written when its CSV was not.
        if argv[0] != "demo":
            argv = argv + ["--spec", spec_file(CASE_A_SPEC)]
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so its first write to stdout fails
        try:
            fresh = subprocess.run([sys.executable, "-m", "quantum_replicator.cli", *argv],
                                   stdout=write_end, stderr=subprocess.PIPE,
                                   env=fresh_env(), check=False)
        finally:
            os.close(write_end)
        err = fresh.stderr.decode()
        assert fresh.returncode == 3, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert "status:" not in err


@pytest.mark.parametrize("command,flag,value,code,expected", [
    ("classify", "--tol", "-1e-3", 2, "error: tol must be positive, got -0.001\n"),
    ("portrait --grid 2 --max-steps 5", "--step", "-1e-2",
     2, "error: step must be positive, got -0.01\n"),
    ("portrait --grid 2 --max-steps 5", "--tol", "-inf",
     2, "error: tol must be finite, got -inf\n"),
    ("simulate", "--start", "-0.1,0.5", 0, "status: left-domain after 1 steps\n"),
], ids=["classify-tol", "portrait-step", "portrait-tol", "simulate-start"])
@pytest.mark.parametrize("form", ["flag value", "flag=value"])
def test_negative_value_after_a_flag(spec_file, capsys, command, flag, value, code,
                                     expected, form):
    argv = [flag, value] if form == "flag value" else [f"{flag}={value}"]
    result = run(capsys, *command.split(), *argv, "--spec", spec_file(CASE_A_SPEC))
    assert result[0] == code
    assert result[2] == expected


@pytest.mark.parametrize("command,flag,value", [
    ("classify", "--tol", "-1e-3"),
    ("portrait --grid 2 --max-steps 5", "--step", "-1e-2"),
    ("portrait --grid 2 --max-steps 5", "--tol", "-inf"),
    ("simulate", "--start", "-0.1,0.5"),
], ids=["classify-tol", "portrait-step", "portrait-tol", "simulate-start"])
def test_abbreviated_flag_takes_a_negative_value(spec_file, capsys, command, flag, value):
    # --to, --ste and --star are each a prefix of one option of their command only.
    argv = [*command.split(), "--spec", spec_file(CASE_A_SPEC)]
    assert run(capsys, *argv, flag[:-1], value) == run(capsys, *argv, flag, value)


def test_ambiguous_flag_before_a_negative_value_is_refused(spec_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", spec_file(CASE_A_SPEC), "--st", "-1e-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: ambiguous option: --st could match --start, --step\n")


def test_dash_spec_name_after_its_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-s.json").write_text(json.dumps(CASE_A_SPEC))
    result = run(capsys, "ess", "--spec", "-s.json")
    assert result[0] == 0
    assert result == run(capsys, "ess", "--spec=-s.json")


def test_dash_out_name_after_its_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, printed, _ = run(capsys, "demo", "a")
    assert run(capsys, "demo", "a", "--out", "-o.json") == (code, "", "")
    assert (tmp_path / "-o.json").read_text(encoding="utf-8") == printed


@pytest.mark.parametrize("name", ["a\x00b", "x\ud800.json"], ids=["nul", "surrogate"])
@pytest.mark.parametrize("argv,flag", [(["ess"], "--spec"), (["demo", "a"], "--out")])
@pytest.mark.parametrize("form", ["flag value", "flag=value"])
def test_path_that_open_refuses_exits_3(tmp_path, monkeypatch, capsys, name, argv, flag,
                                        form):
    monkeypatch.chdir(tmp_path)
    words = [flag, name] if form == "flag value" else [f"{flag}={name}"]
    code, out, err = run(capsys, *argv, *words)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,error", [
    (["ess", "--spec", "{dir}"], "error: cannot read spec file"),
    (["demo", "a", "--out", "{dir}"], "error: cannot write"),
    # ENOSPC comes when the file is closed, after all of the output was buffered.
    pytest.param(["demo", "a", "--out", "/dev/full"], "error: cannot write",
                 marks=FULL_DEVICE),
    pytest.param(["scan", "--spec", "{spec}", "--out", "/dev/full"], "error: cannot write",
                 marks=FULL_DEVICE),
], ids=["spec-dir", "out-dir", "json-full-device", "csv-full-device"])
def test_os_error_on_the_spec_or_out_path_exits_3(tmp_path, spec_file, capsys, argv,
                                                  error):
    # Only the prefix is matched: the text of an errno differs between platforms.
    argv = [word.format(dir=tmp_path, spec=spec_file(CASE_A_SPEC)) for word in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize("argv,code,error", [
    (["classify", "--spec", "no\nsuch.json"], 3,
     "cannot read spec file no\\nsuch.json: [Errno 2] No such file or directory: "
     "'no\\nsuch.json'"),
    (["demo", "a", "--out", "no_dir/x\ny.json"], 3,
     "cannot write no_dir/x\\ny.json: [Errno 2] No such file or directory: "
     "'no_dir/x\\ny.json'"),
    (["ess", "--spec", "bad\r\x1b.json"], 2,
     "spec file bad\\r\\x1b.json is not valid JSON: Expecting value: line 1 column 1 "
     "(char 0)"),
], ids=["spec", "out", "bad-json"])
def test_path_with_a_control_character_is_escaped(tmp_path, monkeypatch, capsys, argv,
                                                  code, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad\r\x1b.json").write_text("no json", encoding="utf-8")
    assert run(capsys, *argv) == (code, "", f"error: {error}\n")


def test_dash_value_is_judged_by_the_flag_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--tol", "-abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --tol: invalid float value: '-abc'\n")


@pytest.mark.parametrize("argv,flag", [
    *(([name, "a"] if name == "demo" else [name], flag)
      for name, command in COMMANDS.items() for flag in command.flags
      if flag in _VALUE_FLAGS),
    (["classify"], "--to"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_double_dash_value_is_refused(capsys, argv, flag):
    # argparse drops a "--" value and stores an empty list, on which some
    # Pythons crash and others read "--" as the value.
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}=--"])
    assert exc.value.code == 2
    full = next(name for name in _VALUE_FLAGS if name.startswith(flag))
    assert capsys.readouterr().err.endswith(
        f"error: argument {full}: expected one argument\n")


@pytest.mark.parametrize("argv,words", [
    (["demo", "a", "x\ny"], "unrecognized arguments: x\\ny"),
    (["classify", "a\rb", "--spec", "s.json", "c\x1bd"], "arguments: a\\rb c\\x1bd"),
    (["simulate", "--s=x\ny"], "ambiguous option: --s=x\\ny could match"),
    (["portrait", "--grid=\n"], "argument --grid: invalid int value: '\\n'"),
], ids=["extra-word", "extra-words", "ambiguous", "invalid-value"])
def test_parser_refusal_prints_one_error_line(capsys, argv, words):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and words in errors[0]


def _parse_outcome(capsys, parse, argv):
    """vars of the namespace, or the SystemExit code with stdout and stderr."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv,reference", [
    (["-h"], None),
    (["--help"], None),
    (["--he"], None),
    (["classify", "-h"], None),
    (["demo", "--help"], None),
    (["portrait", "--spec", "s.json", "--he"], None),
    ([], None),
    (["bogus"], None),
    (["Classify", "--spec", "s.json"], None),
    (["--spec", "s.json", "classify"], None),
    (["classify", "--spec", "s.json", "extra"], None),
    (["demo", "a", "b", "--bogus"], None),
    (["ess", "--bogus", "x", "--spec", "s.json"], None),
    (["demo"], None),
    (["demo", "d"], None),
    (["demo", "a", "--out", "o.json"], None),
    (["classify", "--", "--spec", "s.json"], None),
    (["demo", "--", "a"], None),
    (["transform", "--spec", "s.json", "--"], None),
    (["classify", "--tol", "1", "--tol", "2", "--spec", "a.json", "--spec", "b.json"], None),
    (["simulate", "--start=0.1,0.2", "--step=0.5", "--max-steps=7", "--tol=1e-3"], None),
    (["classify", "--to", "1e-3", "--sp", "s.json", "--renorm", "--o", "o.json"], None),
    (["portrait", "--g", "3", "--m", "9"], None),
    (["simulate", "--st", "1"], None),
    (["portrait", "--grid", "x"], None),
    (["classify", "--tol"], None),
    (["scan", "--resolution", "-3"], None),
    (["classify", "--tol", "-1e-3"], ["classify", "--tol=-1e-3"]),
    (["classify", "--to", "-inf"], ["classify", "--to=-inf"]),
    (["simulate", "--start", "-0.1,0.5", "--ste", "-1e-2"],
     ["simulate", "--start=-0.1,0.5", "--ste=-1e-2"]),
    (["simulate", "--st", "-1e-3"], None),
    (["transform", "--tol", "-1e-3"], None),
    (["portrait", "--max-steps", "-5", "--grid", "-2"],
     ["portrait", "--max-steps=-5", "--grid=-2"]),
    (["classify", "--spec", "s.json", "-1e-3"], None),
    (["classify", "--", "--tol", "-1e-3"], None),
    (["classify", "--spec", "-h"], None),
    (["classify", "--tol", "--", "-1e-3"], None),
    (["classify", "--tol", "--renormalize"], None),
    (["ess", "--spec", "-s.json", "--tol", "-x"], ["ess", "--spec=-s.json", "--tol=-x"]),
    (["demo", "a", "--o", "-o.json"], ["demo", "a", "--o=-o.json"]),
])
def test_command_parser_matches_the_top_parser(capsys, monkeypatch, argv, reference):
    # main parses argv[1:] with the command's own parser; the top parser would
    # hand those words to the same parser.  reference is argv with the dash
    # values joined to their flags, where that differs from argv.
    monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap at the terminal width
    expected = _parse_outcome(capsys, build_parser().parse_args, reference or argv)
    assert _parse_outcome(capsys, _parse_args, argv) == expected


@pytest.mark.parametrize("command,name,value,expected", [
    ("portrait --max-steps 5", "grid", 1, "error: grid must be an integer >= 2"),
    ("classify", "tol", -1, "error: tol must be positive"),
    ("portrait --grid 2 --max-steps 5", "tol", math.nan, "error: tol must be finite"),
    ("simulate --start 0.9,0.1", "tol", math.inf, "error: tol must be finite"),
])
@pytest.mark.parametrize("form", ["flag", "spec"])
def test_error_names_the_flag_or_spec_key(spec_file, capsys, command, name, value,
                                          expected, form):
    if form == "flag":
        argv = [*command.split(), f"--{name}", str(value), "--spec", spec_file(CASE_A_SPEC)]
    else:
        argv = [*command.split(), "--spec",
                spec_file({**CASE_A_SPEC, "options": {name: value}})]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(expected) and err.count("\n") == 1


class TestMalformedSpec:
    @pytest.mark.parametrize("command,spec", [
        ("classify", {"game": {**GAME, "a": None}, "weights": WEIGHTS}),
        ("classify", [1, 2]),
        ("classify", {"game": 5, "weights": WEIGHTS}),
        ("classify", {**CASE_A_SPEC, "options": 5}),
        ("portrait", {**CASE_A_SPEC, "options": {"grid": "x"}}),
        ("simulate", {**CASE_A_SPEC, "start": ["a", "b"]}),
        ("transform", {"game": GAME,
                       "weights": {"w11": None, "w12": 0.4, "w21": 0.1, "w22": 0.2}}),
        ("classify --tol 0", CASE_A_SPEC),
        ("ess --tol -1", CASE_A_SPEC),
        ("transform", {"game": {**GAME, "a": "1"}, "weights": WEIGHTS}),
        ("ess", {"game": {**GAME, "b": True}, "weights": WEIGHTS}),
        ("scan", {"game": GAME, "options": {"resolution": 2.5}}),
        ("simulate --start 0.9,0.1", {**CASE_A_SPEC, "options": {"max_steps": 1.5}}),
        ("ess", {**CASE_A_SPEC, "options": {"tol": "1e-6"}}),
        ("simulate --start 0.9,0.1", {**CASE_A_SPEC, "options": {"step": "0.01"}}),
        ("simulate --start 0.9,0.1", {**CASE_A_SPEC, "options": {"tol": True}}),
        ("simulate", {**CASE_A_SPEC, "start": [True, 0.5]}),
        ("portrait", {**CASE_A_SPEC, "options": {"grid": True}}),
        ("portrait", {**CASE_A_SPEC, "options": {"max_steps": None}}),
        ("scan", {"game": GAME, "options": {"resolution": None}}),
        ("simulate", {**CASE_A_SPEC, "start": [0.5, 0.5, 0.9]}),
        ("simulate", {**CASE_A_SPEC, "start": 0.5}),
        ("simulate", {**CASE_A_SPEC, "start": {"x": 0.5, "y": 0.5}}),
        ("simulate", {**CASE_A_SPEC, "start": "0.9,0.1"}),  # X,Y is the flag's syntax
    ])
    def test_exits_2_with_one_error_line(self, spec_file, capsys, command, spec):
        code, out, err = run(capsys, *command.split(), "--spec", spec_file(spec))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,spec,error", [
        ("classify", {**CASE_A_SPEC, "weights": [0.5, 0.5]},
         "weights must be a 4-list or an object with w11..w22"),
        ("transform", {**CASE_A_SPEC, "weights": "0.3,0.4,0.1,0.2"},
         "weights must be a 4-list or an object with w11..w22"),
        ("simulate --start 0.5", CASE_A_SPEC, "--start must be numbers X,Y; got '0.5'"),
        ("simulate --start 1,2,3", CASE_A_SPEC, "--start must be numbers X,Y; got '1,2,3'"),
        ("simulate --start a,b", CASE_A_SPEC, "--start must be numbers X,Y; got 'a,b'"),
    ] + [(command, {"game": {"a11": 0, "a12": 1e308, "a21": 1, "a22": -1e308,
                             "b11": 0, "b12": 1, "b21": 1, "b22": 0}, "weights": WEIGHTS},
          "a12 - a22 must be a finite real, got inf")
         for command in ("classify", "ess", "simulate --start 0.5,0.5", "portrait", "scan")]
        + [(command, {"game": GAME}, "spec is missing 'weights'")
           for command in ("transform", "classify", "ess", "simulate", "portrait")])
    def test_error_line(self, spec_file, capsys, command, spec, error):
        # A full game whose reduction overflows is named by its entries, not by a.
        code, out, err = run(capsys, *command.split(), "--spec", spec_file(spec))
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("weights,flags,error", [
        ([3, -1, 1, 2], ["--renormalize"], "weights must be nonnegative"),
        ([0, 0, 0, 0], ["--renormalize"], "weights must not all be zero"),
        ({"w11": 0.3, "w12": 0.4, "w21": 0.3}, [], "weights is missing w22"),
        ({"w11": 0.3, "w12": 0.4, "w21": 0.1, "w22": 0.2, "w32": 0.9}, [],
         "unknown weights key 'w32'; expected one of w11, w12, w21, w22"),
        ({"w11": 3, "w12": 4, "w21": 1, "w22": 2, "w32": 9}, ["--renormalize"],
         "unknown weights key 'w32'; expected one of w11, w12, w21, w22"),
    ])
    @pytest.mark.parametrize("command", ["transform", "portrait --grid 2 --max-steps 5"])
    def test_weights_refused_leaves_out_untouched(self, spec_file, tmp_path, capsys,
                                                  command, weights, flags, error):
        out_path = tmp_path / "out.txt"
        out_path.write_bytes(b"kept\n")
        code, out, err = run(capsys, *command.split(), *flags, "--out", str(out_path),
                             "--spec", spec_file({**CASE_A_SPEC, "weights": weights}))
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert out_path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("spec,error", [
        ({**CASE_A_SPEC, "options": {"grid": 2, "max-steps": 3}},
         "unknown option 'max-steps'; expected one of step, max_steps, grid, resolution, tol"),
        ({**CASE_A_SPEC, "option": {"max_steps": 3}},
         "unknown spec key 'option'; expected one of game, weights, start, options"),
    ], ids=["option", "spec-key"])
    @pytest.mark.parametrize("command", ["transform", "classify", "ess",
                                         "simulate --start 0.9,0.1", "portrait", "scan"])
    def test_unknown_key_refused_leaves_out_untouched(self, spec_file, tmp_path, capsys,
                                                      command, spec, error):
        out_path = tmp_path / "out.txt"
        out_path.write_bytes(b"kept\n")
        code, out, err = run(capsys, *command.split(), "--out", str(out_path),
                             "--spec", spec_file(spec))
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert out_path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("data", [b"{", b"[" * 100_000, b"\xff"])
    def test_unparsable_file_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "ess", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: spec file") and err.count("\n") == 1


@pytest.mark.parametrize("command,name,value", [
    ("simulate --start 0.9,0.1 --max-steps 20", "step", 1),
    ("classify", "tol", 1),  # its degenerate warnings print the tolerance
])
def test_integer_option_gives_the_bytes_of_its_float(spec_file, capsys, command, name,
                                                     value):
    outputs = [run(capsys, *command.split(), "--spec", spec_file(
        {**CASE_A_SPEC, "options": {name: v}}))[:2] for v in (value, float(value))]
    assert outputs[0] == outputs[1]
    assert f"{float(value)!r}" in outputs[0][1]


FLOAT_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1])
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.sampled_from([2**70, -2**70])
               | st.floats() | FLOAT_EDGES | st.text(max_size=4))
JSON_TREES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=20)


class Slotted:
    """An object without a ``__dict__``, which neither JSON encoder prints."""

    __slots__ = ("x",)

    def __init__(self):
        self.x = 1.0


class TestEmitJson:
    @settings(max_examples=500)
    @given(value=JSON_TREES)
    def test_matches_indented_json_dumps(self, value):
        assert _emit_json(value) == json.dumps(value, indent=2) + "\n"

    @settings(max_examples=100)
    @given(game=st.tuples(*[st.integers(-4, 4) | st.floats(-4, 4)] * 4),
           weights=st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any))
    def test_dataclasses_print_as_asdict(self, game, weights):
        game = SimplifiedGame(*game)
        state = InitialStateWeights.renormalized(*weights)
        payloads = [compare_classical_quantum(game, state), game, state]
        for r in linearize(ReplicatorField.quantum(game, state)):
            payloads += [r.equilibrium, r.jacobian]
        for payload in payloads:
            expected = asdict(payload) if not isinstance(payload, tuple) else payload
            assert _emit_json(payload) == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("case", ["a", "b", "c"])
    def test_demo_instance_prints_as_asdict(self, case):
        instance = make_case(case)
        assert _emit_json(instance) == json.dumps(asdict(instance), indent=2) + "\n"

    @pytest.mark.parametrize("value", [{1, 2}, set(), 1j, [0.5, {"z": 2 - 1j}], {"a": {3}},
                                       {"report": Slotted()}])
    def test_set_or_complex_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _emit_json(value)

    def test_key_that_is_not_a_string_raises_type_error(self):
        with pytest.raises(TypeError):
            _emit_json({1: 2})


LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4), max_leaves=8)
FIELDS = st.integers(-3, 3) | st.floats() | JSON_VALUES
GAMES = (st.fixed_dictionaries({k: FIELDS for k in "abcd"})
         | st.fixed_dictionaries({k: FIELDS for k in ("a11", "a12", "a21", "a22",
                                                      "b11", "b12", "b21", "b22")})
         | JSON_VALUES)
WEIGHT_VALUES = (st.lists(FIELDS, min_size=4, max_size=4)
                 | st.fixed_dictionaries({k: FIELDS for k in ("w11", "w12", "w21", "w22")})
                 | st.fixed_dictionaries({k: FIELDS for k in ("w11", "w12", "w21", "w22",
                                                              "w32")})
                 | JSON_VALUES)
SPECS = (st.fixed_dictionaries({}, optional={
    "game": GAMES, "weights": WEIGHT_VALUES,
    "options": st.fixed_dictionaries({}, optional={"tol": FIELDS}) | JSON_VALUES})
    | JSON_VALUES)


# File names with a newline, a NUL and lone surrogates among plain characters, for
# --out files made in an empty directory and for --spec files that do not exist.
# open() refuses a NUL and \ud800; \udc80 names the byte 0x80 on a POSIX file system.
PATH_NAMES = st.lists(st.sampled_from(["a", ".", "\u00e9", "\n", "\x00", "\ud800", "\udc80"]),
                      min_size=1, max_size=5).map("".join)
# A name in one draw of four, so that most runs still reach the spec's checks.
SOME_PATH_NAMES = st.integers(0, 3).flatmap(lambda n: PATH_NAMES if n == 0 else st.none())


def _check_exit_contract(tmp_path_factory, spec, argv, flags=(), out_name=None,
                         missing_spec=None):
    """Run argv on spec, followed by flags, each (flag, value) given once as the one
    word flag=value and once as the two words flag value.  Check that both forms
    give the same exit code, output and stderr, and the exit contract; return the
    exit code and the output: stdout, or the --out file when out_name is given.

    out_name adds --out with a file of that name in an empty directory;
    missing_spec replaces the spec file by one of that name that does not exist."""
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    if missing_spec is not None:
        path = base / "no-such-dir" / missing_spec
    if out_name is not None:
        (base / "fuzz-out").mkdir(exist_ok=True)
        out_path = str(base / "fuzz-out" / out_name)
        flags = [*flags, ("--out", out_path)]
    outcomes = []
    for words in ([f"{flag}={value}" for flag, value in flags],
                  [word for pair in flags for word in pair]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--spec", str(path), *argv[1:], *words])
        output = out.getvalue()
        if out_name is not None:
            assert output == ""
            if os.path.isfile(out_path):  # not for a name open() refuses, "." or ".."
                with open(out_path, encoding="utf-8", newline="") as fh:
                    output = fh.read()
                os.remove(out_path)
        outcomes.append((code, output, err.getvalue()))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code in (0, 2, 3)
    if missing_spec is not None:
        assert code == 3
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    return code, out


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["transform", "classify", "ess"]), spec=SPECS,
       renormalize=st.booleans(), tol=st.none() | st.floats(), out_name=SOME_PATH_NAMES,
       missing_spec=SOME_PATH_NAMES)
def test_arbitrary_spec_keeps_exit_contract(tmp_path_factory, command, spec,
                                            renormalize, tol, out_name, missing_spec):
    argv = [command]
    if renormalize:
        argv.append("--renormalize")
    flags = [("--tol", repr(tol))] if tol is not None and command != "transform" else []
    _check_exit_contract(tmp_path_factory, spec, argv, flags, out_name, missing_spec)


# Each run command's options, by the spec key; the flag is --<key> with "-" for "_".
# Every size is always given, since the defaults run 10**5 steps per orbit, and is
# either small or above its limit, up to 10**400, which must exit 2 before any work.
RUN_OPTIONS = {"simulate": ("start", "step", "max_steps", "tol"),
               "portrait": ("step", "max_steps", "grid", "tol"),
               "scan": ("resolution",)}
SIZE_LIMITS = {"max_steps": MAX_STEPS_LIMIT, "grid": GRID_LIMIT,
               "resolution": RESOLUTION_LIMIT}
RUN_VALUES = {"start": st.tuples(st.floats(0, 1) | st.floats(), st.floats(0, 1) | st.floats()),
              "step": st.floats(1e-3, 1) | st.floats(), "tol": st.floats(),
              "max_steps": st.integers(1, 50) | st.integers(MAX_STEPS_LIMIT + 1, 10**400),
              "grid": st.integers(2, 4) | st.integers(GRID_LIMIT + 1, 10**400),
              "resolution": st.integers(1, 8) | st.integers(RESOLUTION_LIMIT + 1, 10**400)}
# What a spec may hold instead, for at most one key: no integer above 3.
ODD_VALUES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
              | st.text(max_size=4) | st.lists(st.integers(-3, 3) | st.floats(), max_size=3))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(list(RUN_OPTIONS)),
       spec=st.sampled_from([CASE_A_SPEC, CASE_C_SPEC, CLASSICAL_C_SPEC, None]),
       renormalize=st.booleans())
def test_arbitrary_run_spec_keeps_exit_contract(tmp_path_factory, data, command, spec,
                                                renormalize):
    # A valid game and weights in three of four runs, so that exit 0 is common.
    spec = dict(spec or data.draw(st.fixed_dictionaries({"game": GAMES,
                                                         "weights": WEIGHT_VALUES})))
    argv, flags, options = [command], [], {}
    if renormalize and command != "scan":
        argv.append("--renormalize")
    odd = data.draw(st.sampled_from([None, *RUN_OPTIONS[command]]), "odd key")
    oversize = False
    for key in RUN_OPTIONS[command]:
        if key == odd:
            where, value = "spec", data.draw(ODD_VALUES, key)
        else:
            places = ["flag", "spec", "absent"] if key in ("step", "tol") else ["flag", "spec"]
            where = data.draw(st.sampled_from(places), key)
            value = data.draw(RUN_VALUES[key], key)
            oversize = oversize or key in SIZE_LIMITS and value > SIZE_LIMITS[key]
        if where == "flag":
            text = ",".join(map(repr, value)) if key == "start" else repr(value)
            flags.append((f"--{key.replace('_', '-')}", text))
        elif where == "spec":
            (spec if key == "start" else options)[key] = value
    missing_spec = data.draw(SOME_PATH_NAMES, "missing spec")
    code, out = _check_exit_contract(tmp_path_factory, {**spec, "options": options}, argv,
                                     flags, data.draw(SOME_PATH_NAMES, "out name"),
                                     missing_spec)
    if oversize and missing_spec is None:
        assert code == 2
    if code == 0:
        assert out.startswith(",".join(COMMANDS[command].header) + "\n")
