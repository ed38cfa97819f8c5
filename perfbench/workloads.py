"""Seeded workloads: the specs the CLI sees, the expected outputs, and the checks.

Each workload is a list of CLI calls (argv, expected exit code, expected
sha256 of the ``--out`` bytes) plus semantic checks on the final outputs that
do not rely on byte digests.  The seed only chooses the game and weights; the
amount of work in a pass is held fixed across seeds so that medians from
different seeds are comparable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

ABSENT = "absent"
H_DRIFT_BOUND = 1e-6

CENTER_GRID = 3
CENTER_MAX_STEPS = 20_000
CONVERGE_GRID = 10
CONVERGE_TARGET_STEPS = 200_000
CONVERGE_RESCALES = 3
SCAN_RESOLUTION = 60
SCAN_SCREEN_RESOLUTION = 15
SCAN_HIT_FRAC = 0.5
SCAN_HIT_BAND = 0.05
BATCH_SPECS = 500
BATCH_COMMANDS = ("transform", "classify", "ess")


def digest(data):
    return ABSENT if data is None else hashlib.sha256(data).hexdigest()


@dataclass
class Call:
    argv: list
    out: str
    code: int
    sha: str


@dataclass
class Workload:
    name: str
    unit: str  # what one unit of ``work`` is
    work: int  # units of work in one pass
    calls: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (name, fn(workdir) -> bool)
    info: dict = field(default_factory=dict)


def _write_spec(path, spec):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _orbits(path):
    """{id: [(x, y), ...]} parsed from a portrait CSV."""
    _, rows = _read_rows(path)
    orbits = {}
    for tid, _, x, y in rows:
        orbits.setdefault(int(tid), []).append((float(x), float(y)))
    return orbits


def _speed(coeffs, x, y):
    p, q, r, s = coeffs
    return max(abs(x * (1.0 - x) * (p + q * y)), abs(y * (1.0 - y) * (r + s * x)))


def _composition(rng, total, parts=4):
    """Uniform random composition of ``total`` into ``parts`` nonnegative integers."""
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    bounds = [-1] + cuts + [total + parts - 1]
    return [bounds[i + 1] - bounds[i] - 1 for i in range(parts)]


def _lattice_points(r):
    return (r + 1) * (r + 2) * (r + 3) // 6


def _seeds_on_rest_point(coeffs, grid_n):
    p, q, r, s = coeffs
    for i in range(grid_n):
        for j in range(grid_n):
            x, y = (i + 1) / (grid_n + 1), (j + 1) / (grid_n + 1)
            if x * (1.0 - x) * (p + q * y) == 0.0 and y * (1.0 - y) * (r + s * x) == 0.0:
                return True
    return False


# ------------------------------------------------------------ portrait-center

def portrait_center(seed, workdir):
    """Integer game with a linear center inside the square; every orbit runs to max-steps."""
    rng = random.Random(f"portrait-center:{seed}")
    while True:
        game = (rng.randint(1, 4), rng.randint(1, 4), -rng.randint(1, 4), -rng.randint(1, 4))
        coeffs = ref.coefficients(game, 1.0, 0.0)
        # A seed on the center would be skipped and shrink the pass by a ninth.
        if not _seeds_on_rest_point(coeffs, CENTER_GRID):
            break
    spec = {"game": dict(zip("abcd", game)), "weights": [1, 0, 0, 0],
            "options": {"grid": CENTER_GRID, "max_steps": CENTER_MAX_STEPS}}
    trajectories = ref.portrait(coeffs, CENTER_GRID, max_steps=CENTER_MAX_STEPS)
    out = str(workdir / "portrait.csv")
    argv = ["portrait", "--spec", _write_spec(workdir / "spec.json", spec), "--out", out]
    steps = sum(len(xs) - 1 for xs, _, _ in trajectories)
    wl = Workload("portrait-center", "rk4_step", steps,
                  [Call(argv, out, 0, digest(ref.portrait_csv(trajectories)))],
                  info={"game": game, "orbits": len(trajectories), "rk4_steps": steps})

    def all_max_steps(_):
        orbits = _orbits(out)
        return (len(orbits) == CENTER_GRID ** 2
                and all(len(pts) == CENTER_MAX_STEPS + 1
                        and _speed(coeffs, *pts[-1]) >= ref.CONVERGENCE_TOL
                        for pts in orbits.values()))

    def first_integral_conserved(_):
        worst = 0.0
        for pts in _orbits(out).values():
            h0 = ref.first_integral(coeffs, *pts[0])
            worst = max(worst, max(abs(ref.first_integral(coeffs, x, y) - h0)
                                   for x, y in pts))
        wl.info["max_h_drift"] = worst
        return worst < H_DRIFT_BOUND

    wl.checks = [("every orbit max-steps", all_max_steps),
                 ("first integral drift", first_integral_conserved)]
    return wl


# ---------------------------------------------------------- portrait-converge

def _converge_draw(rng):
    while True:
        game = (rng.randint(1, 4), -rng.randint(1, 4), -rng.randint(1, 4), rng.randint(1, 4))
        k = _composition(rng, 10)
        w = tuple(v / 10 for v in k)
        K1, K2 = ref.k_of(w)
        a, b, c, d = game
        if K1 + K2 == 0 or a + b == 0 or c + d == 0:
            continue
        p, q, r, s = ref.coefficients(game, K1, K2)
        if 0 in (p, p + q, r, r + s):  # a zero linearization root at a corner
            continue
        lam_sq = ((a * K1 + b * K2) * (a * K2 + b * K1) * (c * K1 + d * K2)
                  * (c * K2 + d * K1)) / ((a + b) * (c + d) * (K1 + K2) ** 2)
        if lam_sq > 0:
            return game, k, w


def portrait_converge(seed, workdir):
    """Coordination game with lattice weights; ~100 orbits that all converge.

    The drawn game is scaled by a positive factor (which only rescales time)
    until the portrait takes CONVERGE_TARGET_STEPS steps in total, so every
    seed integrates the same amount.
    """
    rng = random.Random(f"portrait-converge:{seed}")
    while True:
        game0, k, w = _converge_draw(rng)
        K1, K2 = ref.k_of(w)
        scale = 1.0
        for _ in range(CONVERGE_RESCALES):
            game = tuple(round(v * scale, 6) for v in game0)
            coeffs = ref.coefficients(game, K1, K2)
            trajectories = ref.portrait(coeffs, CONVERGE_GRID)
            steps = sum(len(xs) - 1 for xs, _, _ in trajectories)
            scale *= steps / CONVERGE_TARGET_STEPS
        if (len(trajectories) == CONVERGE_GRID ** 2
                and all(st == "converged" for _, _, st in trajectories)):
            break
    spec = {"game": dict(zip("abcd", game)), "weights": list(w),
            "options": {"grid": CONVERGE_GRID}}
    out = str(workdir / "portrait.csv")
    argv = ["portrait", "--spec", _write_spec(workdir / "spec.json", spec), "--out", out]
    lengths = [len(xs) - 1 for xs, _, _ in trajectories]
    wl = Workload("portrait-converge", "rk4_step", steps,
                  [Call(argv, out, 0, digest(ref.portrait_csv(trajectories)))],
                  info={"game": game, "weights": k, "orbits": len(trajectories),
                        "rk4_steps": steps, "orbit_steps": [min(lengths), max(lengths)]})

    def all_converged(_):
        orbits = _orbits(out)
        return (len(orbits) == CONVERGE_GRID ** 2
                and all(_speed(coeffs, *pts[-1]) < ref.CONVERGENCE_TOL
                        for pts in orbits.values()))

    wl.checks = [("every orbit converged", all_converged)]
    return wl


# ----------------------------------------------------------------- scan-dense

def scan_dense(seed, workdir):
    """Integer game a..d in [-4, 4] without zeros; the flip scan at resolution 60."""
    rng = random.Random(f"scan-dense:{seed}")
    r = SCAN_RESOLUTION
    points = _lattice_points(r)
    while True:
        game = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(4))
        if game[0] + game[1] == 0 or game[2] + game[3] == 0:
            continue
        # Output rows cost time and memory, so the share of hits is held in a
        # band; a coarse lattice screens draws before the full one is scanned.
        coarse = len(ref.scan_hits(game, SCAN_SCREEN_RESOLUTION))
        if abs(coarse / _lattice_points(SCAN_SCREEN_RESOLUTION) - SCAN_HIT_FRAC) > 0.1:
            continue
        hits = ref.scan_hits(game, r)
        if abs(len(hits) / points - SCAN_HIT_FRAC) <= SCAN_HIT_BAND:
            break
    spec = {"game": dict(zip("abcd", game)), "options": {"resolution": r}}
    out = str(workdir / "scan.csv")
    argv = ["scan", "--spec", _write_spec(workdir / "spec.json", spec), "--out", out]
    wl = Workload("scan-dense", "lattice_point", points,
                  [Call(argv, out, 0, digest(ref.scan_csv(hits, r)))],
                  info={"game": game, "lattice_points": points, "hits": len(hits)})

    def hits_rederived(_):
        header, rows = _read_rows(out)
        got = []
        for *ws, flip in rows:
            k = tuple(round(float(v) * r) for v in ws)
            if any(float(v) != kv / r for v, kv in zip(ws, k)):
                return False
            got.append(k + (flip,))
        return header == ["w11", "w12", "w21", "w22", "flip"] and got == hits

    wl.checks = [("scan hits re-derived", hits_rederived)]
    return wl


# -------------------------------------------------------------- analyze-batch

def _batch_spec(rng, i):
    """Spec ``i`` and whether it is passed with --renormalize.

    Every fourth spec uses the full bimatrix form; one in ten has weights off
    the simplex (rejected, exit 2); one in ten has raw weights that
    --renormalize rescales; one in five sets its own tolerance.
    """
    if i % 4 == 0:
        game = {k: rng.randint(-4, 4) for k in
                ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22")}
    else:
        game = {k: rng.randint(-4, 4) for k in "abcd"}
    k = _composition(rng, 20)
    if i % 10 == 5:
        k[rng.randrange(4)] += rng.randint(1, 4)
    renormalize = i % 10 == 7
    spec = {"game": game, "weights": k if renormalize else [v / 20 for v in k]}
    if i % 5 == 3:
        spec["options"] = {"tol": 1e-6}
    return spec, renormalize


def analyze_batch(seed, workdir):
    """BATCH_SPECS seeded specs, each run through transform, classify and ess."""
    rng = random.Random(f"analyze-batch:{seed}")
    out = str(workdir / "out.json")
    calls = []
    for i in range(BATCH_SPECS):
        spec, renormalize = _batch_spec(rng, i)
        path = _write_spec(workdir / "specs" / f"{i:04d}.json", spec)
        for command in BATCH_COMMANDS:
            code, data = ref.analysis_bytes(command, spec, renormalize)
            argv = [command, "--spec", path, "--out", out]
            if renormalize:
                argv.append("--renormalize")
            calls.append(Call(argv, out, code, digest(data)))
    rejected = sum(c.code != 0 for c in calls)
    return Workload("analyze-batch", "cli_call", len(calls), calls,
                    info={"specs": BATCH_SPECS, "calls": len(calls), "exit_2": rejected})


BUILDERS = {
    "portrait-center": portrait_center,
    "portrait-converge": portrait_converge,
    "scan-dense": scan_dense,
    "analyze-batch": analyze_batch,
}


def build(name, seed, workdir):
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)
