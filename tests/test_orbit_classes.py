"""Where integrate's orbits go, read off the face brackets (ROADMAP item 8).

The field is dx/dt = x(1-x)(p + q y), dy/dt = y(1-y)(r + s x).  The bracket of
dx/dt runs from p on the face y = 0 to p + q on y = 1, and that of dy/dt from r
on x = 0 to r + s on x = 1.  With H = r ln x - (r+s) ln(1-x) - p ln y
+ (p+q) ln(1-y) constant on every orbit, the four signs fix where each interior
orbit goes (Hofbauer & Sigmund 1998, bimatrix games):

* one pair keeps its sign: that coordinate is monotone, and every interior
  orbit tends to the corner the signs name;
* both pairs change sign and q s < 0: the interior rest point is a center, and
  every other interior orbit is closed;
* both pairs change sign and q s > 0: a saddle, with two sink corners whose
  basins the separatrices through the interior rest point bound.

The brackets are exact: integer payoffs at lattice weights k/n (tests/exact.py).
A field with a zero bracket is skipped: its float bracket may have either sign.
"""

import random
from fractions import Fraction

import pytest

from quantum_replicator import InitialStateWeights, ReplicatorField, SimplifiedGame, integrate

import exact
from conftest import first_integral


def field(game, counts, n):
    return ReplicatorField.quantum(SimplifiedGame(*game),
                                   InitialStateWeights(*(k / n for k in counts)))


def draw_field(rng):
    """A game with integer payoffs in [-5, 5] and lattice weights k/n, n <= 12:
    (game, counts, n)."""
    game = tuple(rng.randint(-5, 5) for _ in range(4))
    n = rng.randint(1, 12)
    cuts = sorted(rng.randint(0, n) for _ in range(3))
    return game, (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2]), n


def drawn_fields():
    """80 drawn fields, each with two starts on the grid of tenths:
    (class, game, counts, n, starts)."""
    rng = random.Random(8)
    for _ in range(80):
        game, counts, n = draw_field(rng)
        starts = [(Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10))
                  for _ in range(2)]
        yield exact.orbit_class(*exact.brackets(game, counts)), game, counts, n, starts


DRAWN = list(drawn_fields())


def test_corner_class_converges_to_the_predicted_corner():
    misses, checked = [], 0
    for kind, game, counts, n, starts in DRAWN:
        if kind != "corner":
            continue
        corner = exact.sink(*exact.brackets(game, counts))
        fld = field(game, counts, n)
        for start in starts:
            traj = integrate(fld, (float(start[0]), float(start[1])))
            checked += 1
            if not (traj.status == "converged" and abs(traj.final[0] - corner[0]) <= 1e-6
                    and abs(traj.final[1] - corner[1]) <= 1e-6):
                misses.append((game, counts, n, start, traj.status, traj.final))
    assert checked >= 50 and misses == []


def test_center_class_orbits_are_closed():
    # H's gradient grows as 1/eps within eps of a face, so its drift is bounded
    # relative to the orbit's closest approach to the faces, and to the field's
    # size S: a position error of about 1e-8 at most.
    misses, checked = [], 0
    for kind, game, counts, n, starts in DRAWN:
        if kind != "center":
            continue
        p, q, r, s = exact.brackets(game, counts)
        fld = field(game, counts, n)
        size = max(abs(fld.x_constant), abs(fld.x_slope), abs(fld.y_constant),
                   abs(fld.y_slope))
        for start in starts:
            x0, y0 = float(start[0]), float(start[1])
            traj = integrate(fld, (x0, y0), step=0.01, max_steps=20_000)
            checked += 1
            if start == (Fraction(-r, s), Fraction(-p, q)):  # the rest point itself
                if not (traj.status == "converged" and len(traj) == 1):
                    misses.append((game, counts, n, start, traj.status, len(traj)))
                continue
            h0 = first_integral(fld, x0, y0)
            drift = max(abs(first_integral(fld, x, y) - h0) for x, y in zip(traj.xs, traj.ys))
            eps = min(min(traj.xs), min(traj.ys), 1.0 - max(traj.xs), 1.0 - max(traj.ys))
            if not (traj.status == "max-steps" and drift <= 1e-8 * size / eps):
                misses.append((game, counts, n, start, traj.status, drift / size, eps))
    assert checked >= 10 and misses == []


def saddle_fields():
    """40 drawn fields of the saddle class, each with two starts on the grid of
    twentieths: (game, counts, n, starts)."""
    rng = random.Random(11)
    fields = []
    while len(fields) < 40:
        game, counts, n = draw_field(rng)
        if exact.orbit_class(*exact.brackets(game, counts)) == "saddle":
            starts = [(Fraction(rng.randint(1, 19), 20), Fraction(rng.randint(1, 19), 20))
                      for _ in range(2)]
            fields.append((game, counts, n, starts))
    return fields


def saddle_basin(p, q, r, s, start, dh):
    """The corner the orbit from start tends to, where H(start) - H* = dh.

    H is a sum F(x) + G(y), so each quadrant around the rest point (x*, y*) =
    (-r/s, -p/q) holds one separatrix branch.  The unstable ones lie in the
    quadrants with sign(x - x*) sign(y - y*) = sign(q) and end at their
    quadrant's corner.  In each other quadrant a start lies on one side of the
    stable branch: on the side of the ray y = y* where H - H* has the sign of
    F''(x*) = -s^3 / (r (r+s)), and it follows that ray's unstable branch;
    otherwise it follows the one beyond the ray x = x*.
    """
    sx = 1 if start[0] > Fraction(-r, s) else -1
    sy = 1 if start[1] > Fraction(-p, q) else -1
    if sx * sy * q < 0:
        if (dh > 0) == (-s * r * (r + s) > 0):
            sy = -sy
        else:
            sx = -sx
    return (1 + sx) // 2, (1 + sy) // 2


def test_saddle_class_converges_to_the_corner_of_its_basin():
    # A start on the lines through the rest point, or so near the separatrix
    # level that the float H cannot place it, is skipped.
    misses, checked = [], 0
    for game, counts, n, starts in saddle_fields():
        p, q, r, s = exact.brackets(game, counts)
        rest = Fraction(-r, s), Fraction(-p, q)
        fld = field(game, counts, n)
        h_rest = first_integral(fld, float(rest[0]), float(rest[1]))
        for start in starts:
            x0, y0 = float(start[0]), float(start[1])
            dh = first_integral(fld, x0, y0) - h_rest
            if start[0] == rest[0] or start[1] == rest[1] or abs(dh) < 1e-7:
                continue
            corner = saddle_basin(p, q, r, s, start, dh)
            traj = integrate(fld, (x0, y0), step=0.01, max_steps=200_000)
            checked += 1
            if not (traj.status == "converged" and abs(traj.final[0] - corner[0]) <= 1e-6
                    and abs(traj.final[1] - corner[1]) <= 1e-6):
                misses.append((game, counts, n, start, corner, traj.status, traj.final))
    assert checked >= 70 and misses == []


# Two center-class games whose orbit from (0.2, 0.3) passes the saddle corner
# (1, 1) so closely that both velocities fall below the convergence tolerance.
SADDLE_STOPS = [((3, 4, -3, -4), (10, 7, 5, 0), 22), ((-2, 5, -2, -4), (7, 10, 10, 3), 30)]


@pytest.mark.parametrize("game, counts, n", SADDLE_STOPS)
def test_saddle_stop_games_are_center_class(game, counts, n):
    assert exact.orbit_class(*exact.brackets(game, counts)) == "center"


@pytest.mark.xfail(strict=True, reason="integrate reports converged at a saddle corner "
                   "after 50 191 and 91 271 steps (FOUND in CHANGES.md, ROADMAP item 8)")
@pytest.mark.parametrize("game, counts, n", SADDLE_STOPS)
def test_closed_orbit_does_not_stop_at_a_saddle_corner(game, counts, n):
    traj = integrate(field(game, counts, n), (0.2, 0.3))
    assert traj.status == "max-steps", (traj.status, len(traj) - 1, traj.final)
