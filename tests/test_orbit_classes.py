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
* both pairs change sign and q s > 0: a saddle, whose basins are not tested here.

The brackets are exact Fractions of integer payoffs and lattice weights k/n.  A
field with a zero bracket is skipped: its float bracket may have either sign.
"""

import random
from fractions import Fraction

import pytest

from quantum_replicator import InitialStateWeights, ReplicatorField, SimplifiedGame, integrate

from conftest import first_integral


def exact_brackets(game, counts, n):
    """(p, q, r, s) as Fractions, for payoffs game and weights counts / n."""
    a, b, c, d = game
    K1, K2 = Fraction(counts[0] - counts[2], n), Fraction(counts[3] - counts[1], n)
    return (a * K1 + b * K2, -(a + b) * (K1 + K2),
            c * K1 + d * K2, -(c + d) * (K1 + K2))


def orbit_class(p, q, r, s):
    """The class, "corner", "center" or "saddle"; None when a bracket is zero."""
    if 0 in (p, p + q, r, r + s):
        return None
    if (p > 0) == (p + q > 0) or (r > 0) == (r + s > 0):
        return "corner"
    return "center" if q * s < 0 else "saddle"


def sink(p, q, r, s):
    """The corner every interior orbit of a corner-class field tends to."""
    if (p > 0) == (p + q > 0):
        x = 1 if p > 0 else 0
        return x, 1 if r + s * x > 0 else 0
    y = 1 if r > 0 else 0
    return 1 if p + q * y > 0 else 0, y


def field(game, counts, n):
    return ReplicatorField.quantum(SimplifiedGame(*game),
                                   InitialStateWeights(*(k / n for k in counts)))


def drawn_fields():
    """80 games with integer payoffs in [-5, 5] and lattice weights k/n, n <= 12,
    each with two starts on the grid of tenths: (class, game, counts, n, starts)."""
    rng = random.Random(8)
    for _ in range(80):
        game = tuple(rng.randint(-5, 5) for _ in range(4))
        n = rng.randint(1, 12)
        cuts = sorted(rng.randint(0, n) for _ in range(3))
        counts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])
        starts = [(Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10))
                  for _ in range(2)]
        yield orbit_class(*exact_brackets(game, counts, n)), game, counts, n, starts


DRAWN = list(drawn_fields())


def test_corner_class_converges_to_the_predicted_corner():
    misses, checked = [], 0
    for kind, game, counts, n, starts in DRAWN:
        if kind != "corner":
            continue
        corner = sink(*exact_brackets(game, counts, n))
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
        p, q, r, s = exact_brackets(game, counts, n)
        fld = field(game, counts, n)
        size = max(abs(fld.x_constant), abs(fld.x_slope), abs(fld.y_constant),
                   abs(fld.y_slope))
        for start in starts:
            x0, y0 = float(start[0]), float(start[1])
            traj = integrate(fld, (x0, y0), step=0.01, max_steps=20_000)
            checked += 1
            if start == (-r / s, -p / q):  # the rest point itself
                if not (traj.status == "converged" and len(traj) == 1):
                    misses.append((game, counts, n, start, traj.status, len(traj)))
                continue
            h0 = first_integral(fld, x0, y0)
            drift = max(abs(first_integral(fld, x, y) - h0) for x, y in zip(traj.xs, traj.ys))
            eps = min(min(traj.xs), min(traj.ys), 1.0 - max(traj.xs), 1.0 - max(traj.ys))
            if not (traj.status == "max-steps" and drift <= 1e-8 * size / eps):
                misses.append((game, counts, n, start, traj.status, drift / size, eps))
    assert checked >= 10 and misses == []


# Two center-class games whose orbit from (0.2, 0.3) passes the saddle corner
# (1, 1) so closely that both velocities fall below the convergence tolerance.
SADDLE_STOPS = [((3, 4, -3, -4), (10, 7, 5, 0), 22), ((-2, 5, -2, -4), (7, 10, 10, 3), 30)]


@pytest.mark.parametrize("game, counts, n", SADDLE_STOPS)
def test_saddle_stop_games_are_center_class(game, counts, n):
    assert orbit_class(*exact_brackets(game, counts, n)) == "center"


@pytest.mark.xfail(strict=True, reason="integrate reports converged at a saddle corner "
                   "after 50 191 and 91 271 steps (FOUND in CHANGES.md, ROADMAP item 8)")
@pytest.mark.parametrize("game, counts, n", SADDLE_STOPS)
def test_closed_orbit_does_not_stop_at_a_saddle_corner(game, counts, n):
    traj = integrate(field(game, counts, n), (0.2, 0.3))
    assert traj.status == "max-steps", (traj.status, len(traj) - 1, traj.final)
