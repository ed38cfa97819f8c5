"""Replicator vector fields and fixed-step trajectory integration.

The planar field covers both forms of the game at once: the classical flow is
the special case (K1, K2) = (1, 0), any other admissible pair comes from a
quantized initial state.  The field is a polynomial defined on all of the
plane; population-valid states live in the unit square, whose faces are
invariant lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .games import (InitialStateWeights, SimplifiedGame, _FiniteRecord, _require_count,
                    _require_finite, _require_pair, _require_real, _require_tolerance,
                    k_params)

__all__ = [
    "ReplicatorField",
    "Trajectory",
    "field_eval",
    "integrate",
    "phase_portrait",
    "DEFAULT_STEP",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_CONVERGENCE_TOL",
]

DEFAULT_STEP = 0.01
DEFAULT_MAX_STEPS = 100_000
DEFAULT_CONVERGENCE_TOL = 1e-10

# Allow tiny numerical overshoot past the faces before clamping back.
CLAMP_GUARD = 1e-9
# Integration stops once the state wanders this far outside the unit square.
DOMAIN_MARGIN = 0.1
# A held sample costs about 112 B (t, x and y floats, in lists and tuples), so
# one trajectory of this many steps peaks near 1.1 GB, also in the CLI's simulate,
# which formats its CSV rows as it writes them.  The CLI's portrait runs at most
# MAX_STEPS_LIMIT // max_steps processes, each holding one trajectory, so its
# samples held at once stay within the same bound.
MAX_STEPS_LIMIT = 10_000_000
# Seeds per axis of a portrait.  Its 10**6 orbits take about 15 s even at one
# step each (about 15 us an orbit, with a 100 MB CSV from the CLI), and their
# seed list holds about 65 MB (tracemalloc).
GRID_LIMIT = 1000


@dataclass(frozen=True)
class ReplicatorField(_FiniteRecord):
    """Planar replicator field for reduced payoffs (a, b, c, d) and state (K1, K2).

    dx/dt = x(1-x) [a K1 + b K2 - (a+b)(K1+K2) y]
    dy/dt = y(1-y) [c K1 + d K2 - (c+d)(K1+K2) x]
    """

    a: float
    b: float
    c: float
    d: float
    K1: float = 1.0
    K2: float = 0.0

    @classmethod
    def classical(cls, game: SimplifiedGame) -> "ReplicatorField":
        return cls(game.a, game.b, game.c, game.d, 1.0, 0.0)

    @classmethod
    def quantum(cls, game: SimplifiedGame, state: InitialStateWeights) -> "ReplicatorField":
        k = k_params(state)
        return cls(game.a, game.b, game.c, game.d, k.K1, k.K2)

    @property
    def x_constant(self):
        """Constant term of the x-equation bracket, a K1 + b K2."""
        return self.a * self.K1 + self.b * self.K2

    @property
    def x_slope(self):
        """Coefficient of y in the x-equation bracket, -(a+b)(K1+K2)."""
        return -(self.a + self.b) * (self.K1 + self.K2)

    @property
    def y_constant(self):
        return self.c * self.K1 + self.d * self.K2

    @property
    def y_slope(self):
        return -(self.c + self.d) * (self.K1 + self.K2)


def field_eval(fld: ReplicatorField, x: float, y: float):
    """Closed-form velocities (dx/dt, dy/dt); defined everywhere in the plane."""
    x, y = _require_real("x", x), _require_real("y", y)
    xdot = x * (1.0 - x) * (fld.x_constant + fld.x_slope * y)
    ydot = y * (1.0 - y) * (fld.y_constant + fld.y_slope * x)
    return xdot, ydot


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step samples of one integrated orbit."""

    times: tuple
    xs: tuple
    ys: tuple
    status: str  # converged | max-steps | left-domain

    def __len__(self):
        return len(self.times)

    @property
    def final(self):
        return (self.xs[-1], self.ys[-1])


def _check_integration_options(step, max_steps, convergence_tol):
    return (_require_tolerance("step", step),
            _require_count("max_steps", max_steps, maximum=MAX_STEPS_LIMIT),
            _require_tolerance("convergence_tol", convergence_tol, positive=False))


def integrate(fld: ReplicatorField, start, step=DEFAULT_STEP,
              max_steps=DEFAULT_MAX_STEPS,
              convergence_tol=DEFAULT_CONVERGENCE_TOL) -> Trajectory:
    """Integrate with classical fixed-step RK4 from the pair ``start`` = (x, y).

    Before each step, and at the state after the last one, two stop tests run
    in this order.  The orbit is "converged" once the sup-norm of the velocity
    is below ``convergence_tol``: both ``|dx/dt|`` and ``|dy/dt|`` are below
    it, which a NaN velocity never is and which a ``convergence_tol`` <= 0
    never allows.  It is "left-domain" once the state is not inside the
    widened square [-0.1, 1.1]^2, a NaN state included.  Otherwise it runs
    ``max_steps`` steps (status "max-steps"); ``max_steps`` is at most
    ``MAX_STEPS_LIMIT``.  After each step a coordinate within ``CLAMP_GUARD``
    outside [0, 1] is pulled back onto the face.
    """
    step, max_steps, tol = _check_integration_options(step, max_steps, convergence_tol)
    x, y = _require_pair("start", start)
    x, y = _require_finite("start x", x), _require_finite("start y", y)

    # The field is x(1-x)(p + q y), y(1-y)(r + s x), evaluated inline below in
    # the same floating-point order as field_eval.  The velocity of the stop
    # test is the k1 of the next step.
    p, q, r, s = fld.x_constant, fld.x_slope, fld.y_constant, fld.y_slope
    h, hh = step, 0.5 * step
    lo, hi = -DOMAIN_MARGIN, 1.0 + DOMAIN_MARGIN
    near0, near1 = -CLAMP_GUARD, 1.0 + CLAMP_GUARD
    xs = [x]
    ys = [y]
    status = "max-steps"
    for n in range(max_steps + 1):
        k1x = x * (1.0 - x) * (p + q * y)
        k1y = y * (1.0 - y) * (r + s * x)
        # |v| < tol as chained compares, which a NaN velocity never passes.
        if -tol < k1x < tol and -tol < k1y < tol:
            status = "converged"
            break
        if not (lo <= x <= hi and lo <= y <= hi):
            status = "left-domain"
            break
        if n == max_steps:
            break
        u, v = x + hh * k1x, y + hh * k1y
        k2x = u * (1.0 - u) * (p + q * v)
        k2y = v * (1.0 - v) * (r + s * u)
        u, v = x + hh * k2x, y + hh * k2y
        k3x = u * (1.0 - u) * (p + q * v)
        k3y = v * (1.0 - v) * (r + s * u)
        u, v = x + h * k3x, y + h * k3y
        k4x = u * (1.0 - u) * (p + q * v)
        k4y = v * (1.0 - v) * (r + s * u)
        x = x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y = y + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        # Pull integration noise back onto the faces; genuine excursions are kept.
        # Nested, so that a coordinate inside [0, 1] costs two compares.
        if x < 0.0:
            if x > near0:
                x = 0.0
        elif x > 1.0:
            if x < near1:
                x = 1.0
        if y < 0.0:
            if y > near0:
                y = 0.0
        elif y > 1.0:
            if y < near1:
                y = 1.0
        xs.append(x)
        ys.append(y)
    times = tuple([i * step for i in range(len(xs))])
    return Trajectory(times, tuple(xs), tuple(ys), status)


def phase_portrait(fld: ReplicatorField, grid_n: int, step=DEFAULT_STEP,
                   max_steps=DEFAULT_MAX_STEPS,
                   convergence_tol=DEFAULT_CONVERGENCE_TOL):
    """Integrate one trajectory per seed of a grid_n x grid_n lattice in (0,1)^2.

    Seeds landing exactly on an equilibrium are skipped; output order follows
    the lattice (row-major in x, then y).  ``grid_n`` is at most ``GRID_LIMIT``.
    """
    seeds = _portrait_seeds(fld, grid_n, step, max_steps, convergence_tol)
    return [integrate(fld, seed, step=step, max_steps=max_steps,
                      convergence_tol=convergence_tol) for seed in seeds]


def _portrait_seeds(fld, grid_n, step, max_steps, convergence_tol):
    """The seeds phase_portrait integrates, in its order: the lattice points
    that are not rest points.

    Every argument is checked before the first seed, also for a portrait whose
    every seed is skipped.
    """
    grid_n = _require_count("grid_n", grid_n, minimum=2, maximum=GRID_LIMIT)
    _check_integration_options(step, max_steps, convergence_tol)
    coords = [(i + 1) / (grid_n + 1) for i in range(grid_n)]
    return [(x, y) for x in coords for y in coords if field_eval(fld, x, y) != (0.0, 0.0)]

