"""Verified showcase instances and a simplex scan for stability flips.

Three stock instances demonstrate how the choice of initial state changes the
character of the corner (1, 0) and of the interior rest point:

* case a: attractor in both forms, ESS only after quantization;
* case b: attractor in both forms, ESS only classically;
* case c: interior linear center classically, saddle after quantization.

Each constructor re-checks every defining inequality and refuses to build an
instance that does not satisfy its own story.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import ReplicatorField
from .ess import _flip, compare_classical_quantum, verdict_10
from .games import (InitialStateWeights, SimplifiedGame, ValidationError,
                    _require_choice, _require_count)
from .stability import DEFAULT_ZERO_TOL, interior_lambda_sq, interior_point

__all__ = [
    "ScenarioInstance",
    "Check",
    "make_case",
    "make_case_a",
    "make_case_b",
    "make_case_c",
    "scan_flip",
]

# A hit in the list that scan_flip returns costs about 304 B at resolution 60 and
# 120 (its weights record and list entry), so at this resolution, with
# C(253, 3) = 2.67e6 lattice points, the list nears 0.81 GB when every point is a
# hit.  The scan command holds no such list, only the CSV chunk it is writing.
RESOLUTION_LIMIT = 250


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    ok: bool


@dataclass(frozen=True)
class ScenarioInstance:
    game: SimplifiedGame
    state: InitialStateWeights
    case_label: str
    verification: tuple

    def __post_init__(self):
        failed = [c.name for c in self.verification if not c.ok]
        if failed:
            raise ValidationError(
                f"case {self.case_label}: verification failed for {failed}")


def _positive(name, value):
    return Check(name, value, value > 0.0)


def _negative(name, value):
    return Check(name, value, value < 0.0)


def make_case_a() -> ScenarioInstance:
    """Corner attractor that is no ESS classically but becomes one when quantized.

    Needs a, d > 0 and b, c < 0 with weight ordering w21 < w22 < w11 < w12.
    """
    game = SimplifiedGame(a=1.0, b=-1.0, c=-1.0, d=1.0)
    state = InitialStateWeights(0.3, 0.4, 0.1, 0.2)
    report = compare_classical_quantum(game, state)
    checks = (
        _positive("a > 0", game.a),
        _positive("d > 0", game.d),
        _negative("b < 0", game.b),
        _negative("c < 0", game.c),
        _positive("w22 - w21", state.w22 - state.w21),
        _positive("w11 - w22", state.w11 - state.w22),
        _positive("w12 - w11", state.w12 - state.w11),
        _negative("classical root 1", report.classical.roots[0]),
        _negative("classical root 2", report.classical.roots[1]),
        _negative("classical m_female (non-ESS)", report.classical.margins.m_female),
        _negative("quantum root 1", report.quantum.roots[0]),
        _negative("quantum root 2", report.quantum.roots[1]),
        _positive("quantum m_male", report.quantum.margins.m_male),
        _positive("quantum m_female", report.quantum.margins.m_female),
    )
    return ScenarioInstance(game, state, "a", checks)


def make_case_b() -> ScenarioInstance:
    """Classical ESS attractor that loses the ESS property when quantized.

    Needs a, c, d > 0 and b < 0 with ordering w22 < w21 < w11 < w12 and the
    side condition c(w12 - w22) < d(w11 - w21).
    """
    game = SimplifiedGame(a=1.0, b=-1.0, c=1.0, d=2.0)
    state = InitialStateWeights(0.35, 0.40, 0.15, 0.10)
    report = compare_classical_quantum(game, state)
    checks = (
        _positive("a > 0", game.a),
        _positive("c > 0", game.c),
        _positive("d > 0", game.d),
        _negative("b < 0", game.b),
        _positive("w21 - w22", state.w21 - state.w22),
        _positive("w11 - w21", state.w11 - state.w21),
        _positive("w12 - w11", state.w12 - state.w11),
        _positive("side condition d(w11-w21) - c(w12-w22)",
                  game.d * (state.w11 - state.w21) - game.c * (state.w12 - state.w22)),
        _positive("classical m_male", report.classical.margins.m_male),
        _positive("classical m_female", report.classical.margins.m_female),
        _negative("classical root 1", report.classical.roots[0]),
        _negative("classical root 2", report.classical.roots[1]),
        _negative("quantum root 1", report.quantum.roots[0]),
        _negative("quantum root 2", report.quantum.roots[1]),
        _negative("quantum m_female (non-ESS)", report.quantum.margins.m_female),
    )
    return ScenarioInstance(game, state, "b", checks)


def make_case_c() -> ScenarioInstance:
    """Interior linear center classically, saddle of the planar field quantized.

    The quantized rest point leaves the unit square for this instance; the
    sign flip of the squared root is only attainable that way, which the
    instance records as an explicit check.
    """
    game = SimplifiedGame(a=1.0, b=3.0, c=-2.0, d=-1.0)
    state = InitialStateWeights(0.25, 0.60, 0.05, 0.10)
    fld = ReplicatorField.quantum(game, state)
    lam_sq_classical = interior_lambda_sq(game.a, game.b, game.c, game.d, 1.0, 0.0)
    lam_sq_quantum = interior_lambda_sq(game.a, game.b, game.c, game.d, fld.K1, fld.K2)
    (x_cl, y_cl), _ = interior_point(ReplicatorField.classical(game))
    (x_q, y_q), _ = interior_point(fld)
    checks = (
        _negative("classical lambda^2 (center)", lam_sq_classical),
        _positive("quantum lambda^2 (saddle)", lam_sq_quantum),
        Check("classical interior inside unit square", x_cl,
              0.0 < x_cl < 1.0 and 0.0 < y_cl < 1.0),
        Check("quantum interior outside unit square", y_q,
              not (0.0 < x_q < 1.0 and 0.0 < y_q < 1.0)),
    )
    return ScenarioInstance(game, state, "c", checks)


def make_case(label: str) -> ScenarioInstance:
    cases = {"a": make_case_a, "b": make_case_b, "c": make_case_c}
    return cases[_require_choice("case", label, tuple(cases))]()


def _scan_lattice(game: SimplifiedGame, r: int):
    """The lattice parts (k11, k12, k21, k22) of r and the flip of each hit, in
    scan_flip's order; r is not checked."""
    classical = verdict_10(game, InitialStateWeights.classical())
    classical_ess, classical_attractor = classical.is_ess, classical.is_attractor
    # flips[is_ess][is_attractor]: the label of each outcome, decided once by _flip.
    flips = [[_flip(classical_ess, classical_attractor, e, t) for t in (False, True)]
             for e in (False, True)]
    a, b, c, d = game.a, game.b, game.c, game.d
    tol = DEFAULT_ZERO_TOL
    neg_c, neg_tol = -c, -tol
    w = [k / r for k in range(r + 1)]
    for k11 in range(r + 1):
        w11 = w[k11]
        for k12 in range(r + 1 - k11):
            w12 = w[k12]
            female_c = c * (w11 - w12)
            n = r - k11 - k12
            for k21 in range(n + 1):
                w21, w22 = w[k21], w[n - k21]
                # verdict_10 inline, in the same floating-point order, with the terms
                # that do not change with k21 computed once; the male margin a K1 + b K2
                # is minus the first corner root up to the sign of a zero.
                K1 = w11 - w21
                K2 = w22 - w12
                male = a * K1 + b * K2 > tol
                is_attractor = male and neg_c * K2 - d * K1 < neg_tol
                is_ess = male and female_c + d * (w22 - w21) > tol
                if is_ess != classical_ess or is_attractor != classical_attractor:
                    yield k11, k12, k21, n - k21, flips[is_ess][is_attractor]


def scan_flip(game: SimplifiedGame, resolution: int):
    """Scan the weight simplex on a uniform lattice for stability flips.

    Enumerates all weight tuples (k11, k12, k21, k22)/resolution with integer
    parts summing to ``resolution``, in lexicographic order, and returns the
    (weights, flip) pairs whose classical-vs-quantum comparison flips.
    ``resolution`` is at most ``RESOLUTION_LIMIT``.
    """
    r = _require_count("resolution", resolution, maximum=RESOLUTION_LIMIT)
    # The hits share these floats: a fresh k / r per weight would hold a third more.
    w = [k / r for k in range(r + 1)]
    return [(InitialStateWeights(w[k11], w[k12], w[k21], w[k22]), flip)
            for k11, k12, k21, k22, flip in _scan_lattice(game, r)]
