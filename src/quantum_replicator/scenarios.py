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
from .ess import FLIP_NONE, _flip, compare_classical_quantum, verdict_10
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
    """One defining inequality of a showcase instance: its name, the value it
    tests and whether the instance satisfies it."""

    name: str
    value: float
    ok: bool


@dataclass(frozen=True)
class ScenarioInstance:
    """A showcase game and initial state with the checks that verify its story;
    building one with a failed check raises ValidationError."""

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


# Integer payoffs of at most this size are decided exactly, a lattice line at a
# time, with the verdicts of the float loop.  Each sign the float loop decides is
# that of a form x (w - w') + y (v - v'), with x and y among a, b, c, d and their
# negations and each w = k / r rounded, so |x| + |y| <= 2**17.  With u = 2**-53, a rounded weight
# errs by at most u times itself, at most u; a difference of two weights by at most
# 3u (2u from its operands, u from its rounding); a product x D by at most 4u |x|;
# and the sum by at most 5u (|x| + |y|), all to first order.  So 9u (|x| + |y|),
# which leaves room for the second-order terms, bounds the error of every form:
# 9 * 2**-36 = 1.3e-10 at this limit, below DEFAULT_ZERO_TOL.  The exact value of
# each form is an integer over r <= RESOLUTION_LIMIT, so a nonzero one is at least
# 1/250 in size.  A float form is therefore > DEFAULT_ZERO_TOL exactly when its
# integer form is > 0, and < -DEFAULT_ZERO_TOL exactly when it is < 0.
_EXACT_PAYOFF_LIMIT = 2 ** 16


def _flip_table(game):
    """The classical verdict of game and flips[is_ess][is_attractor]: the flip label
    of each quantum outcome against it, FLIP_NONE for the classical outcome itself."""
    classical = verdict_10(game, InitialStateWeights.classical())
    return classical, [[_flip(classical.is_ess, classical.is_attractor, e, t)
                        for t in (False, True)] for e in (False, True)]


def _scan_lattice(game: SimplifiedGame, r: int):
    """The runs (k11, k12, lo, hi, flip) of the hits, decided point by point.

    A run is the lattice parts (k11, k12, k21, r - k11 - k12 - k21) for k21 in
    range(lo, hi), all hits with one flip label; no two runs that meet share a
    label, and the runs come in scan_flip's order.
    """
    classical, flips = _flip_table(game)
    # Read once, before the line loops: locals cost less than attributes and globals.
    classical_ess, classical_attractor = classical.is_ess, classical.is_attractor
    none = FLIP_NONE
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
            lo, run, ess, attractor = 0, none, classical_ess, classical_attractor
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
                # Most points repeat the outcome of the one before, and two
                # outcomes may share a label.
                if is_ess is not ess or is_attractor is not attractor:
                    ess, attractor = is_ess, is_attractor
                    flip = flips[ess][attractor]
                    if flip is not run:
                        if run is not none:
                            yield k11, k12, lo, k21, run
                        lo, run = k21, flip
            if run is not none:
                yield k11, k12, lo, n + 1, run


def _scan_integer(game: SimplifiedGame, r: int):
    """The runs of _scan_lattice for a game of integer payoffs of at most
    _EXACT_PAYOFF_LIMIT in size, decided a lattice line (k11, k12) at a time.

    On a line, with n = r - k11 - k12, r times each of the three forms of the
    verdict is s0 - s k21: the male margin (a k11 + b (n - k12), a + b), the
    female root form (c (n - k12) + d k11, c + d) and the female margin
    (c (k11 - k12) + d n, 2 d).  Each changes sign at most once on [0, n], so
    the line splits into at most four runs of one outcome.
    """
    _, flips = _flip_table(game)
    a, b, c, d = (int(p) for p in (game.a, game.b, game.c, game.d))
    male_s, root_s, female_s = a + b, c + d, 2 * d
    # A form is positive below its cut ceil(s0 / s) when s > 0, and from its cut
    # floor(s0 / s) + 1 on when s < 0: either way the cut is (s0 + t) // s.
    male_t, root_t, female_t = (s - 1 if s > 0 else s for s in (male_s, root_s, female_s))
    for k11 in range(r + 1):
        for k12 in range(r + 1 - k11):
            n = r - k11 - k12
            male0 = a * k11 + b * (n - k12)
            root0 = c * (n - k12) + d * k11
            female0 = c * (k11 - k12) + d * n
            lo, run = 0, FLIP_NONE
            # The outcome changes only at a cut, so it holds from 0 and from each
            # cut in [0, n] up to the next; a form with s = 0 keeps its sign and
            # proposes no cut beyond 0.  A repeated cut repeats the outcome.
            for start in sorted((0, (male0 + male_t) // male_s if male_s else 0,
                                 (root0 + root_t) // root_s if root_s else 0,
                                 (female0 + female_t) // female_s if female_s else 0)):
                if 0 <= start <= n:
                    male = male0 > male_s * start
                    flip = flips[male and female0 > female_s * start][
                        male and root0 > root_s * start]
                    if flip is not run:
                        if run is not FLIP_NONE:
                            yield k11, k12, lo, start, run
                        lo, run = start, flip
            if run is not FLIP_NONE:
                yield k11, k12, lo, n + 1, run


def _scan_runs(game: SimplifiedGame, r: int):
    """The runs (k11, k12, lo, hi, flip) of the hits of game at resolution r, from
    _scan_integer where it applies, else from _scan_lattice: the same runs.  r is
    checked here, before any run is made, not when the runs are read."""
    _require_count("resolution", r, maximum=RESOLUTION_LIMIT)
    payoffs = (game.a, game.b, game.c, game.d)
    if all(p.is_integer() and abs(p) <= _EXACT_PAYOFF_LIMIT for p in payoffs):
        return _scan_integer(game, r)
    return _scan_lattice(game, r)


def scan_flip(game: SimplifiedGame, resolution: int):
    """Scan the weight simplex on a uniform lattice for stability flips.

    Enumerates all weight tuples (k11, k12, k21, k22)/resolution with integer
    parts summing to ``resolution``, in lexicographic order, and returns the
    (weights, flip) pairs whose classical-vs-quantum comparison flips.
    ``resolution`` is at most ``RESOLUTION_LIMIT``.
    """
    runs = _scan_runs(game, resolution)  # checks resolution before w is built
    r = resolution
    # The hits share these floats: a fresh k / r per weight would hold a third more.
    w = [k / r for k in range(r + 1)]
    return [(InitialStateWeights(w[k11], w[k12], w[k21], w[r - k11 - k12 - k21]), flip)
            for k11, k12, lo, hi, flip in runs for k21 in range(lo, hi)]
