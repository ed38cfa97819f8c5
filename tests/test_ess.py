import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from quantum_replicator import (
    InitialStateWeights,
    SimplifiedGame,
    ValidationError,
    compare_classical_quantum,
    corner_roots_10,
    k_params,
    scan_flip,
    strict_ne_margins_10,
    verdict_10,
)
from quantum_replicator.stability import DEFAULT_ZERO_TOL

import exact
from conftest import make_weights

CASE_A = SimplifiedGame(1, -1, -1, 1)
CASE_A_STATE = InitialStateWeights(0.3, 0.4, 0.1, 0.2)
CASE_B = SimplifiedGame(1, -1, 1, 2)
CASE_B_STATE = InitialStateWeights(0.35, 0.40, 0.15, 0.10)

payoffs = st.floats(min_value=-5, max_value=5, allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
games = st.builds(SimplifiedGame, payoffs, payoffs, payoffs, payoffs)
raw_weights = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4)
states = raw_weights.map(make_weights)


class TestMargins:
    def test_classical_state_gives_a_and_c(self):
        m = strict_ne_margins_10(SimplifiedGame(2.5, -1, 0.75, 3),
                                 InitialStateWeights.classical())
        assert (m.m_male, m.m_female) == (2.5, 0.75)

    def test_case_a_quantum(self):
        m = strict_ne_margins_10(CASE_A, CASE_A_STATE)
        assert m.m_male == pytest.approx(0.4, abs=1e-15)
        assert m.m_female == pytest.approx(0.2, abs=1e-15)

    def test_case_b_quantum(self):
        m = strict_ne_margins_10(CASE_B, CASE_B_STATE)
        assert m.m_male == pytest.approx(0.5, abs=1e-15)
        assert m.m_female == pytest.approx(-0.15, abs=1e-15)

    @given(games, states)
    @example(SimplifiedGame(1, 1, 1, 1), InitialStateWeights(0.5, 0.5, 0.0, 0.0))
    def test_male_margin_is_minus_root(self, game, state):
        m = strict_ne_margins_10(game, state)
        k = k_params(state)
        root = corner_roots_10(game.a, game.b, game.c, game.d, k.K1, k.K2)[0]
        # Rounding is symmetric under negation, so the two are equal up to the
        # sign of a zero and every comparison agrees; a nonzero value agrees bit
        # for bit.
        assert m.m_male == -root
        if m.m_male != 0.0:
            assert struct.pack("<d", m.m_male) == struct.pack("<d", -root)

    def test_zero_male_margin_and_negated_root_differ_in_sign(self):
        v = verdict_10(SimplifiedGame(1, 1, 1, 1), InitialStateWeights(0.5, 0.5, 0.0, 0.0))
        assert struct.pack("<d", v.margins.m_male) == struct.pack("<d", 0.0)
        assert struct.pack("<d", -v.roots[0]) == struct.pack("<d", -0.0)
        assert v.marginal and not v.is_ess and not v.is_attractor


class TestVerdict:
    def test_case_a_both_forms(self):
        classical = verdict_10(CASE_A, InitialStateWeights.classical())
        assert classical.is_attractor and not classical.is_ess
        quantum = verdict_10(CASE_A, CASE_A_STATE)
        assert quantum.is_attractor and quantum.is_ess

    def test_case_b_both_forms(self):
        classical = verdict_10(CASE_B, InitialStateWeights.classical())
        assert classical.is_attractor and classical.is_ess
        quantum = verdict_10(CASE_B, CASE_B_STATE)
        assert quantum.is_attractor and not quantum.is_ess

    def test_zero_eigenvalue_is_marginal(self):
        v = verdict_10(SimplifiedGame(0, 1, 1, 0), InitialStateWeights.classical())
        assert v.marginal
        assert not v.is_attractor

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            verdict_10(CASE_A, CASE_A_STATE, tol=-1)

    @pytest.mark.parametrize("tol, message", [
        (0.0, "tol must be positive, got 0.0"),
        (float("-inf"), "tol must be positive, got -inf"),
        (float("nan"), "tol must be finite, got nan"),
        (float("inf"), "tol must be finite, got inf"),
        ("1e-9", "tol must be a real number, got '1e-9'"),
        (True, "tol must be a real number, got True"),
        (None, "tol must be a real number, got None"),
    ])
    def test_non_positive_or_non_finite_tol_rejected(self, tol, message):
        with pytest.raises(ValidationError, match=message):
            verdict_10(CASE_A, CASE_A_STATE, tol=tol)
        with pytest.raises(ValidationError, match=message):
            compare_classical_quantum(CASE_A, CASE_A_STATE, tol=tol)

    def test_classical_specialization(self, rng):
        # classically: ESS iff a, c > 0 and attractor iff a, d > 0
        for _ in range(200):
            game = SimplifiedGame(*(rng.uniform(-3, 3) for _ in range(4)))
            v = verdict_10(game, InitialStateWeights.classical())
            if not v.marginal:
                assert v.is_ess == (game.a > 0 and game.c > 0)
                assert v.is_attractor == (game.a > 0 and game.d > 0)


class TestCompare:
    def test_case_a_flip(self):
        assert compare_classical_quantum(CASE_A, CASE_A_STATE).flip == "gained-ess"

    def test_case_b_flip(self):
        assert compare_classical_quantum(CASE_B, CASE_B_STATE).flip == "lost-ess"

    def test_classical_state_no_flip(self):
        report = compare_classical_quantum(CASE_A, InitialStateWeights.classical())
        assert report.flip == "none"
        assert report.classical == report.quantum

    def test_attractor_flip(self):
        # a > 0 > d: (1,0) not a classical attractor; symmetric weights with
        # K1 > 0 > K2 can flip the second root's sign
        game = SimplifiedGame(1, 0.5, 1, -0.25)
        state = InitialStateWeights(0.4, 0.15, 0.05, 0.4)
        report = compare_classical_quantum(game, state)
        assert report.flip == "gained-attractor"


class TestEquivalenceBand:
    def test_symmetric_weights_link_ess_and_attractor(self, rng):
        checked = 0
        while checked < 500:
            game = SimplifiedGame(*(rng.uniform(-3, 3) for _ in range(4)))
            w11 = rng.uniform(0.0, 0.5)
            w12 = (1.0 - 2 * w11) * rng.random()
            w21 = 1.0 - 2 * w11 - w12
            state = InitialStateWeights(w11, w12, w21, 1.0 - w11 - w12 - w21)
            assert abs(state.w11 - state.w22) < 1e-12
            v = verdict_10(game, state, tol=1e-6)
            if v.marginal:
                continue
            assert v.is_ess == v.is_attractor
            checked += 1

    @given(st.builds(SimplifiedGame, finite, finite, finite, finite),
           st.floats(0.0, 0.5), st.floats(0.0, 1.0),
           st.one_of(st.just(DEFAULT_ZERO_TOL),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    def test_symmetric_slice_ess_iff_attractor_exactly(self, game, w11, share, tol):
        # With w11 == w22 the margins are the negated corner roots up to the
        # sign of a zero, so every comparison agrees and the two verdicts agree
        # at every tolerance, marginal or not.
        w12 = (1.0 - 2 * w11) * share
        state = InitialStateWeights(w11, w12, 1.0 - 2 * w11 - w12, w11)
        v = verdict_10(game, state, tol=tol)
        assert v.margins.m_male == -v.roots[0]
        assert v.margins.m_female == -v.roots[1]
        assert v.is_ess == v.is_attractor


@st.composite
def lattice_points(draw):
    """A resolution r and four non-negative integers summing to r."""
    r = draw(st.integers(1, 24))
    k11 = draw(st.integers(0, r))
    k12 = draw(st.integers(0, r - k11))
    k21 = draw(st.integers(0, r - k11 - k12))
    return r, (k11, k12, k21, r - k11 - k12 - k21)


int_payoffs = st.integers(-6, 6)
int_games = st.tuples(int_payoffs, int_payoffs, int_payoffs, int_payoffs)


def scaled_draws(count):
    """count draws of integer payoffs in [-6, 6] with lattice parts k of r <= 24."""
    rng = random.Random(5)
    for _ in range(count):
        payoffs = tuple(rng.randint(-6, 6) for _ in range(4))
        r = rng.randint(1, 24)
        cuts = sorted(rng.randint(0, r) for _ in range(3))
        yield payoffs, r, (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], r - cuts[2])


def beyond_abs_tol(k):
    return pytest.param(k, marks=pytest.mark.xfail(
        strict=True, reason="verdict_10's tolerance is absolute, not relative to the "
        "payoffs (ROADMAP item 2)"))


class TestExactOracle:
    """Integer games at lattice weights: every sign decision is exact.

    Every nonzero exact root or margin is a multiple of 1/r >= 1/24, far above
    both tolerances, and a zero one rounds to within about 1e-15 of zero.
    """

    @settings(max_examples=300)
    @given(int_games, lattice_points())
    def test_verdict_flags_are_the_exact_signs(self, payoffs, point):
        r, k = point
        game = SimplifiedGame(*payoffs)
        state = InitialStateWeights(*(ki / r for ki in k))
        for tol in (DEFAULT_ZERO_TOL, 1e-6):
            v = verdict_10(game, state, tol=tol)
            assert (v.is_attractor, v.is_ess, v.marginal) == exact.verdict(payoffs, k)

    @settings(max_examples=100)
    @given(int_games, st.integers(1, 12))
    def test_scan_hits_are_the_exact_flips(self, payoffs, r):
        hits = scan_flip(SimplifiedGame(*payoffs), r)
        assert [(tuple(round(w * r) for w in s.as_tuple()), flip)
                for s, flip in hits] == exact.scan(payoffs, r)

    # Scaling a game by 2**k is exact and changes no sign.  Of 1000 draws, the full
    # verdict differs from the exact one at 893 and 649 for k = -40 and -30, where
    # every nonzero margin falls inside the tolerance, and at 14 for k = 30 and 40,
    # where a rounded zero margin no longer does.
    @pytest.mark.parametrize("k", [beyond_abs_tol(-40), beyond_abs_tol(-30), -20, -10, 10,
                                   20, beyond_abs_tol(30), beyond_abs_tol(40)])
    def test_scaled_verdict_is_the_exact_verdict(self, k):
        misses = []
        for payoffs, r, parts in scaled_draws(1000):
            v = verdict_10(SimplifiedGame(*(p * 2.0 ** k for p in payoffs)),
                           InitialStateWeights(*(ki / r for ki in parts)))
            if (v.is_attractor, v.is_ess, v.marginal) != exact.verdict(payoffs, parts):
                misses.append((payoffs, parts))
        assert misses == []
