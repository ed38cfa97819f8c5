import pytest
from hypothesis import given, strategies as st

from quantum_replicator import (
    InitialStateWeights,
    SimplifiedGame,
    ValidationError,
    compare_classical_quantum,
    corner_roots_10,
    k_params,
    strict_ne_margins_10,
    verdict_10,
)
from quantum_replicator.ess import DEFAULT_STRICTNESS_TOL

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
    def test_male_margin_is_minus_root(self, game, state):
        m = strict_ne_margins_10(game, state)
        k = k_params(state)
        root = corner_roots_10(game.a, game.b, game.c, game.d, k.K1, k.K2)[0]
        # Bit for bit: rounding is symmetric under negation.
        assert m.m_male == -root


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
           st.one_of(st.just(DEFAULT_STRICTNESS_TOL),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    def test_symmetric_slice_ess_iff_attractor_exactly(self, game, w11, share, tol):
        # With w11 == w22 the margins are the negated corner roots bit for
        # bit, so the two verdicts agree at every tolerance, marginal or not.
        w12 = (1.0 - 2 * w11) * share
        state = InitialStateWeights(w11, w12, 1.0 - 2 * w11 - w12, w11)
        v = verdict_10(game, state, tol=tol)
        assert v.margins.m_male == -v.roots[0]
        assert v.margins.m_female == -v.roots[1]
        assert v.is_ess == v.is_attractor
