import math

import pytest
from hypothesis import given, strategies as st

from quantum_replicator import (
    ClassicalBimatrix,
    InitialStateWeights,
    SimplifiedGame,
    ValidationError,
    k_params,
    mw_scheme_oracle,
    payoff_female,
    payoff_male,
    quantum_transform,
)

from conftest import make_weights

payoff_entries = st.floats(min_value=-10, max_value=10, allow_nan=False)
raw_weights = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4)
probabilities = st.floats(min_value=0.0, max_value=1.0)
bimatrices = st.builds(ClassicalBimatrix, *([payoff_entries] * 8))
states = raw_weights.map(make_weights)


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            InitialStateWeights(-0.1, 0.5, 0.3, 0.3)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError, match="weights must sum to 1"):
            InitialStateWeights(0.3, 0.3, 0.3, 0.3)

    def test_renormalized(self):
        s = InitialStateWeights.renormalized(3, 4, 1, 2)
        assert s.as_tuple() == (0.3, 0.4, 0.1, 0.2)

    def test_nonfinite_payoff_rejected(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match="must be a finite real"):
                SimplifiedGame(value, 0, 0, 0)
            with pytest.raises(ValidationError, match="must be a finite real"):
                InitialStateWeights(1.0, 0.0, 0.0, value)

    def test_non_number_payoffs_rejected(self):
        with pytest.raises(ValidationError, match="must be a real number"):
            SimplifiedGame('1', True, 1, 1)
        with pytest.raises(ValidationError, match="must be a real number"):
            SimplifiedGame(1, True, 1, 1)
        with pytest.raises(ValidationError):
            InitialStateWeights.renormalized("3", 4, 1, 2)

    def test_int_too_large_for_a_float_rejected(self):
        with pytest.raises(ValidationError, match="too large"):
            SimplifiedGame(10**400, 1, 1, 1)

    def test_int_and_float_subclasses_accepted(self):
        class Payoff(float):
            pass

        game = SimplifiedGame(Payoff(1.5), 2, -1, 0)
        assert (game.a, game.b) == (1.5, 2.0)
        assert type(game.a) is float and type(game.b) is float

    def test_probability_out_of_range(self):
        pair = quantum_transform(SimplifiedGame(1, 2, 3, 4).to_bimatrix(),
                                 InitialStateWeights.classical())
        with pytest.raises(ValidationError):
            payoff_male(pair, 1.5, 0.5)


class TestQuantumTransform:
    def test_classical_embedding_exact(self):
        game = ClassicalBimatrix(1.0, 2.5, -3.0, 0.5, -1.0, 4.0, 2.0, -0.25)
        pair = quantum_transform(game, InitialStateWeights.classical())
        assert pair.omega == game.male_matrix
        assert pair.chi == game.female_matrix

    def test_half_half_weights(self):
        # a=2, b=1, c=1, d=3 embedded; weights (0.5, 0.5, 0, 0)
        game = SimplifiedGame(2, 1, 1, 3).to_bimatrix()
        pair = quantum_transform(game, InitialStateWeights(0.5, 0.5, 0.0, 0.0))
        assert pair.omega == ((1.0, 1.0), (0.5, 0.5))

    def test_uniform_weights_symmetrize(self):
        game = ClassicalBimatrix(1, 2, 3, 4, -1, -2, -3, -4)
        pair = quantum_transform(game, InitialStateWeights(0.25, 0.25, 0.25, 0.25))
        for row in pair.omega:
            for entry in row:
                assert entry == pytest.approx(2.5, abs=1e-15)
        for row in pair.chi:
            for entry in row:
                assert entry == pytest.approx(-2.5, abs=1e-15)

    @given(bimatrices, states)
    def test_double_flip_symmetry(self, game, state):
        flipped = InitialStateWeights(state.w22, state.w21, state.w12, state.w11)
        pair = quantum_transform(game, state)
        pair_f = quantum_transform(game, flipped)
        assert pair_f.omega11 == pytest.approx(pair.omega22, abs=1e-12)
        assert pair_f.omega12 == pytest.approx(pair.omega21, abs=1e-12)
        assert pair_f.chi11 == pytest.approx(pair.chi22, abs=1e-12)
        assert pair_f.chi12 == pytest.approx(pair.chi21, abs=1e-12)

    @given(bimatrices, states)
    def test_convex_combination_bound(self, game, state):
        pair = quantum_transform(game, state)
        a_entries = [game.a11, game.a12, game.a21, game.a22]
        b_entries = [game.b11, game.b12, game.b21, game.b22]
        for row in pair.omega:
            for entry in row:
                assert min(a_entries) - 1e-12 <= entry <= max(a_entries) + 1e-12
        for row in pair.chi:
            for entry in row:
                assert min(b_entries) - 1e-12 <= entry <= max(b_entries) + 1e-12


class TestKParams:
    def test_classical(self):
        k = k_params(InitialStateWeights.classical())
        assert (k.K1, k.K2) == (1.0, 0.0)

    def test_uniform(self):
        k = k_params(InitialStateWeights(0.25, 0.25, 0.25, 0.25))
        assert (k.K1, k.K2) == (0.0, 0.0)

    def test_case_a_weights(self):
        k = k_params(InitialStateWeights(0.3, 0.4, 0.1, 0.2))
        assert k.K1 == pytest.approx(0.2, abs=1e-15)
        assert k.K2 == pytest.approx(-0.2, abs=1e-15)

    @given(states)
    def test_k_magnitude_bound(self, state):
        k = k_params(state)
        assert abs(k.K1) + abs(k.K2) <= 1.0 + 1e-12


class TestPayoffs:
    def test_corners_pick_entries(self):
        pair = quantum_transform(ClassicalBimatrix(1, 2, 3, 4, 5, 6, 7, 8),
                                 InitialStateWeights.classical())
        assert payoff_male(pair, 1, 1) == 1
        assert payoff_male(pair, 1, 0) == 2
        assert payoff_male(pair, 0, 1) == 3
        assert payoff_female(pair, 0, 0) == 8

    def test_mixed_battle_of_sexes(self):
        game = ClassicalBimatrix(0, 1, 2, 0, 0, 0, 0, 0)
        pair = quantum_transform(game, InitialStateWeights.classical())
        assert payoff_male(pair, 0.5, 0.5) == pytest.approx(0.75, abs=1e-15)


class TestSchemeOracle:
    def test_classical_state_no_flip(self):
        game = ClassicalBimatrix(1, 2, 3, 4, 5, 6, 7, 8)
        state = InitialStateWeights.classical()
        assert mw_scheme_oracle(game, state, 1, 1) == (1, 5)
        assert mw_scheme_oracle(game, state, 0, 0) == (4, 8)

    @given(bimatrices, states, probabilities, probabilities)
    def test_matches_transformed_bilinear(self, game, state, x, y):
        pair = quantum_transform(game, state)
        pm, pf = mw_scheme_oracle(game, state, x, y)
        assert math.isclose(pm, payoff_male(pair, x, y), abs_tol=1e-12)
        assert math.isclose(pf, payoff_female(pair, x, y), abs_tol=1e-12)


class TestSimplifiedGame:
    def test_embedding_zeros(self):
        full = SimplifiedGame(1, 2, 3, 4).to_bimatrix()
        assert (full.a11, full.b11, full.a22, full.b22) == (0, 0, 0, 0)
        assert (full.a12, full.a21, full.b12, full.b21) == (1, 2, 3, 4)

    def test_round_trip_through_reduction(self):
        game = SimplifiedGame(1.5, -2.0, 0.75, 3.0)
        assert SimplifiedGame.from_bimatrix(game.to_bimatrix()) == game
