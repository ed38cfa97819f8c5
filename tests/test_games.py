import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

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
from quantum_replicator.games import WEIGHT_SUM_TOL, _require_finite

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

    @pytest.mark.parametrize("weights, message", [
        ((3, -1, 1, 2), "weights must be nonnegative"),
        ((0, 0, -0.0, 0.0), "weights must not all be zero"),
    ])
    def test_renormalized_refuses(self, weights, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            InitialStateWeights.renormalized(*weights)

    def test_renormalized_when_the_sum_overflows(self):
        s = InitialStateWeights.renormalized(1e308, 1e308, 0, 0)
        assert s.as_tuple() == (0.5, 0.5, 0.0, 0.0)
        s = InitialStateWeights.renormalized(1.5e308, 1e308, 1e308, 0)
        assert s.as_tuple() == pytest.approx((3 / 7, 2 / 7, 2 / 7, 0.0), rel=1e-15)
        assert s.w12 == s.w21

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

    @pytest.mark.parametrize("entries,name", [
        ({"a12": 1e308, "a22": -1e308}, "a12 - a22"),
        ({"a21": -1e308, "a11": 1e308}, "a21 - a11"),
        ({"b12": 1e308, "b22": -1e308}, "b12 - b22"),
        ({"b21": -1e308, "b11": 1e308}, "b21 - b11"),
    ])
    def test_overflowing_reduction_names_its_entries(self, entries, name):
        full = dataclasses.replace(SimplifiedGame(1, 1, 1, 1).to_bimatrix(), **entries)
        with pytest.raises(ValidationError) as exc:
            SimplifiedGame.from_bimatrix(full)
        assert str(exc.value).startswith(f"{name} must be a finite real, got ")


def _reference_weights(w11, w12, w21, w22):
    """The original two-pass construction: store the four fields, then re-read,
    check and re-store each one by name, then test the sum."""
    fields = {"w11": w11, "w12": w12, "w21": w21, "w22": w22}
    for name in ("w11", "w12", "w21", "w22"):
        v = _require_finite(name, fields[name])
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        fields[name] = v
    total = fields["w11"] + fields["w12"] + fields["w21"] + fields["w22"]
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights must sum to 1, got {total!r}")
    return tuple(fields.values())


class Weight(float):
    pass


def _outcome(build, values):
    try:
        stored = build(*values)
    except Exception as exc:  # the exact type is compared
        return type(exc), str(exc)
    if isinstance(stored, InitialStateWeights):
        stored = stored.as_tuple()
    return [(type(v), struct.pack("<d", v)) for v in stored]


ODD_VALUES = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 10**400, True,
                              False, None, "0.5", 0, 1, 2, -1, Weight(0.5), Weight(1.5),
                              1e-300, 1.0 + 1e-12, -1e-12])
ANY_VALUE = (st.floats(0.0, 1.0) | st.floats(-2.0, 2.0) | st.floats()
             | st.integers(-2, 2) | st.floats(0.0, 1.0).map(Weight) | ODD_VALUES)


@st.composite
def near_unit_sums(draw):
    """Four values summing to about 1; some outside [0, 1], some not plain floats."""
    if draw(st.booleans()):
        r = draw(st.integers(1, 30))
        parts = draw(st.lists(st.integers(0, r), min_size=3, max_size=3))
        values = [k / r for k in parts] + [(r - sum(parts)) / r]
    else:
        values = draw(st.lists(st.floats(-2.0, 2.0) | st.floats(0.0, 1.0),
                               min_size=3, max_size=3))
        values.append(1.0 - values[0] - values[1] - values[2])
    for i in draw(st.lists(st.integers(0, 3), max_size=2, unique=True)):
        kind = draw(st.sampled_from(["subclass", "int", "negzero", "odd"]))
        if kind == "subclass":
            values[i] = Weight(values[i])
        elif kind == "int" and float(values[i]).is_integer():
            values[i] = int(values[i])
        elif kind == "negzero" and values[i] == 0.0:
            values[i] = -0.0
        elif kind == "odd":
            values[i] = draw(ODD_VALUES)
    return values


@settings(max_examples=400)
@given(near_unit_sums() | st.lists(ANY_VALUE, min_size=4, max_size=4))
def test_constructor_matches_the_two_pass_check(values):
    outcome = _outcome(InitialStateWeights, values)
    assert outcome == _outcome(_reference_weights, values)
    if isinstance(outcome, tuple):
        assert outcome[0] is ValidationError
        return
    state = InitialStateWeights(*values)
    names = ("w11", "w12", "w21", "w22")
    by_keyword = InitialStateWeights(**dict(zip(names, values)))
    assert by_keyword == state and hash(by_keyword) == hash(state)
    assert dataclasses.asdict(state) == dict(zip(names, state.as_tuple()))
    assert tuple(f.name for f in dataclasses.fields(state)) == names
    assert dataclasses.replace(state) == state
    assert dataclasses.replace(state, w11=state.w11) == state
    assert repr(state) == "InitialStateWeights(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, state.as_tuple())) + ")"
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.w11 = 0.5
    with pytest.raises(ValidationError, match="w22 must lie in"):
        dataclasses.replace(state, w22=-0.5)
