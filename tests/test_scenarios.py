import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from quantum_replicator import (
    InitialStateWeights,
    ScenarioInstance,
    SimplifiedGame,
    ValidationError,
    compare_classical_quantum,
    make_case,
    make_case_a,
    make_case_b,
    make_case_c,
    scan_flip,
)
from quantum_replicator.scenarios import RESOLUTION_LIMIT, Check
from quantum_replicator.stability import DEFAULT_ZERO_TOL

# Any finite float, plus small integers and multiples of the sign
# tolerance, so that margins and roots land exactly on 0 or on +-tol at
# lattice points.
small_ints = st.integers(-3, 3).map(float)
payoffs = st.one_of(st.floats(allow_nan=False, allow_infinity=False), small_ints,
                    small_ints.map(lambda k: k * DEFAULT_ZERO_TOL))
games = st.one_of(
    st.builds(SimplifiedGame, payoffs, payoffs, payoffs, payoffs),
    st.builds(lambda a, c, d: SimplifiedGame(a, -a, c, d), payoffs, payoffs, payoffs),
)


def scan_by_comparison(game, r):
    """The scan as a full classical-vs-quantum comparison at every lattice point."""
    expected = []
    for k11 in range(r + 1):
        for k12 in range(r + 1 - k11):
            for k21 in range(r + 1 - k11 - k12):
                state = InitialStateWeights(k11 / r, k12 / r, k21 / r,
                                            (r - k11 - k12 - k21) / r)
                flip = compare_classical_quantum(game, state).flip
                if flip != "none":
                    expected.append((state, flip))
    return expected


class TestCaseA:
    def test_fixture_values(self):
        inst = make_case_a()
        assert (inst.game.a, inst.game.b, inst.game.c, inst.game.d) == (1, -1, -1, 1)
        assert inst.state.as_tuple() == (0.3, 0.4, 0.1, 0.2)
        assert math.fsum(inst.state.as_tuple()) == 1.0

    def test_weight_ordering(self):
        s = make_case_a().state
        assert s.w21 < s.w22 < s.w11 < s.w12

    def test_flip(self):
        inst = make_case_a()
        assert compare_classical_quantum(inst.game, inst.state).flip == "gained-ess"

    def test_all_checks_pass(self):
        assert all(c.ok for c in make_case_a().verification)


class TestCaseB:
    def test_weight_ordering(self):
        s = make_case_b().state
        assert s.w22 < s.w21 < s.w11 < s.w12

    def test_flip(self):
        inst = make_case_b()
        assert compare_classical_quantum(inst.game, inst.state).flip == "lost-ess"

    def test_k_params(self):
        from quantum_replicator import k_params
        k = k_params(make_case_b().state)
        assert k.K1 == pytest.approx(0.20, abs=1e-15)
        assert k.K2 == pytest.approx(-0.30, abs=1e-15)

    def test_side_condition(self):
        inst = make_case_b()
        s, g = inst.state, inst.game
        assert g.c * (s.w12 - s.w22) < g.d * (s.w11 - s.w21)


class TestCaseC:
    def test_classification_flip(self):
        inst = make_case_c()
        names = {c.name: c for c in inst.verification}
        assert names["classical lambda^2 (center)"].value == pytest.approx(-0.5)
        assert names["quantum lambda^2 (saddle)"].value == pytest.approx(0.009630, abs=1e-6)

    def test_quantum_interior_outside(self):
        inst = make_case_c()
        names = {c.name for c in inst.verification if c.ok}
        assert "quantum interior outside unit square" in names
        assert "classical interior inside unit square" in names


def test_failed_check_refuses_instance():
    checks = (Check("holds", 1.0, True), Check("quantum m_male", -0.5, False))
    with pytest.raises(ValidationError,
                       match=r"case x: verification failed for \['quantum m_male'\]"):
        ScenarioInstance(SimplifiedGame(1, -1, -1, 1), InitialStateWeights.classical(),
                         "x", checks)


def test_make_case_dispatch():
    for label in "abc":
        assert make_case(label).case_label == label
    with pytest.raises(ValidationError, match="unknown case 'd'"):
        make_case("d")


def exact_verdict(a, b, c, d, k11, k12, k21, k22):
    """(is_ess, is_attractor) at (1, 0) in integer arithmetic, weights scaled by r."""
    male = a * (k11 - k21) + b * (k22 - k12) > 0
    return (male and c * (k11 - k12) + d * (k22 - k21) > 0,
            male and c * (k22 - k12) + d * (k11 - k21) > 0)


def exact_flip(classical, quantum):
    """The flip label, an ESS change ranked above an attractor change."""
    (c_ess, c_attractor), (q_ess, q_attractor) = classical, quantum
    if q_ess != c_ess:
        return "gained-ess" if q_ess else "lost-ess"
    return "gained-attractor" if q_attractor else "lost-attractor"


def scan_exact(a, b, c, d, r):
    """The scan of an integer game, every lattice point decided exactly."""
    classical = exact_verdict(a, b, c, d, 1, 0, 0, 0)
    expected = []
    for k11 in range(r + 1):
        for k12 in range(r + 1 - k11):
            for k21 in range(r + 1 - k11 - k12):
                k22 = r - k11 - k12 - k21
                quantum = exact_verdict(a, b, c, d, k11, k12, k21, k22)
                if quantum != classical:
                    expected.append(((k11 / r, k12 / r, k21 / r, k22 / r),
                                     exact_flip(classical, quantum)))
    return expected


class TestScan:
    def test_lattice_size(self):
        # all C(r+3, 3) points are visited; count flips plus nones indirectly
        game = SimplifiedGame(1, -1, -1, 1)
        hits = scan_flip(game, 1)
        assert len(hits) <= 4
        assert all(s.as_tuple() != (1.0, 0.0, 0.0, 0.0) for s, _ in hits)

    def test_case_a_point_present_at_resolution_10(self):
        hits = scan_flip(SimplifiedGame(1, -1, -1, 1), 10)
        lookup = {s.as_tuple(): flip for s, flip in hits}
        assert lookup[(0.3, 0.4, 0.1, 0.2)] == "gained-ess"

    def test_fixture_points_present_at_resolution_20(self):
        hits_a = scan_flip(SimplifiedGame(1, -1, -1, 1), 20)
        assert {s.as_tuple(): f for s, f in hits_a}[(0.3, 0.4, 0.1, 0.2)] == "gained-ess"
        hits_b = scan_flip(SimplifiedGame(1, -1, 1, 2), 20)
        assert {s.as_tuple(): f for s, f in hits_b}[(0.35, 0.4, 0.15, 0.1)] == "lost-ess"

    def test_ordering_lexicographic(self):
        hits = scan_flip(SimplifiedGame(1, -1, -1, 1), 5)
        keys = [tuple(round(v * 5) for v in s.as_tuple()) for s, _ in hits]
        assert keys == sorted(keys)

    def test_reported_flips_reproduce(self):
        game = SimplifiedGame(1, -1, 1, 2)
        for state, flip in scan_flip(game, 6):
            assert compare_classical_quantum(game, state).flip == flip

    def test_validation(self):
        with pytest.raises(ValidationError):
            scan_flip(SimplifiedGame(1, -1, -1, 1), 0)

    def test_integer_games_decided_exactly(self):
        # For integer payoffs each margin at a lattice point is an integer over
        # r: a nonzero one is at least 1/r, far above the sign tolerance, and
        # the float rounding of a zero one stays far below it.  So the float
        # scan must agree with integer arithmetic at every point.  Half the
        # games draw small payoffs, whose margins are often exactly zero.
        rng = random.Random(4)
        for i in range(24):
            bound = 3 if i // 4 % 2 else 1000
            a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
            r = (7, 10, 30, 60)[i % 4]
            hits = scan_flip(SimplifiedGame(a, b, c, d), r)
            assert [(s.as_tuple(), flip) for s, flip in hits] == scan_exact(a, b, c, d, r)

    @pytest.mark.parametrize("resolution", [2.5, 3.0, True, "3"])
    def test_non_integer_resolution_rejected(self, resolution):
        with pytest.raises(ValidationError, match="positive integer"):
            scan_flip(SimplifiedGame(1, -1, -1, 1), resolution)

    @pytest.mark.parametrize("resolution", [RESOLUTION_LIMIT + 1, 10**400])
    def test_resolution_limit_refused_before_any_allocation(self, resolution):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="^resolution must be at most 250$"):
                scan_flip(SimplifiedGame(1, -1, -1, 1), resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("game", [SimplifiedGame(1, -1, -1, 1),
                                      SimplifiedGame(1, -1, 1, 2),
                                      SimplifiedGame(1, 3, -2, -1)])
    def test_matches_full_comparison_per_point(self, game):
        # scan_flip computes the classical verdict once; comparing every
        # lattice point in full must give the same hits in the same order.
        assert scan_flip(game, 7) == scan_by_comparison(game, 7)

    @given(games, st.integers(1, 12))
    @example(SimplifiedGame(0.0, 0.0, 0.0, 0.0), 4)
    @example(SimplifiedGame(1.0, -1.0, 2.0, -2.0), 6)
    @example(SimplifiedGame(DEFAULT_ZERO_TOL, 0.0, DEFAULT_ZERO_TOL, 0.0), 3)
    @example(SimplifiedGame(1.7e308, -1.7e308, 1.7e308, 1.7e308), 5)
    def test_matches_full_comparison_for_any_game(self, game, r):
        assert scan_flip(game, r) == scan_by_comparison(game, r)
