import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from quantum_replicator import (
    InitialStateWeights,
    ReplicatorField,
    SimplifiedGame,
    ValidationError,
    field_eval,
    integrate,
    phase_portrait,
    quantum_transform,
)
from quantum_replicator import dynamics
from quantum_replicator.dynamics import (DEFAULT_CONVERGENCE_TOL, DEFAULT_MAX_STEPS,
                                         GRID_LIMIT, MAX_STEPS_LIMIT, _portrait_seeds)

from conftest import first_integral, make_weights

CASE_A_QUANTUM = ReplicatorField(1, -1, -1, 1, 0.2, -0.2)

payoffs = st.floats(min_value=-5, max_value=5, allow_nan=False)
ks = st.floats(min_value=-1, max_value=1, allow_nan=False)
fields = st.builds(ReplicatorField, payoffs, payoffs, payoffs, payoffs, ks, ks)
coords = st.floats(min_value=-0.5, max_value=1.5, allow_nan=False)
# Payoffs up to 1e300 overflow the field within a few steps.
wide_payoffs = st.one_of(payoffs, st.floats(min_value=-1e300, max_value=1e300))
# Starts on the faces, inside and outside the widened square [-0.1, 1.1]^2.
wide_coords = st.one_of(st.sampled_from([0.0, 1.0, 1e200]),
                        st.floats(min_value=-0.1, max_value=1.1), coords,
                        st.floats(min_value=-1e200, max_value=1e200))


def textbook_integrate(fld, start, h, max_steps, convergence_tol):
    """Classical RK4 built on field_eval, with the face clamp of integrate.

    Mirrors the documented stop rules so integrate can be compared bit for bit:
    both |velocity| below the tolerance, so a NaN velocity never converges.
    """

    def clamp(v):
        if -1e-9 < v < 0.0:
            return 0.0
        if 1.0 < v < 1.0 + 1e-9:
            return 1.0
        return v

    x, y = float(start[0]), float(start[1])
    times, xs, ys = [0.0], [x], [y]
    for n in range(max_steps + 1):
        vx, vy = field_eval(fld, x, y)
        if abs(vx) < convergence_tol and abs(vy) < convergence_tol:
            return times, xs, ys, "converged"
        if not (-0.1 <= x <= 1.1 and -0.1 <= y <= 1.1):
            return times, xs, ys, "left-domain"
        if n == max_steps:
            break
        k1x, k1y = field_eval(fld, x, y)
        k2x, k2y = field_eval(fld, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = field_eval(fld, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = field_eval(fld, x + h * k3x, y + h * k3y)
        x = clamp(x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0)
        y = clamp(y + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0)
        times.append((n + 1) * h)
        xs.append(x)
        ys.append(y)
    return times, xs, ys, "max-steps"


def classical_bimatrix_field(game, x, y):
    """Independent evaluation of the general two-population replicator flow."""
    xdot = x * (1 - x) * (y * (game.a11 - game.a12 - game.a21 + game.a22)
                          + (game.a12 - game.a22))
    ydot = y * (1 - y) * (x * (game.b11 - game.b12 - game.b21 + game.b22)
                          + (game.b12 - game.b22))
    return xdot, ydot


class TestReplicatorField:
    @pytest.mark.parametrize("numbers, message", [
        (("1", 0, 0, 0), "a must be a real number, got '1'"),
        ((True, 0, 0, 0), "a must be a real number, got True"),
        ((float("nan"), 0, 0, 0), "a must be a finite real, got nan"),
        ((0, 0, 0, 0, float("inf")), "K1 must be a finite real, got inf"),
        ((0, 0, 0, 0, 1.0, None), "K2 must be a real number, got None"),
        ((0, 0, 0, 10**400), "d must be a finite real, got an integer too large"),
    ])
    def test_numbers_checked(self, numbers, message):
        with pytest.raises(ValidationError, match=message):
            ReplicatorField(*numbers)

    def test_numbers_stored_as_floats(self):
        fld = ReplicatorField(1, -1, 2, 3, 1, 0)
        assert all(type(v) is float for v in (fld.a, fld.b, fld.c, fld.d, fld.K1, fld.K2))


class TestFieldEval:
    @pytest.mark.parametrize("x, y, message", [
        ("0.5", 0.5, "x must be a real number, got '0.5'"),
        (0.5, True, "y must be a real number, got True"),
        (None, 0.5, "x must be a real number, got None"),
    ])
    def test_point_checked(self, x, y, message):
        with pytest.raises(ValidationError, match=message):
            field_eval(CASE_A_QUANTUM, x, y)

    @given(fields, coords)
    def test_faces_freeze_x(self, fld, y):
        assert field_eval(fld, 0.0, y)[0] == 0.0
        assert field_eval(fld, 1.0, y)[0] == 0.0

    def test_corner_equilibrium(self):
        assert field_eval(CASE_A_QUANTUM, 1.0, 0.0) == (0.0, 0.0)

    def test_classical_interior_equilibrium(self):
        fld = ReplicatorField(1, 3, -2, -1, 1.0, 0.0)
        vx, vy = field_eval(fld, 2 / 3, 1 / 4)
        assert abs(vx) < 1e-15 and abs(vy) < 1e-15

    @given(st.builds(SimplifiedGame, payoffs, payoffs, payoffs, payoffs),
           st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4),
           coords, coords)
    def test_matches_general_replicator_of_transformed_matrices(self, game, raw, x, y):
        state = make_weights(raw)
        fld = ReplicatorField.quantum(game, state)
        pair = quantum_transform(game.to_bimatrix(), state)
        # bracket identities against the transformed matrices
        assert fld.x_constant == pytest.approx(pair.omega12 - pair.omega22, abs=1e-12)
        assert fld.x_slope == pytest.approx(
            pair.omega11 - pair.omega12 - pair.omega21 + pair.omega22, abs=1e-12)
        assert fld.y_constant == pytest.approx(pair.chi12 - pair.chi22, abs=1e-12)
        assert fld.y_slope == pytest.approx(
            pair.chi11 - pair.chi12 - pair.chi21 + pair.chi22, abs=1e-12)

    def test_classical_reduction(self, rng):
        for _ in range(200):
            game = SimplifiedGame(*(rng.uniform(-5, 5) for _ in range(4)))
            fld = ReplicatorField.quantum(game, InitialStateWeights.classical())
            x, y = rng.random(), rng.random()
            expected = classical_bimatrix_field(game.to_bimatrix(), x, y)
            got = field_eval(fld, x, y)
            assert got[0] == pytest.approx(expected[0], abs=1e-12)
            assert got[1] == pytest.approx(expected[1], abs=1e-12)


class TestIntegrate:
    def test_validation(self):
        with pytest.raises(ValidationError):
            integrate(CASE_A_QUANTUM, (0.5, 0.5), step=0.0)
        with pytest.raises(ValidationError):
            integrate(CASE_A_QUANTUM, (0.5, 0.5), max_steps=0)

    @pytest.mark.parametrize("options, message", [
        ({"step": -0.01}, "step must be positive, got -0.01"),
        ({"step": float("-inf")}, "step must be positive, got -inf"),
        ({"step": float("nan")}, "step must be finite, got nan"),
        ({"step": float("inf")}, "step must be finite, got inf"),
        ({"convergence_tol": float("nan")}, "convergence_tol must be finite, got nan"),
        ({"convergence_tol": float("inf")}, "convergence_tol must be finite, got inf"),
        ({"convergence_tol": float("-inf")}, "convergence_tol must be finite, got -inf"),
        ({"step": "0.01"}, "step must be a real number, got '0.01'"),
        ({"convergence_tol": "x"}, "convergence_tol must be a real number, got 'x'"),
        ({"max_steps": 2.5}, "max_steps must be a positive integer, got 2.5"),
        ({"max_steps": True}, "max_steps must be a positive integer, got True"),
        ({"max_steps": "3"}, "max_steps must be a positive integer, got '3'"),
        ({"start": ("0.5", 0.5)}, "start x must be a real number, got '0.5'"),
        ({"start": (True, 0.5)}, "start x must be a real number, got True"),
        ({"start": (10**400, 0)}, "start x must be a finite real, got an integer too"),
    ])
    def test_non_finite_step_or_tolerance_rejected(self, options, message):
        with pytest.raises(ValidationError, match=message):
            integrate(CASE_A_QUANTUM, **{"start": (0.5, 0.5), "max_steps": 10, **options})

    @pytest.mark.parametrize("max_steps", [MAX_STEPS_LIMIT + 1, 10**400])
    def test_step_limit_refused_before_any_allocation(self, max_steps):
        message = "^max_steps must be at most 10000000$"
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=message):
                integrate(CASE_A_QUANTUM, (0.5, 0.5), max_steps=max_steps)
            with pytest.raises(ValidationError, match=message):
                phase_portrait(CASE_A_QUANTUM, 2, max_steps=max_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_step_limit_accepted(self):
        traj = integrate(CASE_A_QUANTUM, (1.0, 0.0), max_steps=MAX_STEPS_LIMIT)
        assert traj.status == "converged"

    @pytest.mark.parametrize("start", [(0.5,), 0.5, (0.5, 0.5, 0.9), None, "xy"])
    def test_start_not_a_pair_rejected(self, start):
        with pytest.raises(ValidationError, match="start must be a pair of numbers"):
            integrate(CASE_A_QUANTUM, start, max_steps=10)

    @pytest.mark.parametrize("start", [(0.0, 1e200), (1e200, 0.0)])
    def test_nan_velocity_never_converges(self, start):
        # From (0, 1e200) the y velocity is inf * -0.0 = NaN and the x velocity
        # is 0; from the mirrored start the x velocity is -inf.  Neither is a
        # sup-norm below the tolerance, so both starts leave the domain.
        traj = integrate(ReplicatorField(1, -1, 0, 1), start)
        assert (traj.status, len(traj)) == ("left-domain", 1)

    def test_corner_start_converges_immediately(self):
        traj = integrate(CASE_A_QUANTUM, (1.0, 0.0))
        assert traj.status == "converged"
        assert len(traj) == 1
        assert traj.times == (0.0,)

    def test_case_a_attractor(self):
        traj = integrate(CASE_A_QUANTUM, (0.9, 0.1), step=0.01)
        assert traj.status == "converged"
        assert abs(traj.final[0] - 1.0) < 1e-4
        assert abs(traj.final[1]) < 1e-4

    def test_classical_case_a_attractor(self):
        fld = ReplicatorField(1, -1, -1, 1, 1.0, 0.0)
        traj = integrate(fld, (0.9, 0.1), step=0.01)
        assert traj.status == "converged"
        assert abs(traj.final[0] - 1.0) < 1e-4
        assert abs(traj.final[1]) < 1e-4

    def test_time_grid(self):
        traj = integrate(CASE_A_QUANTUM, (0.5, 0.5), max_steps=10)
        assert traj.times == tuple(pytest.approx(0.01 * k) for k in range(len(traj)))

    def test_stays_in_square(self, rng):
        for _ in range(20):
            fld = ReplicatorField(*(rng.uniform(-3, 3) for _ in range(4)),
                                  rng.uniform(-1, 1), rng.uniform(-1, 1))
            traj = integrate(fld, (rng.random(), rng.random()), max_steps=2000)
            for x, y in zip(traj.xs, traj.ys):
                assert -1e-9 <= x <= 1 + 1e-9
                assert -1e-9 <= y <= 1 + 1e-9

    def test_rk4_order(self):
        # error against a quarter-step reference shrinks ~16x when h halves
        fld = ReplicatorField(1.5, -0.5, 0.7, 1.2, 0.4, -0.1)
        start = (0.31, 0.62)
        T = 2.0

        def endpoint(h):
            traj = integrate(fld, start, step=h, max_steps=round(T / h),
                             convergence_tol=0.0)
            return traj.final

        ref = endpoint(0.05)
        e1 = math.dist(endpoint(0.2), ref)
        e2 = math.dist(endpoint(0.1), ref)
        assert 10.0 < e1 / e2 < 25.0


class TestIntegrateBitExact:
    @pytest.mark.parametrize("fld,start,max_steps,status", [
        (CASE_A_QUANTUM, (0.9, 0.1), DEFAULT_MAX_STEPS, "converged"),
        (ReplicatorField(-1, 0, 1, 1, 1.0, 0.0), (1.05, 0.5), 1000, "left-domain"),
        (ReplicatorField(1, 3, -2, -1, 1.0, 0.0), (0.5, 0.5), 2000, "max-steps"),
        (ReplicatorField(1, 3, -2, -1, 1.0, 0.0), (-1e-10, 0.4), 50, "max-steps"),
        (ReplicatorField(1, 3, -2, -1, 1.0, 0.0), (0.4, 1.0 + 1e-10), 50, "max-steps"),
    ], ids=["converged", "left-domain", "max-steps", "clamp-x-to-0", "clamp-y-to-1"])
    def test_matches_textbook_rk4(self, fld, start, max_steps, status):
        traj = integrate(fld, start, step=0.01, max_steps=max_steps)
        times, xs, ys, expected_status = textbook_integrate(
            fld, start, 0.01, max_steps, DEFAULT_CONVERGENCE_TOL)
        assert traj.status == expected_status == status
        assert len(traj) > 2
        assert traj.times == tuple(times)
        assert traj.xs == tuple(xs)
        assert traj.ys == tuple(ys)

    @settings(max_examples=300, deadline=None)
    @given(fld=st.builds(ReplicatorField, wide_payoffs, wide_payoffs, wide_payoffs,
                         wide_payoffs, ks, ks),
           start=st.tuples(wide_coords, wide_coords),
           step=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           max_steps=st.integers(min_value=1, max_value=60),
           convergence_tol=st.one_of(st.sampled_from([0.0, -0.0, 1e-10, -1e-10]),
                                     st.floats(min_value=-1.0, max_value=1.0)))
    # A NaN velocity on one axis only is too rare to draw; see
    # test_nan_velocity_never_converges.
    @example(fld=ReplicatorField(1, -1, 0, 1), start=(0.0, 1e200), step=0.01,
             max_steps=5, convergence_tol=1e-10)
    def test_matches_textbook_rk4_for_any_field(self, fld, start, step, max_steps,
                                                convergence_tol):
        traj = integrate(fld, start, step=step, max_steps=max_steps,
                         convergence_tol=convergence_tol)
        times, xs, ys, status = textbook_integrate(fld, start, step, max_steps,
                                                   convergence_tol)
        # repr, so that NaN samples compare equal and -0.0 differs from 0.0
        assert traj.status == status
        assert list(map(repr, traj.times)) == list(map(repr, times))
        assert list(map(repr, traj.xs)) == list(map(repr, xs))
        assert list(map(repr, traj.ys)) == list(map(repr, ys))

    def test_clamp_cases_land_on_faces(self):
        fld = ReplicatorField(1, 3, -2, -1, 1.0, 0.0)
        assert integrate(fld, (-1e-10, 0.4), max_steps=5).xs[1:] == (0.0,) * 5
        assert integrate(fld, (0.4, 1.0 + 1e-10), max_steps=5).ys[1:] == (1.0,) * 5
        # y just below 0 on a field that keeps it there lands on the y = 0 face
        fld = ReplicatorField(1, -1, -1, 1, 0.2, -0.2)
        assert integrate(fld, (0.5, -5e-10), max_steps=1).ys == (-5e-10, 0.0)

    def test_first_integral_drift_on_classical_center(self):
        # case c classically: (a, b, c, d) = (1, 3, -2, -1) has a linear
        # center at (2/3, 1/4); H is conserved along the exact flow.
        fld = ReplicatorField(1, 3, -2, -1, 1.0, 0.0)
        traj = integrate(fld, (0.5, 0.5), step=0.01, max_steps=20_000)
        assert traj.status == "max-steps" and len(traj) == 20_001
        h0 = first_integral(fld, 0.5, 0.5)
        drift = max(abs(first_integral(fld, x, y) - h0)
                    for x, y in zip(traj.xs, traj.ys))
        assert drift < 1e-6


class TestPortrait:
    def test_grid_count(self):
        trajs = phase_portrait(CASE_A_QUANTUM, 2, max_steps=50)
        assert len(trajs) == 4

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            phase_portrait(CASE_A_QUANTUM, 1)

    @pytest.mark.parametrize("grid_n", [2.5, "3"])
    def test_non_integer_grid_rejected(self, grid_n):
        with pytest.raises(ValidationError, match="grid_n must be an integer >= 2"):
            phase_portrait(CASE_A_QUANTUM, grid_n)

    @pytest.mark.parametrize("grid_n", [GRID_LIMIT + 1, 10**400], ids=["limit+1", "1e400"])
    def test_grid_limit_refused_before_the_first_seed(self, grid_n, monkeypatch):
        # Even one-step orbits over such a grid would run for minutes, or forever.
        def no_orbit(*args, **kwargs):
            raise AssertionError("a seed was integrated")
        monkeypatch.setattr(dynamics, "integrate", no_orbit)
        with pytest.raises(ValidationError, match="^grid_n must be at most 1000$"):
            phase_portrait(CASE_A_QUANTUM, grid_n, max_steps=1)
        with pytest.raises(ValidationError, match="^grid_n must be at most 1000$"):
            _portrait_seeds(CASE_A_QUANTUM, grid_n, 0.01, 1, 1e-10)

    def test_grid_limit_accepted(self):
        seeds = _portrait_seeds(CASE_A_QUANTUM, GRID_LIMIT, 0.01, 1, 1e-10)
        assert len(seeds) == GRID_LIMIT ** 2
        assert seeds[0] == (1 / (GRID_LIMIT + 1), 1 / (GRID_LIMIT + 1))

    def test_options_checked_when_every_seed_is_skipped(self):
        # K1 = K2 = 0 makes the field vanish everywhere, so no orbit is integrated.
        still = ReplicatorField(1, -1, -1, 1, 0.0, 0.0)
        assert phase_portrait(still, 2) == []
        with pytest.raises(ValidationError, match="step must be a real number"):
            phase_portrait(still, 2, step="0.01")

    def test_trajectories_confined(self):
        for traj in phase_portrait(CASE_A_QUANTUM, 4, max_steps=3000):
            for x, y in zip(traj.xs, traj.ys):
                assert -1e-9 <= x <= 1 + 1e-9
                assert -1e-9 <= y <= 1 + 1e-9

    def test_case_c_quantum_no_interior_convergence(self):
        # interior rest point lies outside the unit square for this instance
        fld = ReplicatorField(1, 3, -2, -1, 0.2, -0.5)
        for traj in phase_portrait(fld, 4, max_steps=20000):
            if traj.status == "converged":
                fx, fy = traj.final
                on_boundary = (min(abs(fx), abs(fx - 1)) < 1e-6
                               or min(abs(fy), abs(fy - 1)) < 1e-6)
                assert on_boundary
