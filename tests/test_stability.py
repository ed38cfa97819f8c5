import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from quantum_replicator import (
    ReplicatorField,
    ValidationError,
    classify,
    corner_roots_10,
    eigenvalues,
    equilibria,
    field_eval,
    interior_lambda_sq,
    interior_point,
    jacobian,
    linearize,
)
from quantum_replicator.games import _require_finite


def fd_jacobian(fld, point, h=1e-6):
    """Central-difference Jacobian, independent of the closed-form entries."""
    x, y = point
    fx_p = field_eval(fld, x + h, y)
    fx_m = field_eval(fld, x - h, y)
    fy_p = field_eval(fld, x, y + h)
    fy_m = field_eval(fld, x, y - h)
    return (((fx_p[0] - fx_m[0]) / (2 * h), (fy_p[0] - fy_m[0]) / (2 * h)),
            ((fx_p[1] - fx_m[1]) / (2 * h), (fy_p[1] - fy_m[1]) / (2 * h)))


def random_field(rng, lo=-3.0, hi=3.0):
    return ReplicatorField(*(rng.uniform(lo, hi) for _ in range(4)),
                           rng.uniform(-1, 1), rng.uniform(-1, 1))


class TestEquilibria:
    def test_classical_interior(self):
        fld = ReplicatorField(1, 3, -2, -1, 1.0, 0.0)
        interior = [e for e in equilibria(fld) if e.kind == "interior"]
        assert len(interior) == 1
        eq = interior[0]
        assert eq.x == pytest.approx(2 / 3, abs=1e-15)
        assert eq.y == pytest.approx(1 / 4, abs=1e-15)
        assert eq.inside_unit_square

    def test_equal_ks_give_center_of_square(self):
        fld = ReplicatorField(2, 1, 0.5, 1.5, 0.25, 0.25)
        eq = [e for e in equilibria(fld) if e.kind == "interior"][0]
        assert (eq.x, eq.y) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_case_c_quantum_outside_square(self):
        fld = ReplicatorField(1, 3, -2, -1, 0.2, -0.5)
        eq = [e for e in equilibria(fld) if e.kind == "interior"][0]
        assert eq.x == pytest.approx(1 / 9, abs=1e-12)
        assert eq.y == pytest.approx(13 / 12, abs=1e-12)
        assert not eq.inside_unit_square
        vx, vy = field_eval(fld, eq.x, eq.y)
        assert abs(vx) < 1e-10 and abs(vy) < 1e-10

    def test_corners_always_reported(self, rng):
        fld = random_field(rng)
        corners = {(e.x, e.y) for e in equilibria(fld) if e.kind == "corner"}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        for cx, cy in corners:
            assert field_eval(fld, cx, cy) == (0.0, 0.0)

    def test_degenerate_k_sum(self):
        fld = ReplicatorField(1, 2, 3, 4, 0.3, -0.3)
        assert all(e.kind == "corner" for e in equilibria(fld))
        point, reason = interior_point(fld)
        assert point is None
        assert reason == "K1+K2 = 0"

    def test_degenerate_payoff_sum(self):
        point, reason = interior_point(ReplicatorField(1, -1, 3, 4, 0.5, 0.2))
        assert point is None and reason == "a+b = 0"
        point, reason = interior_point(ReplicatorField(1, 2, 3, -3, 0.5, 0.2))
        assert point is None and reason == "c+d = 0"

    def test_reported_points_are_rest_points(self, rng):
        for _ in range(200):
            fld = random_field(rng)
            for eq in equilibria(fld):
                vx, vy = field_eval(fld, eq.x, eq.y)
                assert abs(vx) < 1e-10 and abs(vy) < 1e-10


class TestJacobian:
    def test_corner_10_classical(self):
        fld = ReplicatorField(1, 0, 0, 1, 1.0, 0.0)  # a=1, d=1
        jac = jacobian(fld, (1.0, 0.0))
        assert jac[0][0] == pytest.approx(-1.0)
        assert jac[1][1] == pytest.approx(-1.0)
        assert jac[0][1] == 0.0 and jac[1][0] == 0.0

    def test_trace_free_at_interior(self, rng):
        for _ in range(100):
            fld = random_field(rng)
            point, _ = interior_point(fld)
            if point is None:
                continue
            jac = jacobian(fld, point)
            assert abs(jac[0][0]) < 1e-10
            assert abs(jac[1][1]) < 1e-10

    def test_matches_finite_differences(self, rng):
        for _ in range(300):
            fld = random_field(rng)
            point = (rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
            jac = jacobian(fld, point)
            num = fd_jacobian(fld, point)
            for i in range(2):
                for j in range(2):
                    assert jac[i][j] == pytest.approx(num[i][j], abs=1e-5)

    @pytest.mark.parametrize("point, message", [
        (("0.5", True), "x must be a real number, got '0.5'"),
        ((0.5, True), "y must be a real number, got True"),
        ((0.5, None), "y must be a real number, got None"),
    ])
    def test_point_checked(self, point, message):
        with pytest.raises(ValidationError, match=message):
            jacobian(ReplicatorField(1, 3, -2, -1), point)

    @pytest.mark.parametrize("point", [0.5, (0.5,), (0.5, 0.5, 0.9), None, "xy",
                                       {"x": 0.5, "y": 0.5}])
    def test_point_not_a_pair_rejected(self, point):
        with pytest.raises(ValidationError, match="point must be a pair of numbers"):
            jacobian(ReplicatorField(1, 3, -2, -1), point)

    def test_non_finite_point_accepted(self):
        # Huge finite payoffs can put the interior rest point at infinity;
        # linearize still reports it rather than refusing the field.
        fld = ReplicatorField(1.7e308, -1e308, 1.0, 1.0, 1.0, -0.5)
        (interior,) = [r for r in linearize(fld) if r.equilibrium.kind == "interior"]
        assert interior.equilibrium.y == math.inf
        assert jacobian(fld, (math.nan, math.inf))


class TestEigenvalues:
    def test_diagonal(self):
        assert set(eigenvalues(((-1, 0), (0, -2)))) == {-1 + 0j, -2 + 0j}

    def test_rotation(self):
        l1, l2 = eigenvalues(((0, 1), (-1, 0)))
        assert {l1, l2} == {1j, -1j}

    def test_zero_trace_real(self):
        l1, l2 = eigenvalues(((0, 2), (2, 0)))
        assert sorted((l1.real, l2.real)) == pytest.approx([-2.0, 2.0])
        assert l1.imag == l2.imag == 0.0

    @pytest.mark.parametrize("matrix, message", [
        (((1, "x"), (0, 0)), "m12 must be a real number, got 'x'"),
        (((True, 0), (0, 1)), "m11 must be a real number, got True"),
        (((0.0, 0.0), (0.0, None)), "m22 must be a real number, got None"),
        (((0, 0), (10**400, 0)), "m21 must be a finite real, got an integer too large"),
        (5, "matrix must be a pair"),
        ("ab", "matrix must be a pair"),
        (((1, 2, 3), (0, 0)), "matrix row 1 must be a pair"),
        (((1, 2), "ab"), "matrix row 2 must be a pair"),
    ])
    def test_matrix_checked(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            eigenvalues(matrix)

    def test_non_finite_entries_accepted(self):
        # linearize passes on the Jacobian of a rest point at infinity.
        eigs = eigenvalues(((math.inf, 0), (0, 1)))
        assert len(eigs) == 2 and all(isinstance(l, complex) for l in eigs)

    def test_characteristic_polynomial(self, rng):
        for _ in range(500):
            m = ((rng.uniform(-5, 5), rng.uniform(-5, 5)),
                 (rng.uniform(-5, 5), rng.uniform(-5, 5)))
            tr = m[0][0] + m[1][1]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            for lam in eigenvalues(m):
                residual = lam * lam - tr * lam + det
                scale = max(1.0, abs(lam) ** 2)
                assert abs(residual) / scale < 1e-9


class Real(float):
    """A float subclass: the number checks take their full path for it."""


# A plain float, and the same number as the checks' full path takes it: as it
# is, as a float subclass or, for an integer value, as an int.
SAME_NUMBERS = (st.floats().flatmap(lambda v: st.sampled_from([(v, v), (v, Real(v))]))
                | st.integers(-2**64, 2**64).map(lambda n: (float(n), n)))


def _results(fld, m11, m12, m21, m22):
    finite = []
    for name, value in (("m11", m11), ("m12", m12), ("m21", m21), ("m22", m22)):
        try:
            v = _require_finite(name, value)
            finite.append((type(v), v))
        except ValidationError as exc:
            finite.append(str(exc))
    return repr((eigenvalues(((m11, m12), (m21, m22))), jacobian(fld, (m11, m12)),
                 field_eval(fld, m21, m22), finite))


@settings(max_examples=300)
@given(entries=st.lists(SAME_NUMBERS, min_size=4, max_size=4),
       params=st.lists(st.floats(-4, 4), min_size=6, max_size=6))
def test_plain_float_shortcut_matches_the_full_checks(entries, params):
    fld = ReplicatorField(*params)
    plain, same = zip(*entries)
    assert _results(fld, *same) == _results(fld, *plain)


class TestClassify:
    @pytest.mark.parametrize("eigs,tag", [
        ((-0.4, -0.4), "stable-node"),
        ((-1.0, -2.0), "stable-node"),
        ((0.5, 3.0), "unstable-node"),
        ((0.0981, -0.0981), "saddle"),
        ((-1 + 2j, -1 - 2j), "stable-spiral"),
        ((1 + 2j, 1 - 2j), "unstable-spiral"),
        ((0.7071j, -0.7071j), "center-linearization"),
        ((0.0, -1.0), "degenerate"),
        ((1e-12, 1e-12), "degenerate"),
    ])
    def test_taxonomy(self, eigs, tag):
        assert classify(eigs) == tag

    @pytest.mark.parametrize("eigs, message", [
        (("a", "b"), "eigenvalue must be a real number, got 'a'"),
        (("1", 2.0), "eigenvalue must be a real number, got '1'"),
        ((-1.0, True), "eigenvalue must be a real number, got True"),
        ((-1.0, None), "eigenvalue must be a real number, got None"),
        ((1,), "eigs must be a pair"),
        ((1, 2, 3), "eigs must be a pair"),
        (1j, "eigs must be a pair"),
    ])
    def test_eigs_checked(self, eigs, message):
        with pytest.raises(ValidationError, match=message):
            classify(eigs)

    @pytest.mark.parametrize("eigs, tag", [
        ((-1, -2), "stable-node"),
        ([-1.0, 2], "saddle"),
        ((math.inf, -1.0), "saddle"),
        # the NaN eigenvalues of a field that overflows stay printable
        ((complex(math.nan, math.nan), complex(math.nan, math.nan)), "center-linearization"),
    ])
    def test_real_or_non_finite_eigs_accepted(self, eigs, tag):
        assert classify(eigs) == tag

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            classify((1.0, 1.0), zero_tol=0.0)

    @pytest.mark.parametrize("zero_tol, message", [
        (-1.0, "zero_tol must be positive, got -1.0"),
        (float("-inf"), "zero_tol must be positive, got -inf"),
        (float("nan"), "zero_tol must be finite, got nan"),
        (float("inf"), "zero_tol must be finite, got inf"),
        (None, "zero_tol must be a real number, got None"),
        ("1e-9", "zero_tol must be a real number, got '1e-9'"),
    ])
    def test_non_positive_or_non_finite_tol_rejected(self, zero_tol, message):
        with pytest.raises(ValidationError, match=message):
            classify((-1.0, -2.0), zero_tol=zero_tol)


class TestCornerRoots:
    def test_classical(self):
        assert corner_roots_10(2.5, -1.0, 0.5, 3.0, 1.0, 0.0) == (-2.5, -3.0)

    def test_case_a(self):
        r1, r2 = corner_roots_10(1, -1, -1, 1, 0.2, -0.2)
        assert r1 == pytest.approx(-0.4, abs=1e-15)
        assert r2 == pytest.approx(-0.4, abs=1e-15)

    def test_case_b(self):
        r1, r2 = corner_roots_10(1, -1, 1, 2, 0.2, -0.3)
        assert r1 == pytest.approx(-0.5, abs=1e-15)
        assert r2 == pytest.approx(-0.1, abs=1e-15)

    def test_matches_jacobian_eigenvalues(self, rng):
        for _ in range(500):
            fld = random_field(rng)
            closed = sorted(corner_roots_10(fld.a, fld.b, fld.c, fld.d,
                                            fld.K1, fld.K2))
            eigs = eigenvalues(jacobian(fld, (1.0, 0.0)))
            numeric = sorted(l.real for l in eigs)
            for c, n in zip(closed, numeric):
                assert abs(c - n) <= 1e-9 * max(1.0, abs(c))


class TestInteriorLambdaSq:
    def test_case_c_classical(self):
        assert interior_lambda_sq(1, 3, -2, -1, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_case_c_quantum(self):
        val = interior_lambda_sq(1, 3, -2, -1, 0.2, -0.5)
        assert val == pytest.approx(0.009630, abs=1e-6)

    def test_equal_ks_closed_form(self, rng):
        for _ in range(100):
            a, b, c, d = (rng.uniform(-3, 3) for _ in range(4))
            K = rng.uniform(0.05, 0.5)
            if abs(a + b) < 1e-6 or abs(c + d) < 1e-6:
                continue
            val = interior_lambda_sq(a, b, c, d, K, K)
            assert val == pytest.approx(K * K * (a + b) * (c + d) / 4, rel=1e-9)

    def test_degenerate_raises(self):
        # interior_point's reasons, in its order: K1+K2, then a+b, then c+d.
        for args, reason in [((1, 2, 2, 3, 0.5, -0.5), "K1+K2 = 0"),
                             ((1, -1, 2, -2, 0.5, -0.5), "K1+K2 = 0"),
                             ((1, -1, 2, 3, 0.5, 0.1), "a+b = 0"),
                             ((1, -1, 2, -2, 0.5, 0.1), "a+b = 0"),
                             ((1, 2, 2, -2, 0.5, 0.1), "c+d = 0")]:
            assert interior_point(ReplicatorField(*args)) == (None, reason)
            with pytest.raises(ValidationError,
                               match=re.escape(f"{reason}: no interior rest point")):
                interior_lambda_sq(*args)

    @pytest.mark.parametrize("args, message", [
        (("1", 3, -2, -1, 1.0, 0.0), "a must be a real number, got '1'"),
        ((1, 3, -2, -1, True, 0.0), "K1 must be a real number, got True"),
        ((float("nan"), 3, -2, -1, 1.0, 0.0), "a must be a finite real, got nan"),
        ((1, 3, -2, -1, 1.0, float("-inf")), "K2 must be a finite real, got -inf"),
        ((True, 0, 0, 0, 1.0, 0.0), "a must be a real number, got True"),
        ((1, 3, -2, 10**400, 1.0, 0.0), "d must be a finite real, got an integer too"),
    ])
    def test_numbers_checked(self, args, message):
        # Both closed forms check the six numbers as a ReplicatorField does.
        for closed_form in (corner_roots_10, interior_lambda_sq):
            with pytest.raises(ValidationError, match=message):
                closed_form(*args)

    def test_matches_jacobian_eigenvalues(self, rng):
        checked = 0
        while checked < 300:
            fld = random_field(rng)
            point, _ = interior_point(fld)
            if point is None:
                continue
            lam_sq = interior_lambda_sq(fld.a, fld.b, fld.c, fld.d, fld.K1, fld.K2)
            l1, _ = eigenvalues(jacobian(fld, point))
            numeric = (l1 * l1).real
            assert abs(lam_sq - numeric) <= 1e-9 * max(1e-6, abs(lam_sq))
            checked += 1

    def test_interior_identity(self, rng):
        checked = 0
        while checked < 300:
            fld = random_field(rng)
            point, _ = interior_point(fld)
            if point is None:
                continue
            x, y = point
            lam_sq = interior_lambda_sq(fld.a, fld.b, fld.c, fld.d, fld.K1, fld.K2)
            product = (x * (1 - x) * y * (1 - y) * (fld.a + fld.b)
                       * (fld.c + fld.d) * (fld.K1 + fld.K2) ** 2)
            assert abs(lam_sq - product) <= 1e-9 * max(1e-6, abs(lam_sq))
            if 0 < x < 1 and 0 < y < 1 and abs(lam_sq) > 1e-12:
                assert math.copysign(1, lam_sq) == math.copysign(
                    1, (fld.a + fld.b) * (fld.c + fld.d))
            checked += 1


class TestLinearize:
    def test_case_c_tags(self):
        classical = linearize(ReplicatorField(1, 3, -2, -1, 1.0, 0.0))
        tags = {(r.equilibrium.kind, r.tag) for r in classical}
        assert ("interior", "center-linearization") in tags
        quantum = linearize(ReplicatorField(1, 3, -2, -1, 0.2, -0.5))
        interior = [r for r in quantum if r.equilibrium.kind == "interior"][0]
        assert interior.tag == "saddle"
        assert not interior.equilibrium.inside_unit_square

    def test_eigen_residual_invariant(self, rng):
        for _ in range(100):
            fld = random_field(rng)
            for report in linearize(fld):
                (xx, xy), (yx, yy) = report.jacobian
                tr, det = xx + yy, xx * yy - xy * yx
                for lam in report.eigs:
                    residual = lam * lam - tr * lam + det
                    assert abs(residual) <= 1e-9 * max(1.0, abs(lam) ** 2)
