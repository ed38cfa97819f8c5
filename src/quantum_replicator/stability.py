"""Equilibria of the planar replicator field, linearization and classification."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dynamics import ReplicatorField
from .games import (ValidationError, _require_finite, _require_pair, _require_real,
                    _require_tolerance)

__all__ = [
    "Equilibrium",
    "LinearizationReport",
    "STABLE_NODE",
    "UNSTABLE_NODE",
    "SADDLE",
    "STABLE_SPIRAL",
    "UNSTABLE_SPIRAL",
    "CENTER_LINEARIZATION",
    "DEGENERATE",
    "DEFAULT_ZERO_TOL",
    "equilibria",
    "interior_point",
    "jacobian",
    "eigenvalues",
    "classify",
    "corner_roots_10",
    "interior_lambda_sq",
    "linearize",
]

STABLE_NODE = "stable-node"
UNSTABLE_NODE = "unstable-node"
SADDLE = "saddle"
STABLE_SPIRAL = "stable-spiral"
UNSTABLE_SPIRAL = "unstable-spiral"
CENTER_LINEARIZATION = "center-linearization"
DEGENERATE = "degenerate"

# The sign tolerance: a root, margin or eigenvalue part within it of zero has no sign.
DEFAULT_ZERO_TOL = 1e-9
DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True)
class Equilibrium:
    """A rest point (x, y) of the planar field: kind "corner" for a corner of the
    unit square, or "interior" for the point where both face brackets vanish,
    which inside_unit_square tells apart from one outside the square."""

    x: float
    y: float
    kind: str  # "corner" | "interior"
    inside_unit_square: bool


@dataclass(frozen=True)
class LinearizationReport:
    """Jacobian, eigenvalue pair and classification tag at one equilibrium."""

    equilibrium: Equilibrium
    jacobian: tuple  # ((Xx, Xy), (Yx, Yy))
    eigs: tuple  # pair of complex numbers
    tag: str


def interior_point(fld: ReplicatorField):
    """Interior rest point or a reason string naming the vanishing denominator."""
    ksum = fld.K1 + fld.K2
    ab = fld.a + fld.b
    cd = fld.c + fld.d
    if abs(ksum) <= DENOMINATOR_TOL:
        return None, "K1+K2 = 0"
    if abs(ab) <= DENOMINATOR_TOL:
        return None, "a+b = 0"
    if abs(cd) <= DENOMINATOR_TOL:
        return None, "c+d = 0"
    x = fld.y_constant / (cd * ksum)
    y = fld.x_constant / (ab * ksum)
    return (x, y), None


def equilibria(fld: ReplicatorField):
    """The four corner rest points plus the interior one when it exists.

    The interior point is reported even when it falls outside the unit square
    (the field is a planar Lotka-Volterra-type system); containment is flagged
    separately.  When a denominator vanishes the interior point is omitted;
    :func:`interior_point` names the reason.
    """
    points = [Equilibrium(x, y, "corner", True) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    interior, reason = interior_point(fld)
    if interior is not None:
        x, y = interior
        points.append(Equilibrium(x, y, "interior",
                                  0.0 < x < 1.0 and 0.0 < y < 1.0))
    return points


def jacobian(fld: ReplicatorField, point):
    """Closed-form Jacobian ((Xx, Xy), (Yx, Yy)) of the field at ``point``."""
    x, y = _require_pair("point", point)
    x, y = _require_real("x", x), _require_real("y", y)
    xx = (1.0 - 2.0 * x) * (fld.x_constant + fld.x_slope * y)
    xy = x * (1.0 - x) * fld.x_slope
    yx = y * (1.0 - y) * fld.y_slope
    yy = (1.0 - 2.0 * y) * (fld.y_constant + fld.y_slope * x)
    return ((xx, xy), (yx, yy))


def eigenvalues(matrix):
    """Roots of the 2x2 characteristic polynomial, as a complex pair.

    ``matrix`` is a pair of rows ((m11, m12), (m21, m22)) of real numbers.
    Uses the numerically stable quadratic formula (no cancellation between
    -trace and the discriminant root).
    """
    row1, row2 = _require_pair("matrix", matrix)
    xx, xy = _require_pair("matrix row 1", row1)
    yx, yy = _require_pair("matrix row 2", row2)
    xx, xy = _require_real("m11", xx), _require_real("m12", xy)
    yx, yy = _require_real("m21", yx), _require_real("m22", yy)
    tr = xx + yy
    det = xx * yy - xy * yx
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam1 = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
        if lam1 == 0.0:
            # only possible when tr = disc = 0, i.e. a double root at zero
            return (complex(0.0), complex(0.0))
        return (complex(lam1), complex(det / lam1))
    root = cmath.sqrt(complex(disc))
    return (0.5 * (tr + root), 0.5 * (tr - root))


def classify(eigs, zero_tol=DEFAULT_ZERO_TOL):
    """Tag an eigenvalue pair, two real or complex numbers, per the standard
    planar taxonomy.

    Anything within ``zero_tol`` of the non-hyperbolic boundary is declared
    degenerate (real roots) or a linear center (imaginary pair) rather than
    guessed; linearization cannot decide those cases.
    """
    zero_tol = _require_tolerance("zero_tol", zero_tol)
    # A complex passes as it is, NaN and infinite parts included (linearize can
    # give them for a field that overflows).
    l1, l2 = _require_pair("eigs", eigs)
    l1 = l1 if isinstance(l1, complex) else complex(_require_real("eigenvalue", l1))
    l2 = l2 if isinstance(l2, complex) else complex(_require_real("eigenvalue", l2))
    real_pair = abs(l1.imag) <= zero_tol and abs(l2.imag) <= zero_tol
    if real_pair:
        r1, r2 = l1.real, l2.real
        if abs(r1) <= zero_tol or abs(r2) <= zero_tol:
            return DEGENERATE
        if r1 < 0.0 and r2 < 0.0:
            return STABLE_NODE
        if r1 > 0.0 and r2 > 0.0:
            return UNSTABLE_NODE
        return SADDLE
    alpha = l1.real
    if alpha < -zero_tol:
        return STABLE_SPIRAL
    if alpha > zero_tol:
        return UNSTABLE_SPIRAL
    return CENTER_LINEARIZATION


def corner_roots_10(a, b, c, d, K1, K2):
    """Linearization roots at the corner (1, 0): (-a K1 - b K2, -c K2 - d K1)."""
    # A ReplicatorField's checks without building one, which would cost more; and
    # its -x_constant can differ from the first root in the sign of a zero.
    a, b, c, d = (_require_finite("a", a), _require_finite("b", b),
                  _require_finite("c", c), _require_finite("d", d))
    K1, K2 = _require_finite("K1", K1), _require_finite("K2", K2)
    return (-a * K1 - b * K2, -c * K2 - d * K1)


def interior_lambda_sq(a, b, c, d, K1, K2):
    """Squared linearization root at the interior rest point.

    The Jacobian there is trace-free, so the eigenvalues are +/- sqrt of this
    value: positive means a saddle, negative a linear center.  Without an
    interior rest point, raises ValidationError with :func:`interior_point`'s reason.
    """
    fld = ReplicatorField(a, b, c, d, K1, K2)
    _, reason = interior_point(fld)
    if reason is not None:
        raise ValidationError(f"{reason}: no interior rest point")
    a, b, c, d, K1, K2 = fld.a, fld.b, fld.c, fld.d, fld.K1, fld.K2
    ab, cd, ksum = a + b, c + d, K1 + K2
    num = fld.x_constant * (a * K2 + b * K1) * fld.y_constant * (c * K2 + d * K1)
    return num / (ab * cd * ksum * ksum)


def linearize(fld: ReplicatorField, zero_tol=DEFAULT_ZERO_TOL):
    """Full report: every equilibrium with Jacobian, eigenvalues and tag."""
    reports = []
    for eq in equilibria(fld):
        jac = jacobian(fld, (eq.x, eq.y))
        eigs = eigenvalues(jac)
        reports.append(LinearizationReport(eq, jac, eigs, classify(eigs, zero_tol)))
    return reports
