"""Equilibria of the planar replicator field, linearization and classification."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dynamics import ReplicatorField
from .games import ValidationError, _require_pair, _require_real, _require_tolerance

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
    x = (fld.c * fld.K1 + fld.d * fld.K2) / (cd * ksum)
    y = (fld.a * fld.K1 + fld.b * fld.K2) / (ab * ksum)
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

    Uses the numerically stable quadratic formula (no cancellation between
    -trace and the discriminant root).
    """
    (xx, xy), (yx, yy) = matrix
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
    """Tag an eigenvalue pair per the standard planar taxonomy.

    Anything within ``zero_tol`` of the non-hyperbolic boundary is declared
    degenerate (real roots) or a linear center (imaginary pair) rather than
    guessed; linearization cannot decide those cases.
    """
    zero_tol = _require_tolerance("zero_tol", zero_tol)
    l1, l2 = complex(eigs[0]), complex(eigs[1])
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
    num = ((a * K1 + b * K2) * (a * K2 + b * K1)
           * (c * K1 + d * K2) * (c * K2 + d * K1))
    return num / (ab * cd * ksum * ksum)


def linearize(fld: ReplicatorField, zero_tol=DEFAULT_ZERO_TOL):
    """Full report: every equilibrium with Jacobian, eigenvalues and tag."""
    reports = []
    for eq in equilibria(fld):
        jac = jacobian(fld, (eq.x, eq.y))
        eigs = eigenvalues(jac)
        reports.append(LinearizationReport(eq, jac, eigs, classify(eigs, zero_tol)))
    return reports
