"""Bi-matrix games, initial-state weights and the probabilistic-flip quantization.

A 2x2 bi-matrix game is played by a row player ("male", strategies X1/X2) and
a column player ("female", strategies Y1/Y2).  The quantized version keeps the
classical payoff constants but mixes them through the squared amplitudes of a
shared two-qubit initial state; only those squared magnitudes (weights) enter
any formula here, so that is all we store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ClassicalBimatrix",
    "SimplifiedGame",
    "InitialStateWeights",
    "KParams",
    "PayoffMatrixPair",
    "ValidationError",
    "quantum_transform",
    "k_params",
    "payoff_male",
    "payoff_female",
    "mw_scheme_oracle",
]

WEIGHT_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def _require_real(name, value):
    """value as a float; a bool, a non-number or an int too large for a float fails."""
    if type(value) is float:  # already what float() would return
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be a finite real, got an integer "
                              "too large for a float") from None


def _require_finite(name, value):
    v = _require_real(name, value)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be a finite real, got {value!r}")
    return v


def _require_pair(name, value):
    """value, which must be a tuple or list of two items; the items are not checked."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ValidationError(f"{name} must be a pair of numbers, got {value!r}")
    return value


def _require_tolerance(name, value, positive=True):
    """A tolerance or step size as a finite float, also positive unless told otherwise."""
    v = _require_real(name, value)
    if positive and v <= 0.0:
        raise ValidationError(f"{name} must be positive, got {v}")
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {v}")
    return v


def _require_count(name, value, minimum=1, maximum=None):
    """A count as an int of at least ``minimum`` and, if given, at most
    ``maximum``; a bool or a float fails."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        least = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValidationError(f"{name} must be {least}, got {value!r}")
    if maximum is not None and value > maximum:
        # No "got {value}": Python 3.11+ refuses str() of an int over 4300 digits.
        raise ValidationError(f"{name} must be at most {maximum}")
    return value


def _require_choice(name, value, choices):
    if value not in choices:
        raise ValidationError(f"unknown {name} {value!r}; expected one of "
                              + ", ".join(choices))
    return value


class _FiniteRecord:
    """Base of the frozen dataclasses whose every field is a finite real."""

    def __post_init__(self):
        # object.__setattr__, not self.__dict__: on CPython 3.11, reading __dict__
        # after __init__ has set the fields makes each later field read about
        # 1.6-2x slower.
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))


@dataclass(frozen=True)
class ClassicalBimatrix(_FiniteRecord):
    """Payoff constants (a_ij, b_ij): rows = male strategy, columns = female."""

    a11: float
    a12: float
    a21: float
    a22: float
    b11: float
    b12: float
    b21: float
    b22: float

    @property
    def male_matrix(self):
        return ((self.a11, self.a12), (self.a21, self.a22))

    @property
    def female_matrix(self):
        return ((self.b11, self.b12), (self.b21, self.b22))


@dataclass(frozen=True)
class SimplifiedGame(_FiniteRecord):
    """Reduced payoff constants (a, b, c, d).

    Embeds into the full bi-matrix with zero diagonal payoffs:
    a12=a, a21=b, b12=c, b21=d; the replicator flow only sees these four
    combinations, so nothing is lost.
    """

    a: float
    b: float
    c: float
    d: float

    def to_bimatrix(self) -> ClassicalBimatrix:
        return ClassicalBimatrix(
            a11=0.0, a12=self.a, a21=self.b, a22=0.0,
            b11=0.0, b12=self.c, b21=self.d, b22=0.0,
        )

    @classmethod
    def from_bimatrix(cls, game: ClassicalBimatrix) -> "SimplifiedGame":
        """Reduce a full bi-matrix to the four constants driving the flow.

        The planar replicator field depends on the payoffs only through
        a12-a22, a21-a11, b12-b22, b21-b11; games with equal reductions have
        identical dynamics.  A difference that overflows fails under the
        names of its entries, as ``a12 - a22``.
        """
        return cls(
            a=_require_finite("a12 - a22", game.a12 - game.a22),
            b=_require_finite("a21 - a11", game.a21 - game.a11),
            c=_require_finite("b12 - b22", game.b12 - game.b22),
            d=_require_finite("b21 - b11", game.b21 - game.b11),
        )


@dataclass(frozen=True, init=False)
class InitialStateWeights:
    """Squared magnitudes of the initial-state amplitudes, one per basis pair.

    Phases never enter the payoff math, so weights are the whole state as far
    as this package is concerned.
    """

    w11: float
    w12: float
    w21: float
    w22: float

    def __init__(self, w11, w12, w21, w22):
        # Four plain floats in [0, 1] are already what the per-name checks
        # return; anything else (NaN included) takes those checks in order.
        if not (type(w11) is float and type(w12) is float
                and type(w21) is float and type(w22) is float
                and 0.0 <= w11 <= 1.0 and 0.0 <= w12 <= 1.0
                and 0.0 <= w21 <= 1.0 and 0.0 <= w22 <= 1.0):
            w11, w12, w21, w22 = (
                _check_probability(name, v) for name, v in
                (("w11", w11), ("w12", w12), ("w21", w21), ("w22", w22)))
        total = w11 + w12 + w21 + w22
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1, got {total!r}")
        # Frozen: store through the instance dict, once per field.
        self.__dict__.update(w11=w11, w12=w12, w21=w21, w22=w22)

    @classmethod
    def classical(cls) -> "InitialStateWeights":
        """The product state putting all weight on |11>; embeds the classical game."""
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def renormalized(cls, w11, w12, w21, w22) -> "InitialStateWeights":
        """Scale nonnegative raw weights so they sum to 1."""
        raw = [_require_finite(n, v) for n, v in
               (("w11", w11), ("w12", w12), ("w21", w21), ("w22", w22))]
        if any(v < 0.0 for v in raw):
            raise ValidationError("weights must be nonnegative")
        total = sum(raw)
        if not math.isfinite(total):
            # Finite weights whose sum overflows: a quarter of four finite
            # weights sums to a finite number, and for normal numbers the
            # division is exact, so the ratios keep their bits.
            raw = [v / 4.0 for v in raw]
            total = sum(raw)
        if total <= 0.0:
            raise ValidationError("weights must not all be zero")
        return cls(*(v / total for v in raw))

    def as_tuple(self):
        return (self.w11, self.w12, self.w21, self.w22)


@dataclass(frozen=True)
class KParams:
    """State parameters K1 = w11 - w21, K2 = w22 - w12 driving the quantum field."""

    K1: float
    K2: float


@dataclass(frozen=True)
class PayoffMatrixPair:
    """Quantized payoff matrices: omega for the male player, chi for the female."""

    omega11: float
    omega12: float
    omega21: float
    omega22: float
    chi11: float
    chi12: float
    chi21: float
    chi22: float

    @property
    def omega(self):
        return ((self.omega11, self.omega12), (self.omega21, self.omega22))

    @property
    def chi(self):
        return ((self.chi11, self.chi12), (self.chi21, self.chi22))


def quantum_transform(game: ClassicalBimatrix, state: InitialStateWeights) -> PayoffMatrixPair:
    """Mix the classical payoffs through the state weights.

    Each entry of omega (chi) is the classical payoff vector contracted with a
    permutation of the weights: entry (i, j) uses the weights relabelled as if
    the basis state had been flipped into |ij> from |11>.
    """
    w11, w12, w21, w22 = state.as_tuple()

    def mix(m11, m12, m21, m22):
        return (
            m11 * w11 + m12 * w12 + m21 * w21 + m22 * w22,
            m11 * w12 + m12 * w11 + m21 * w22 + m22 * w21,
            m11 * w21 + m12 * w22 + m21 * w11 + m22 * w12,
            m11 * w22 + m12 * w21 + m21 * w12 + m22 * w11,
        )

    o11, o12, o21, o22 = mix(game.a11, game.a12, game.a21, game.a22)
    c11, c12, c21, c22 = mix(game.b11, game.b12, game.b21, game.b22)
    return PayoffMatrixPair(o11, o12, o21, o22, c11, c12, c21, c22)


def k_params(state: InitialStateWeights) -> KParams:
    return KParams(K1=state.w11 - state.w21, K2=state.w22 - state.w12)


def _check_probability(name, p):
    p = _require_finite(name, p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {p}")
    return p


def _bilinear(matrix, x, y):
    x, y = _check_probability("x", x), _check_probability("y", y)
    (m11, m12), (m21, m22) = matrix
    return (x * (y * m11 + (1.0 - y) * m12)
            + (1.0 - x) * (y * m21 + (1.0 - y) * m22))


def payoff_male(pair: PayoffMatrixPair, x: float, y: float) -> float:
    """Expected male payoff when X1 is played w.p. x and Y1 w.p. y."""
    return _bilinear(pair.omega, x, y)


def payoff_female(pair: PayoffMatrixPair, x: float, y: float) -> float:
    """Expected female payoff when X1 is played w.p. x and Y1 w.p. y."""
    return _bilinear(pair.chi, x, y)


def mw_scheme_oracle(game: ClassicalBimatrix, state: InitialStateWeights,
                     x: float, y: float):
    """Expected payoffs by direct enumeration of the four operator branches.

    The male applies identity w.p. x and a spin flip w.p. 1-x; the female
    likewise with y.  A flip on the first qubit swaps weights w1j <-> w2j, on
    the second qubit wi1 <-> wi2.  Each branch then pays sum(payoff * weight).
    This deliberately avoids the closed-form transformed matrices so it can
    serve as an independent cross-check of :func:`quantum_transform`.
    """
    x = _check_probability("x", x)
    y = _check_probability("y", y)
    w11, w12, w21, w22 = state.as_tuple()
    branches = (
        (x * y, (w11, w12, w21, w22)),                    # I (x) I
        (x * (1.0 - y), (w12, w11, w22, w21)),            # I (x) flip
        ((1.0 - x) * y, (w21, w22, w11, w12)),            # flip (x) I
        ((1.0 - x) * (1.0 - y), (w22, w21, w12, w11)),    # flip (x) flip
    )
    pm = 0.0
    pf = 0.0
    for prob, (v11, v12, v21, v22) in branches:
        pm += prob * (game.a11 * v11 + game.a12 * v12 + game.a21 * v21 + game.a22 * v22)
        pf += prob * (game.b11 * v11 + game.b12 * v12 + game.b21 * v21 + game.b22 * v22)
    return pm, pf
