"""Strict-equilibrium / evolutionary-stability tests at the corner (1, 0).

For an asymmetric bi-matrix game a pure strategy pair is evolutionarily
stable exactly when it is a strict Nash equilibrium, so the test reduces to
two payoff margins.  The attractor test uses the linearization roots at the
same corner.  The two verdicts are reported independently: away from the
symmetric-weight slice (w11 = w22) the quantized margins and roots involve
different weight combinations and neither implies the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .games import InitialStateWeights, SimplifiedGame, _require_tolerance, k_params
from .stability import DEFAULT_ZERO_TOL, corner_roots_10

__all__ = [
    "EssMargins",
    "StabilityVerdict",
    "ComparisonReport",
    "FLIP_NONE",
    "FLIP_GAINED_ESS",
    "FLIP_LOST_ESS",
    "FLIP_GAINED_ATTRACTOR",
    "FLIP_LOST_ATTRACTOR",
    "strict_ne_margins_10",
    "verdict_10",
    "compare_classical_quantum",
]

FLIP_NONE = "none"
FLIP_GAINED_ESS = "gained-ess"
FLIP_LOST_ESS = "lost-ess"
FLIP_GAINED_ATTRACTOR = "gained-attractor"
FLIP_LOST_ATTRACTOR = "lost-attractor"


@dataclass(frozen=True)
class EssMargins:
    """Payoff losses from unilateral deviation at (1, 0); positive = strict NE."""

    m_male: float
    m_female: float


@dataclass(frozen=True)
class StabilityVerdict:
    is_attractor: bool
    is_ess: bool
    marginal: bool
    roots: tuple
    margins: EssMargins


@dataclass(frozen=True)
class ComparisonReport:
    classical: StabilityVerdict
    quantum: StabilityVerdict
    flip: str


def strict_ne_margins_10(game: SimplifiedGame, state: InitialStateWeights) -> EssMargins:
    """Deviation margins at (1, 0) for the quantized game.

    m_male = a(w11 - w21) + b(w22 - w12); m_female = c(w11 - w12) + d(w22 - w21).
    Both strictly positive iff (1, 0) is a strict NE, hence an ESS.
    """
    return EssMargins(
        m_male=game.a * (state.w11 - state.w21) + game.b * (state.w22 - state.w12),
        m_female=game.c * (state.w11 - state.w12) + game.d * (state.w22 - state.w21),
    )


def verdict_10(game: SimplifiedGame, state: InitialStateWeights,
               tol=DEFAULT_ZERO_TOL) -> StabilityVerdict:
    """Attractor and ESS flags at (1, 0), with a marginal flag for near-zero calls."""
    tol = _require_tolerance("tol", tol)
    k = k_params(state)
    roots = corner_roots_10(game.a, game.b, game.c, game.d, k.K1, k.K2)
    margins = strict_ne_margins_10(game, state)
    marginal = abs(roots[0]) <= tol or abs(roots[1]) <= tol or abs(margins.m_female) <= tol
    male = roots[0] < -tol  # m_male is -roots[0] up to the sign of a zero
    is_attractor = male and roots[1] < -tol
    is_ess = male and margins.m_female > tol
    return StabilityVerdict(is_attractor=is_attractor, is_ess=is_ess,
                            marginal=marginal, roots=roots, margins=margins)


def _flip(classical_ess, classical_attractor, quantum_ess, quantum_attractor) -> str:
    # An ESS change outranks an attractor change when both occur.
    if quantum_ess and not classical_ess:
        return FLIP_GAINED_ESS
    if classical_ess and not quantum_ess:
        return FLIP_LOST_ESS
    if quantum_attractor and not classical_attractor:
        return FLIP_GAINED_ATTRACTOR
    if classical_attractor and not quantum_attractor:
        return FLIP_LOST_ATTRACTOR
    return FLIP_NONE


def compare_classical_quantum(game: SimplifiedGame, state: InitialStateWeights,
                              tol=DEFAULT_ZERO_TOL) -> ComparisonReport:
    """Verdicts for the classical state and the given state, plus what flipped."""
    classical = verdict_10(game, InitialStateWeights.classical(), tol=tol)
    quantum = verdict_10(game, state, tol=tol)
    flip = _flip(classical.is_ess, classical.is_attractor,
                 quantum.is_ess, quantum.is_attractor)
    return ComparisonReport(classical=classical, quantum=quantum, flip=flip)
