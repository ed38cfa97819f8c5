"""Classical and quantized replicator dynamics of 2x2 bi-matrix games.

Quantization follows the probabilistic spin-flip protocol: both players mix
the identity and a flip operator over a shared two-qubit initial state, which
turns the classical payoff matrices into weight-mixed ones and the replicator
flow into a two-parameter family indexed by (K1, K2).
"""

from .games import (
    ClassicalBimatrix,
    SimplifiedGame,
    InitialStateWeights,
    KParams,
    PayoffMatrixPair,
    ValidationError,
    quantum_transform,
    k_params,
    payoff_male,
    payoff_female,
    mw_scheme_oracle,
)
from .dynamics import (
    ReplicatorField,
    Trajectory,
    field_eval,
    integrate,
    phase_portrait,
)
from .stability import (
    Equilibrium,
    LinearizationReport,
    equilibria,
    interior_point,
    jacobian,
    eigenvalues,
    classify,
    corner_roots_10,
    interior_lambda_sq,
    linearize,
)
from .ess import (
    EssMargins,
    StabilityVerdict,
    ComparisonReport,
    strict_ne_margins_10,
    verdict_10,
    compare_classical_quantum,
)
from .scenarios import (
    ScenarioInstance,
    make_case,
    make_case_a,
    make_case_b,
    make_case_c,
    scan_flip,
)

__version__ = "0.1.0"
