"""Classical and quantized replicator dynamics of 2x2 bi-matrix games.

Quantization follows the probabilistic spin-flip protocol: both players mix
the identity and a flip operator over a shared two-qubit initial state, which
turns the classical payoff matrices into weight-mixed ones and the replicator
flow into a two-parameter family indexed by (K1, K2).
"""

from .games import *
from .dynamics import *
from .stability import *
from .ess import *
from .scenarios import *

__version__ = "0.1.0"
