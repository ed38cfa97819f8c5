import math
import random

import pytest

from quantum_replicator import ClassicalBimatrix, InitialStateWeights, SimplifiedGame


def make_weights(raw):
    """Normalize four nonnegative draws into a valid weight tuple."""
    total = sum(raw)
    vals = [v / total for v in raw]
    # force the sum to be exactly 1.0 in floating point
    vals[3] = 1.0 - vals[0] - vals[1] - vals[2]
    if vals[3] < 0.0:
        vals[3] = 0.0
    return InitialStateWeights(*vals)


def first_integral(fld, x, y):
    """H = r ln x - (r+s) ln(1-x) - p ln y + (p+q) ln(1-y), constant on orbits."""
    p, q, r, s = fld.x_constant, fld.x_slope, fld.y_constant, fld.y_slope
    return (r * math.log(x) - (r + s) * math.log(1.0 - x)
            - p * math.log(y) + (p + q) * math.log(1.0 - y))


def random_state(rng):
    return make_weights([rng.random() for _ in range(4)])


def random_bimatrix(rng, lo=-5.0, hi=5.0):
    return ClassicalBimatrix(*(rng.uniform(lo, hi) for _ in range(8)))


def random_game(rng, lo=-5.0, hi=5.0):
    return SimplifiedGame(*(rng.uniform(lo, hi) for _ in range(4)))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    if call.when == "call":
        item.rep_call = outcome.get_result()
