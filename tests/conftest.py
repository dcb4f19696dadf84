from fractions import Fraction

import numpy as np
import pytest

from sphshift.scalarseq import ConstantDelta, HpSpace, Tabulated, default_suite


@pytest.fixture(scope="session")
def suite_m2():
    return default_suite(2)


@pytest.fixture(scope="session")
def suite_m3():
    return default_suite(3)


def assert_close(a, b, tol=1e-12, msg=""):
    assert abs(a - b) <= tol * max(1.0, abs(a), abs(b)), f"{a} != {b} {msg}"


# families of arity 2 built from float inputs, each a function of the
# conversion applied to every input number
FLOAT_INPUT_FAMILIES = {
    "table": lambda x: Tabulated([x(0.1), x(0.25), x(0.3)], tail="hold"),
    "hp": lambda x: HpSpace(2, x(0.1)),
    "constant": lambda x: ConstantDelta(x(0.1)),
    "scaled-hp": lambda x: HpSpace(2, 3).scale(x(0.1)),
}


@pytest.fixture(params=list(FLOAT_INPUT_FAMILIES))
def float_input_family(request):
    """(the family built from float inputs, the same family built from
    their binary values as Fractions)."""
    make = FLOAT_INPUT_FAMILIES[request.param]
    return make(float), make(Fraction)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def zero_step_table(K, zero_share, seed=7):
    """A hold table of delta2(0..K) in [1, 2) whose fit window k in
    [K // 2, K] has round(zero_share * (K + 1 - K // 2)) zero differences
    delta2(k) - delta2(k-1), at seeded places."""
    gen = np.random.default_rng(seed)
    values = gen.uniform(1.0, 2.0, size=K + 1)
    window = np.arange(K // 2, K + 1)
    for k in np.sort(gen.choice(window, round(zero_share * len(window)), replace=False)):
        values[k] = values[k - 1]
    return Tabulated(values.tolist(), tail="hold")


# the zero differences in a fit window: none, some, most, and so many that
# fewer than MIN_FIT_POINTS are left (or none, at K = 1000)
ZERO_SHARES = [0.0, 0.3, 0.97, 0.9999]
