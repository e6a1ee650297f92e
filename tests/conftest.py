import numpy as np
import pytest

from scerm import FinitePopulation, LogisticLoss, Sample, SquareLoss
from scerm.linalg import single_thread_blas

# the same BLAS thread policy as the command line, so a library-level test
# runs as fast whether or not an in-process CLI test ran before it
single_thread_blas()


@pytest.fixture
def p1():
    """Square-loss population {Phi=1; y=0 w.p. 1/2, y=2 w.p. 1/2}: theta*=1."""
    return FinitePopulation(
        atoms=(
            Sample(features=np.array([1.0]), label=0.0),
            Sample(features=np.array([1.0]), label=2.0),
        ),
        weights=np.array([0.5, 0.5]),
        loss=SquareLoss(),
    )


@pytest.fixture
def p2():
    """Logistic population {Phi=1; y=+1 w.p. 3/4, y=-1 w.p. 1/4}: theta*=log 3."""
    return FinitePopulation(
        atoms=(
            Sample(features=np.array([1.0]), label=1.0),
            Sample(features=np.array([1.0]), label=-1.0),
        ),
        weights=np.array([0.75, 0.25]),
        loss=LogisticLoss(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
