import numpy as np
import pytest

from scerm import FinitePopulation, LogisticLoss, SampleSet, SquareLoss
from scerm.linalg import single_thread_blas

# the same BLAS thread policy as the command line, so a library-level test
# runs as fast whether or not an in-process CLI test ran before it
single_thread_blas()


@pytest.fixture
def p1():
    """Square-loss population {Phi=1; y=0 w.p. 1/2, y=2 w.p. 1/2}: theta*=1."""
    return FinitePopulation(SampleSet(SquareLoss(), [[1.0], [1.0]], [0.0, 2.0]),
                            np.array([0.5, 0.5]))


@pytest.fixture
def p2():
    """Logistic population {Phi=1; y=+1 w.p. 3/4, y=-1 w.p. 1/4}: theta*=log 3."""
    return FinitePopulation(SampleSet(LogisticLoss(), [[1.0], [1.0]], [1.0, -1.0]),
                            np.array([0.75, 0.25]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
