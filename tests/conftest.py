import numpy as np
import pytest

import scerm.rates
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


def starve_first_row(sset, w):
    """Weights w with the first atom's row left a single denormal weight:
    its other atoms lose their weight to the rest, renormalized, and the
    first atom keeps 5e-324. The row's Hessian coefficient is then so small
    that lam / c overflows, and a square-loss row-span solve fails at its
    factor with an empty trace."""
    row = sset.row_of == sset.row_of[0]
    w = np.where(row, 0.0, w)
    w = w / w.sum()
    w[0] = 5e-324
    return w


@pytest.fixture
def fail_first_draws(monkeypatch):
    """fail_first_draws(count): the first ``count`` replicates of the first n
    of a rate experiment draw starved weights (``starve_first_row``), so
    their solves fail inside the row's batch while every other replicate
    draws and solves as before."""

    def patch(count):
        draw = scerm.rates._draw

        def starved(pop, n, base, n_index, replicate):
            w, seed = draw(pop, n, base, n_index, replicate)
            if n_index == 0 and replicate < count:
                w = starve_first_row(pop.sample_set, w)
            return w, seed

        monkeypatch.setattr(scerm.rates, "_draw", starved)

    return patch
