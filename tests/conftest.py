import numpy as np
import pytest

from bsgd.forward import build_benchmark, build_schlieren_problem
from bsgd.geometry import GridVector
from bsgd.phantoms import make_phantom
from bsgd.radon import build_radon


@pytest.fixture(scope="session")
def small_radon():
    return build_radon((16, 16), 10, 23)


@pytest.fixture(scope="session")
def desk_radon():
    return build_radon((32, 32), 30, 45)


@pytest.fixture(scope="session")
def desk_phantom():
    return make_phantom((32, 32), 4, 1.0, seed=7)


@pytest.fixture(scope="session")
def small_schlieren(small_radon):
    phantom = make_phantom((16, 16), 3, 1.0, seed=11)
    return build_schlieren_problem(small_radon, batch_size=2, x_truth=phantom)


@pytest.fixture(scope="session")
def hilbert_benchmark():
    return build_benchmark(40, 0.9, 1.1, 0.0, n_blocks=5, seed=3)


def scipy_csr(m):
    """scipy's ``csr_matrix`` on the arrays of a ``radon.CSR``: the oracle
    that the products, whose kernels are scipy's, must match byte for byte."""
    from scipy import sparse

    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def random_grid(rng, shape, scale=1.0):
    return GridVector(scale * rng.standard_normal(shape))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
