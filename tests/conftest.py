import numpy as np
import pytest

from dunklkit import DunklStructure, build_basis, tensor_grid
from dunklkit.operators import parity_blocks


@pytest.fixture(scope="session")
def basis_1d_half():
    """d = 1, kappa = 0.5, moderate truncation; the workhorse fixture."""
    s = DunklStructure(1, (0.5,))
    return build_basis(s, 32, tensor_grid(s, 48))


@pytest.fixture(scope="session")
def basis_1d_one():
    s = DunklStructure(1, (1.0,))
    return build_basis(s, 32, tensor_grid(s, 48))


@pytest.fixture(scope="session")
def basis_1d_classical():
    """kappa = 0: everything must collapse to textbook Hermite analysis."""
    s = DunklStructure(1, (0.0,))
    return build_basis(s, 32, tensor_grid(s, 48))


@pytest.fixture(scope="session")
def basis_2d():
    s = DunklStructure(2, (1.0, 0.5))
    return build_basis(s, 10, tensor_grid(s, 16))


def random_state(basis, seed=0, band=None):
    """Unit-norm random state, optionally band-limited to degree <= band."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    if band is not None:
        c[basis.multi_indices.sum(axis=1) > band] = 0.0
    c /= np.linalg.norm(c)
    return c


def off_blocks(basis):
    """True at the entries between rows of different parity blocks."""
    key = np.empty(basis.size, dtype=int)
    for i, rows in enumerate(parity_blocks(basis)):
        key[rows] = i
    return key[:, None] != key
