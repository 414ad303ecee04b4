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


def packed(a, blocks):
    """The diagonal blocks of a (..., M, M) array side by side on the last
    axis, each row by row: the operator as ``schatten_norm`` takes it with
    ``blocks``."""
    a = np.asarray(a)
    return np.concatenate([a[..., rows[:, None], rows].reshape(*a.shape[:-2], -1)
                           for rows in blocks], axis=-1)


def assembled(basis, traj):
    """The (T, M, M) trajectory whose diagonal blocks are the (rows, stack)
    pairs of ``traj``, zero off them."""
    out = np.zeros((traj[0][1].shape[0], basis.size, basis.size), dtype=complex)
    for rows, stack in traj:
        out[:, rows[:, None], rows] = stack
    return out
