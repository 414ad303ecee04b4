"""Matrices of the Dunkl operators T_j and coordinate multiplications.

For Z2 in one dimension, T f(x) = f'(x) + kappa (f(x) - f(-x)) / x.  On the
generalized Hermite functions x and T act through the ladder of ``hermite``,
a_n = sqrt((n + 2 kappa [n odd]) / 2):

    x phi_n = a_n phi_{n-1} + a_{n+1} phi_{n+1},
    T phi_n = a_n phi_{n-1} - a_{n+1} phi_{n+1},

so in the truncated basis x is the symmetric and T the skew tridiagonal of
the ladder, exact up to the truncation edge.  Multi-dimensional matrices
follow from the tensor factorization of the box-truncated basis.
"""

from __future__ import annotations

import numpy as np

from .hermite import HermiteBasis, _ladder

__all__ = [
    "dunkl_operator_matrix",
    "position_operator_matrix",
    "hamiltonian_matrix",
]


def _lift(basis: HermiteBasis, j: int, sign: float) -> np.ndarray:
    """The ladder tridiagonal upper + sign upper^T of coordinate j (1-based),
    lifted to the tensor basis: the identity on the other coordinates."""
    d = basis.structure.d
    if not 1 <= j <= d:
        raise ValueError(f"coordinate index {j} outside 1..{d}")
    jj = j - 1
    upper = np.diag(_ladder(basis.structure.kappa[jj], basis.per_dim_degree)[1:], 1)
    mi = basis.multi_indices
    out = (upper + sign * upper.T)[np.ix_(mi[:, jj], mi[:, jj])]
    for l in range(d):
        if l != jj:
            out *= mi[:, l][:, None] == mi[:, l][None, :]
    return out


def dunkl_operator_matrix(basis: HermiteBasis, j: int) -> np.ndarray:
    """Matrix of T_j in the orthonormal basis (1-based coordinate index)."""
    return _lift(basis, j, -1.0)


def position_operator_matrix(basis: HermiteBasis, j: int) -> np.ndarray:
    """Matrix of multiplication by x_j (1-based coordinate index)."""
    return _lift(basis, j, 1.0)


def hamiltonian_matrix(basis: HermiteBasis) -> np.ndarray:
    """-sum_j T_j^2 + multiplication by |x|^2, assembled from the pieces.

    Diagonal with entries 2|mu| + d + 2 gamma_kappa away from the truncation
    edge (columns with some mu_j equal to the top degree see edge pollution).
    """
    out = np.zeros((basis.size, basis.size))
    for j in range(1, basis.structure.d + 1):
        t = dunkl_operator_matrix(basis, j)
        x = position_operator_matrix(basis, j)
        out += -t @ t + x @ x
    return out
