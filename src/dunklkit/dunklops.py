"""Matrices of the Dunkl operators T_j and coordinate multiplications.

For Z2 in one dimension, T f(x) = f'(x) + kappa (f(x) - f(-x)) / x.  On the
generalized Hermite functions it is the skew partner of the position ladder
(see ``hermite``):

    T phi_n = a_n phi_{n-1} - a_{n+1} phi_{n+1},

so its values come from one basis-function table, and matrix entries are
assembled from those values by exact Gaussian quadrature.  Multi-dimensional
matrices follow from the tensor factorization of the box-truncated basis.
"""

from __future__ import annotations

import numpy as np

from .hermite import HermiteBasis, _ladder, hermite_functions_1d

__all__ = [
    "dunkl_action_1d",
    "dunkl_operator_matrix",
    "position_operator_matrix",
    "hamiltonian_matrix",
]


def dunkl_action_1d(kappa: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """Values of T phi_n at x for n = 0..nmax, shape (nmax + 1, len(x))."""
    a = _ladder(kappa, nmax + 1)[:, None]
    phi = hermite_functions_1d(kappa, nmax + 1, x)
    out = -a[1:] * phi[1:]
    out[1:] += a[1:-1] * phi[:-2]
    return out


def _matrix_1d(basis: HermiteBasis, j: int, action_values: np.ndarray) -> np.ndarray:
    """<A phi_n, phi_m> along dimension j by the per-dimension rule."""
    rule = basis.grid.rules[j]
    table = basis.dim_tables[j]
    return (table * rule.bare_weights) @ action_values.T


def _lift(basis: HermiteBasis, mat1d: np.ndarray, j: int) -> np.ndarray:
    """Lift a 1-D matrix acting on coordinate j to the tensor basis."""
    mi = basis.multi_indices
    out = mat1d[np.ix_(mi[:, j], mi[:, j])].astype(float).copy()
    for l in range(basis.structure.d):
        if l != j:
            out *= (mi[:, l][:, None] == mi[:, l][None, :])
    return out


def dunkl_operator_matrix(basis: HermiteBasis, j: int) -> np.ndarray:
    """Matrix of T_j in the orthonormal basis (1-based coordinate index)."""
    d = basis.structure.d
    if not 1 <= j <= d:
        raise ValueError(f"coordinate index {j} outside 1..{d}")
    jj = j - 1
    action = dunkl_action_1d(
        basis.structure.kappa[jj], basis.per_dim_degree, basis.grid.rules[jj].nodes
    )
    return _lift(basis, _matrix_1d(basis, jj, action), jj)


def position_operator_matrix(basis: HermiteBasis, j: int) -> np.ndarray:
    """Matrix of multiplication by x_j (1-based coordinate index)."""
    d = basis.structure.d
    if not 1 <= j <= d:
        raise ValueError(f"coordinate index {j} outside 1..{d}")
    jj = j - 1
    action = basis.dim_tables[jj] * basis.grid.rules[jj].nodes
    return _lift(basis, _matrix_1d(basis, jj, action), jj)


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
