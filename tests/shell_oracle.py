"""The dense (M, K) table of basis values on the grid, and the grid
contractions on it: the oracle for the per-axis contractions of
``operators``.

``eval_table`` is the product over the axes of the 1-D functions at each
grid point's coordinates, ``evaluate`` the same at arbitrary points.  On the
table, the density, the multiplication matrix and the evolved density of a
system are one dense product each (M^2 K work), and the time-averaged
operator and the shell densities loop over all (top + 1)^2 pairs of degree
shells |mu| = a, |nu| = c, one M_a x M_c block at a time.
"""

from __future__ import annotations

import numpy as np

from dunklkit import HermiteBasis
from dunklkit.hermite import _table


def as_point_list(s, x) -> np.ndarray:
    """Strict (n, d) list of points; accepts a flat array when d = 1."""
    x = np.asarray(x, dtype=float)
    if s.d == 1 and x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != s.d:
        raise ValueError(f"expected an (n, {s.d}) array of points, got shape {x.shape}")
    return x


def evaluate(basis: HermiteBasis, points) -> np.ndarray:
    """phi_mu at arbitrary points, shape (M, npts)."""
    pts = as_point_list(basis.structure, points)
    return _table(basis.structure, basis.per_dim_degree, basis.multi_indices, pts)


def eval_table(basis: HermiteBasis) -> np.ndarray:
    """phi_mu at the grid nodes, shape (M, K)."""
    return evaluate(basis, basis.grid.nodes)


def density(basis: HermiteBasis, a, points=None) -> np.ndarray:
    """Re sum_{mu nu} A_{mu nu} phi_mu phi_nu on the grid, or at the points;
    a (T, M, M) stack gives (T, K)."""
    table = eval_table(basis) if points is None else evaluate(basis, points)
    return ((np.real(a) @ table) * table).sum(axis=-2)


def multiplication_matrix(basis: HermiteBasis, samples) -> np.ndarray:
    """sum_k w_k V(x_k) phi_mu(x_k) phi_nu(x_k); (T, K) samples give (T, M, M)."""
    table = eval_table(basis)
    return (table * (basis.grid.weights * np.asarray(samples))[..., None, :]) @ table.T


def propagated_density(basis: HermiteBasis, coeffs, occupations, t) -> np.ndarray:
    """sum_j n_j |e^{-itH} f_j|^2 on the grid at each time in t, one state at
    a time: (T, K)."""
    table = eval_table(basis)
    phases = np.exp(-1j * np.atleast_1d(t)[:, None] * basis.eigenvalues)
    out = np.zeros((phases.shape[0], basis.grid.npoints))
    for c, n in zip(coeffs, np.real(occupations)):
        out += np.abs((phases * c) @ table) ** 2 * n
    return out


def degree_shells(basis: HermiteBasis):
    """(top, shells): the largest total degree and the slice of rows of each
    shell |mu| = 0..top of a basis ordered by total degree."""
    degree = basis.multi_indices.sum(axis=1)
    assert np.all(np.diff(degree) >= 0), "basis multi-indices must be ordered by total degree"
    top = int(degree[-1])
    return top, [slice(*np.searchsorted(degree, [a, a + 1])) for a in range(top + 1)]


def shell_densities(basis: HermiteBasis, a) -> np.ndarray:
    """G_n = sum over |mu| - |nu| = n of A_{mu nu} phi_mu phi_nu on the basis
    grid, n = -top..top: shape (2 top + 1, K), complex."""
    a = np.asarray(a)
    top, shells = degree_shells(basis)
    table = eval_table(basis)
    g = np.zeros((2 * top + 1, basis.grid.npoints), dtype=complex)
    for i, rows in enumerate(shells):
        for j, cols in enumerate(shells):
            block = a[rows, cols]
            g.real[top + i - j] += ((block.real @ table[cols]) * table[rows]).sum(axis=0)
            g.imag[top + i - j] += ((block.imag @ table[cols]) * table[rows]).sum(axis=0)
    return g


def time_averaged_operator(basis: HermiteBasis, time_nodes, v_samples) -> np.ndarray:
    """B_{mu nu} = sum_k w_k phi_mu(x_k) phi_nu(x_k) V_{|mu|-|nu|}(x_k) with
    the time harmonics V_n = sum_t tau_t e^{2int} V_t, block by block."""
    t, tau = (np.asarray(v, dtype=float) for v in time_nodes)
    v_samples = np.asarray(v_samples)
    top, shells = degree_shells(basis)
    phases = tau * np.exp(2j * np.outer(np.arange(-top, top + 1), t))
    harmonics = (phases.real @ v_samples + 1j * (phases.imag @ v_samples)) * basis.grid.weights
    table = eval_table(basis)
    b = np.empty((basis.size, basis.size), dtype=complex)
    for a, rows in enumerate(shells):
        for c, cols in enumerate(shells):
            b[rows, cols] = (table[rows] * harmonics[top + a - c]) @ table[cols].T
    return b
