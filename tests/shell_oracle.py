"""The time-averaged operator and the shell densities block by block of degree
shells: the oracle for ``operators.time_averaged_operator`` and
``operators.shell_densities``.

Both read the dense (M, K) table of basis values on the grid and loop over
all (top + 1)^2 pairs of degree shells |mu| = a, |nu| = c, one M_a x M_c
block at a time: M^2 K work where the package contracts one axis at a time.
"""

from __future__ import annotations

import numpy as np

from dunklkit import HermiteBasis


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
    table = basis.eval_table
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
    table = basis.eval_table
    b = np.empty((basis.size, basis.size), dtype=complex)
    for a, rows in enumerate(shells):
        for c, cols in enumerate(shells):
            b[rows, cols] = (table[rows] * harmonics[top + a - c]) @ table[cols].T
    return b
