"""The dense (M, K) table of basis values on the grid, and the grid
contractions on it: the oracle for the per-axis contractions of
``operators``.

``eval_table`` is the product over the axes of the 1-D functions at each
grid point's coordinates, ``evaluate`` the same at arbitrary points.  On the
table, the density, the multiplication matrix and the evolved density of a
system are one dense product each (M^2 K work), and the time-averaged
operator and the shell densities loop over all (top + 1)^2 pairs of degree
shells |mu| = a, |nu| = c, one M_a x M_c block at a time.

``shells_to_pairs`` and ``pairs_to_shells`` are the sum-factorized shell
kernels of ``operators`` as they were before their widening step was
chunked: breadth first, each axis's whole state formed before the next axis
starts.  They are kept frozen, so that the chunked kernels can be held to
them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from dunklkit import HermiteBasis, hermite_functions_1d


def product_table(s, n_degree: int, multi_indices: np.ndarray, points) -> np.ndarray:
    """phi_mu at the (npts, d) points, shape (M, npts): the product over j of
    the 1-D functions of degree mu_j at the j-th coordinates."""
    out = np.ones((multi_indices.shape[0], points.shape[0]))
    for j in range(s.d):
        out *= hermite_functions_1d(s.kappa[j], n_degree, points[:, j])[multi_indices[:, j]]
    return out


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
    return product_table(basis.structure, basis.per_dim_degree, basis.multi_indices, pts)


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


# The breadth-first shell kernels, frozen.

def _diagonals(phi):
    """(delta, rows, pairs) for each per-axis offset delta = -N..N, from the
    (N + 1, nodes) table phi of one axis: the rows of a ((N + 1)^2, ...)
    array of pairs (m, l), row m (N + 1) + l, with m - l = delta, as a plain
    slice (so the rows are a view), and phi_m phi_l at the nodes for those
    pairs.  No (N + 1)^2 x nodes table of all the pairs is formed."""
    n = phi.shape[0] - 1
    for delta in range(-n, n + 1):
        # the first pair on the diagonal
        m, l = max(delta, 0), max(-delta, 0)
        start = m * (n + 1) + l
        rows = slice(start, start + (n - m - l) * (n + 2) + 1, n + 2)
        yield delta, rows, phi[m:n + 1 - l] * phi[l:n + 1 - m]


def _box_positions(basis: HermiteBasis):
    """(box, axes): the row-major place of each basis row in the box of
    multi-indices, and the permutation that takes the axes (mu_0, nu_0, mu_1,
    nu_1, ...) of the per-axis pairs to (mu_0, mu_1, ..., nu_0, nu_1, ...)."""
    d = basis.structure.d
    box = np.ravel_multi_index(basis.multi_indices.T, (basis.per_dim_degree + 1,) * d)
    return box, [*range(0, 2 * d, 2), *range(1, 2 * d, 2)]


def shells_to_pairs(basis: HermiteBasis, h) -> np.ndarray:
    """sum_k phi_mu(x_k) phi_nu(x_k) h_{|mu|-|nu|}(x_k) for real samples h of
    the shells n = -dN..dN on the basis grid, (..., 2 d N + 1, K), or of one
    function on every shell, (..., 1, K): a real (..., M, M) stack, by sum
    factorization.

    Axis j turns the pairs (mu_j, nu_j) and the offset n - sum_{i<=j}
    (mu_i - nu_i) that the later axes still owe into one product per value of
    mu_j - nu_j, 2N + 1 of them, each over the 2 order_j nodes of the axis:
    about (N + 1)^2 (2 (d - 1) N + 1) K work for the first axis, less for
    the others, against M^2 K from a dense table; a one-wide shell axis owes
    no offset and stays one wide.  Every product reads a view of the state
    and writes into the next one.  The stack is the outermost batch axis of
    every product, so each row takes the products it would take alone.
    """
    n = basis.per_dim_degree
    shift = int(h.shape[-2] > 1)
    # before axis j: (stack, offset, pairs_0, ..., pairs_{j-1}, K_j, ..., K_{d-1})
    state = h.reshape(-1, h.shape[-2], *(phi.shape[1] for phi in basis.axis_tables))
    stack = state.shape[0]
    for j, phi in enumerate(basis.axis_tables):
        nodes, tail = state.shape[j + 2], state.shape[j + 3:]
        width = state.shape[1] - 2 * n * shift
        out = np.empty((stack, width, *state.shape[2:j + 2], (n + 1) ** 2, *tail))
        flat = out.reshape(stack, -1, (n + 1) ** 2, math.prod(tail))
        for delta, rows, pairs in _diagonals(phi):
            # the view of the state is left unnamed, so the state is freed when replaced
            first = shift * (n + delta)
            flat[:, :, rows] = pairs @ state[:, first:first + width].reshape(
                *flat.shape[:2], nodes, -1
            )
        state = out
    box, axes = _box_positions(basis)
    full = state.reshape(stack, *(n + 1,) * len(axes)).transpose(0, *np.add(axes, 1))
    full = full.reshape(stack, box.size, box.size)[:, box[:, None], box]
    return full.reshape(*h.shape[:-2], box.size, box.size)


def pairs_to_shells(basis: HermiteBasis, a, static=False) -> np.ndarray:
    """The adjoint of ``shells_to_pairs``: sum over |mu| - |nu| = n of
    a_{mu nu} phi_mu phi_nu on the basis grid, n = -dN..dN, for a real
    (..., M, M) stack a: (..., 2 d N + 1, K), by the same per-axis products
    in reverse.  ``static`` sums over the shells as it goes: (..., 1, K)."""
    n = basis.per_dim_degree
    shift = 0 if static else 1
    box, axes = _box_positions(basis)
    # box is a permutation of the rows: its inverse takes them to box order
    inverse = np.argsort(box)
    state = a.reshape(-1, box.size, box.size)[:, inverse[:, None], inverse]
    stack = state.shape[0]
    # after axis j: (stack, offset, pairs_0, ..., pairs_{j-1}, K_j, ..., K_{d-1})
    state = state.reshape(stack, *(n + 1,) * len(axes)).transpose(0, *np.add(np.argsort(axes), 1))
    state = state.reshape(stack, 1, *((n + 1) ** 2,) * basis.structure.d)
    for j in reversed(range(basis.structure.d)):
        phi = basis.axis_tables[j]
        tail = state.shape[j + 3:]
        width, nodes = state.shape[1], phi.shape[1]
        out = np.zeros((stack, width + 2 * n * shift, *state.shape[2:j + 2], nodes, *tail))
        part = state.reshape(stack, -1, (n + 1) ** 2, math.prod(tail))
        for delta, rows, pairs in _diagonals(phi):
            # a slice of whole offsets of a fresh array: the reshape is a view
            first = shift * (n + delta)
            target = out[:, first:first + width].reshape(*part.shape[:2], nodes, -1)
            target += pairs.T @ part[:, :, rows]
        state = out
    return state.reshape(*a.shape[:-2], state.shape[1], -1)
