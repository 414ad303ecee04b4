"""The matrix of the free Schrodinger flow e^{i tau Laplacian} in the
truncated basis, from the lens route: the oracle for the free flow on
interior blocks.

Column mu holds the coefficients of e^{i tau Laplacian} phi_mu, projected
back onto the basis by a Gauss rule.  The flow dilates degrees, so the
columns near the truncation edge lose norm; only interior blocks are exact.
"""

from __future__ import annotations

import numpy as np

from dunklkit import HermiteBasis, free_evolve_via_lens, tensor_grid


def free_propagator_matrix(basis: HermiteBasis, tau: float) -> np.ndarray:
    """Matrix of e^{i tau Laplacian} in the basis, via the lens route.

    Negative times follow by entrywise conjugation (the basis is real and the
    Laplacian commutes with complex conjugation).
    """
    if tau == 0.0:
        return np.eye(basis.size, dtype=complex)
    if tau < 0.0:
        return np.conj(free_propagator_matrix(basis, -tau))
    # The integrand decays at least like e^{-|x|^2 / 2}; the rule for e^{-|x|^2}
    # projects it to round-off, as closely as one matched to its decay.
    grid = tensor_grid(basis.structure, 2 * (basis.per_dim_degree + 2))
    columns = free_evolve_via_lens(basis, np.eye(basis.size), 2.0 * tau, grid.nodes)
    return (basis.evaluate(grid.nodes) * grid.weights) @ columns.T
