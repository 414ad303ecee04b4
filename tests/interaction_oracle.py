"""The Gaussian interaction of ``hartree`` as one dense matrix: the oracle for
its per-axis factors.

``dense_interaction`` is ``hartree.gaussian_interaction`` as it was before
the interaction was factored over the axes.  It forms the tables of all
(2N + 1)^d functions of the box of degrees <= 2N on the d-dimensional sample
and basis grids, and the whole (K, K_y) matrix G with (w * rho)(x_k) =
sum_l G[k, l] rho(y_l).  It is kept frozen, so that the per-axis route can
be held to it: bit for bit at d = 1, to round-off at d >= 2.
"""

from __future__ import annotations

import math

import numpy as np

from dunklkit import HermiteBasis, TensorGrid, build_basis, tensor_grid
from dunklkit.hermite import box_multi_indices
from shell_oracle import product_table


def dense_interaction(basis: HermiteBasis, width: float):
    """(basis_y, G): the basis on the sample grid, as ``gaussian_interaction``
    gives it, and the dense matrix taking the samples of a density of the
    basis there to w * rho on the basis grid."""
    s = basis.structure
    a = math.hypot(1.0, width)
    n = 2 * basis.per_dim_degree
    mi = box_multi_indices(s.d, n)
    rule = tensor_grid(s, basis.per_dim_degree + 1)
    q = rule.nodes
    proj = product_table(s, n, mi, q) * rule.weights
    damped = (product_table(s, n, mi, q / a)
              * np.exp(-0.5 * (width / a) ** 2 * (q * q).sum(axis=1)))
    # i^{|mu| - |nu|} = t_mu t_nu where C is non-zero, with t = (-1)^{floor(|mu| / 2)}
    t = (-1.0) ** (mi.sum(axis=1) // 2)[:, None]
    out = product_table(s, n, mi, basis.grid.nodes * (math.sqrt(2.0) / a)) * t
    scale = (width / a) ** s.d_eff * 2.0 ** (-0.5 * s.d_eff) / s.m_kappa
    grid_y = TensorGrid(rule.orders, q / math.sqrt(2.0), rule.weights * 2.0 ** (-0.5 * s.d_eff))
    g = scale * (out.T @ (proj @ damped.T) @ (proj * t))
    return build_basis(s, basis.per_dim_degree, grid_y), g
