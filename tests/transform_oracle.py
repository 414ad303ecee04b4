"""The rank-one Dunkl transform by quadrature, and the Gaussian interaction
as a transform multiplier: the d = 1 oracle for ``hartree.interaction_matrix``.

With the transform D f(xi) = integral of f(x) E(-i xi, x) h^2 dx and the
inverse f(x) = M_kappa^2 integral of Df(xi) E(i x, xi) h^2 dxi, the
interaction is W = D^{-1}[Dw . Drho].  At kappa = 0 this is the ordinary
convolution theorem with the non-unitary Fourier convention.  The kernel's
Bessel route evaluates most of the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dunklkit import DunklStructure, dunkl_kernel_1d, plain_rule


@dataclass(frozen=True)
class DunklTransform1D:
    """Quadrature realization of the rank-one Dunkl transform pair.

    ``forward`` has no prefactor and ``inverse`` carries M_kappa^2, so the
    convolution theorem reads D[w * rho] = Dw . Drho.  The frequency grid is
    deliberately narrower than the space grid (sigma = 2 vs 1/2): the space
    rule resolves oscillations only up to moderate frequencies, and Gaussian-
    enveloped inputs have negligible transform content beyond that range.
    """

    kappa: float
    order: int = 80
    nodes: np.ndarray = field(init=False)       # space nodes
    weights: np.ndarray = field(init=False)
    xi_nodes: np.ndarray = field(init=False)    # frequency nodes
    xi_weights: np.ndarray = field(init=False)
    _fwd: np.ndarray = field(init=False)        # (n_xi, n_x)

    def __post_init__(self):
        nodes, weights = plain_rule(self.kappa, self.order, sigma=0.5)
        xi, xi_w = plain_rule(self.kappa, self.order, sigma=2.0)
        kern = dunkl_kernel_1d(self.kappa, -1j * xi[:, None], nodes[None, :])
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "xi_nodes", xi)
        object.__setattr__(self, "xi_weights", xi_w)
        object.__setattr__(self, "_fwd", kern * weights[None, :])

    def forward(self, samples: np.ndarray) -> np.ndarray:
        """D f on the frequency nodes from samples of f on the space nodes."""
        return self._fwd @ np.asarray(samples)

    def inverse(self, hat_samples: np.ndarray, x=None) -> np.ndarray:
        """f at x (default: the space nodes) from D f on the frequency nodes."""
        if x is None:
            x = self.nodes
        x = np.atleast_1d(np.asarray(x, dtype=float))
        kern = (
            dunkl_kernel_1d(self.kappa, 1j * x[:, None], self.xi_nodes[None, :])
            * self.xi_weights[None, :]
        )
        m_kappa = DunklStructure(1, (self.kappa,)).m_kappa
        return m_kappa**2 * (kern @ np.asarray(hat_samples))


def interaction_potential(transform: DunklTransform1D, w_samples, rho_samples, x=None):
    """W = w (Dunkl-)convolved with rho, via the multiplier theorem.

    Both inputs are sampled on the transform nodes; output at x (default:
    the transform nodes).  Columns of ``rho_samples`` (``w_samples`` then a
    column) are separate densities, and give the columns of W.
    """
    what = transform.forward(w_samples)
    rhat = transform.forward(rho_samples)
    out = transform.inverse(what * rhat, x)
    return np.real_if_close(out, tol=1e6)
