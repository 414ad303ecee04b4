"""Picard iteration for the oscillator Hartree flow in one dimension.

The interaction is a generalized (Dunkl) convolution realized as a transform
multiplier: with the transform D f(xi) = integral of f(x) E(-i xi, x) h^2 dx
and inverse f(x) = M_kappa^2 integral of Df(xi) E(i x, xi) h^2 dxi, the
potential is W = D^{-1}[ Dw . Drho ].  At kappa = 0 this is the ordinary
convolution theorem with the non-unitary Fourier convention.

The fixed-point map is

    Phi(gamma)(t) = e^{-itH} gamma_0 e^{itH}
                    - i integral_0^t e^{i(s-t)H} [W(s), gamma(s)] e^{-i(s-t)H} ds,

discretized on a uniform time grid with trapezoid partial integrals; the
conjugations are the exact oscillator ones of ``operators.conjugate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermite import HermiteBasis
from .operators import conjugate, density, multiplication_matrix, schatten_norm
from .quadrature import plain_rule
from .structure import DunklStructure, dunkl_kernel_1d

__all__ = [
    "DunklTransform1D",
    "interaction_potential",
    "HartreeConfig",
    "picard_step",
    "solve_hartree",
]


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

    @staticmethod
    def space_rule(kappa: float, order: int):
        """The (nodes, weights) on which the transform samples its inputs."""
        return plain_rule(kappa, order, sigma=0.5)

    def __post_init__(self):
        nodes, weights = self.space_rule(self.kappa, self.order)
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


@dataclass
class HartreeConfig:
    """Problem data for the fixed-point solve on [0, T]; ``gamma0`` is the
    initial operator as an (M, M) matrix in ``basis``."""

    basis: HermiteBasis
    gamma0: np.ndarray
    w_profile: object          # callable on flat x arrays
    coupling: float = 1.0
    horizon: float = 0.1
    steps: int = 33
    q: float = 1.5
    tol: float = 1e-8
    max_iter: int = 50
    transform_order: int = 80

    def __post_init__(self):
        g = self.gamma0 = np.asarray(self.gamma0, dtype=complex)
        n = self.basis.size
        if g.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} initial operator, got {g.shape}")
        if np.abs(g - g.conj().T).max() > 1e-12:
            raise ValueError("initial operator must be self-adjoint")
        if not np.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.steps}")
        if self.basis.structure.d != 1:
            raise ValueError("the Hartree solver is one-dimensional")

    @property
    def schatten_exponent(self) -> float:
        return 2.0 * self.q / (self.q + 1.0)


def _potential_matrices(config: HartreeConfig, transform, traj: np.ndarray) -> np.ndarray:
    """Multiplication matrices of coupling * (w conv rho_{gamma(t)}) per node."""
    basis = config.basis
    w_nodes = np.asarray(config.w_profile(transform.nodes), dtype=float)
    rho = density(basis, traj, transform.nodes)
    w_grid = interaction_potential(transform, w_nodes[:, None], rho.T, basis.grid.nodes[:, 0])
    return multiplication_matrix(basis, config.coupling * np.real(w_grid).T)


def picard_step(config: HartreeConfig, times: np.ndarray, traj: np.ndarray, transform=None):
    """One application of the fixed-point map to a sampled trajectory."""
    basis = config.basis
    if transform is None:
        transform = DunklTransform1D(basis.structure.kappa[0], config.transform_order)
    pots = _potential_matrices(config, transform, traj)
    h = times[1] - times[0]
    # rotated commutators e^{isH} [W(s), gamma(s)] e^{-isH}, overwritten by
    # their trapezoid integrals from 0 to each node; reusing buffers keeps
    # the (T, M, M) temporaries, which set the solve's peak memory, few
    acc = conjugate(basis, pots @ traj - traj @ pots, -times)
    acc[1:] = np.cumsum(0.5 * h * (acc[:-1] + acc[1:]), axis=0)
    acc[0] = 0.0
    new = -1j * conjugate(basis, acc, times)
    new += conjugate(basis, config.gamma0, times)
    return new


def solve_hartree(config: HartreeConfig):
    """Iterate the fixed-point map to tolerance; returns (times, trajectory,
    diagnostics dict with per-iteration residuals and contraction factors).

    An iterate with a non-finite entry ends the solve as not converged; the
    trajectory returned is then the last finite iterate.
    """
    basis = config.basis
    times = np.linspace(0.0, config.horizon, config.steps)
    transform = DunklTransform1D(basis.structure.kappa[0], config.transform_order)
    traj = conjugate(basis, config.gamma0, times)
    residuals = []
    p = config.schatten_exponent
    converged = False
    for _ in range(config.max_iter):
        new = picard_step(config, times, traj, transform)
        if not np.isfinite(new).all():
            break
        res = float(schatten_norm(new - traj, p).max())
        residuals.append(res)
        traj = new
        if res < config.tol:
            converged = True
            break
    factors = [
        residuals[i] / residuals[i - 1]
        for i in range(1, len(residuals))
        if residuals[i - 1] > 0
    ]
    diagnostics = {
        "converged": converged,
        "iterations": len(residuals),
        "residuals": residuals,
        "contraction_factors": factors,
        "traces": np.trace(traj, axis1=1, axis2=2).real.tolist(),
        "schatten": schatten_norm(traj, p).tolist(),
    }
    return times, traj, diagnostics
