"""Picard iteration for the oscillator Hartree flow.

The interaction is the generalized (Dunkl) convolution W = w * rho with the
Gaussian w = e^{-|x|^2 / width^2}, normalized so that the Dunkl transform
D f(xi) = integral of f(x) E(-i xi, x) h_kappa^2 dx takes it to the product
Dw . Drho.  Up to a constant this is the Dunkl heat flow e^{t Laplacian} rho at
t = width^2 / 4, whose multiplier is Dw(xi) = M_kappa^{-1} (width / sqrt 2)^{d_eff}
e^{-t |xi|^2}.  At kappa = 0 it is the ordinary convolution.

The heat flow is exact in the generalized Hermite basis, since D takes
phi_mu(lambda x) to lambda^{-d_eff} (-i)^{|mu|} M_kappa^{-1} phi_mu(xi / lambda).
A density of the basis is e^{-|x|^2} times a polynomial of degree <= 2N per
axis, so rho(x) = sum_nu b_nu phi_nu(sqrt 2 x) over the box nu_j <= 2N, and
with a = sqrt(1 + width^2) the potential is e^{-|x|^2 / a^2} times such a
polynomial:

    W(x) = M_kappa^{-1} (width / a)^{d_eff} 2^{-d_eff / 2}
           sum_{mu, nu} i^{|mu| - |nu|} phi_mu(sqrt 2 x / a) C_{mu nu} b_nu,
    C_{mu nu} = integral of phi_mu(q) phi_nu(q / a) e^{-width^2 |q|^2 / (2 a^2)} h^2 dq,
    b_nu = integral of rho(q / sqrt 2) phi_nu(q) h^2 dq.

Both integrands are e^{-|q|^2} times a polynomial of degree <= 4N per axis,
so the order-(N + 1) tensor rule gives them exactly.  Every factor is an
orthonormal family or a Gaussian overlap bounded by one, so no growing factor
such as e^{|x|^2 / 2} multiplies the density and the route keeps round-off
accuracy for densities of any degree and any width.

The fixed-point map is

    Phi(gamma)(t) = e^{-itH} gamma_0 e^{itH}
                    - i integral_0^t e^{i(s-t)H} [W(s), gamma(s)] e^{-i(s-t)H} ds,

discretized on a uniform time grid with trapezoid partial integrals; the
conjugations are the exact oscillator ones of ``operators.apply_shells`` at
the ``flow_phases`` of the grid, formed once per solve.

The map keeps the parity blocks of ``operators.parity_blocks``.  The
reflection x_j -> -x_j multiplies phi_mu by (-1)^{mu_j}, so an operator
commutes with every reflection exactly when its entries between rows of
different mu mod 2 vanish.  Let gamma(s) commute with them at every s.
Then rho_gamma is even in every x_j; the Dunkl transform commutes with the
reflections and w is even, so W = w * rho is even too, and multiplication
by it commutes with them, as H does.  Phi(gamma) is built from gamma_0, W
and H by products, the flow and time integrals, so it commutes with them
when gamma_0 does.  From a gamma_0 that is zero off the blocks, as
|phi_0><phi_0| is, the step works one block at a time and writes exact
zeros off them: [W, gamma] is X - X^H with X = W gamma formed per block, as
W is real symmetric and gamma self-adjoint, and the Schatten residual takes
one ``eigvalsh`` per block.  A gamma_0 or an input trajectory with an entry
off the blocks runs as one block of every row, so no entry is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import HermiteBasis, _table, box_multi_indices, build_basis
from .operators import (
    apply_shells,
    density,
    flow_phases,
    multiplication_matrix,
    parity_blocks,
    schatten_norm,
)
from .quadrature import TensorGrid, tensor_grid

__all__ = [
    "gaussian_interaction",
    "HartreeConfig",
    "picard_step",
    "solve_hartree",
]

# The solve stops when the Schatten-alpha norm of an update falls below
# _TOL, or after _MAX_ITER updates.  alpha = 2q/(q+1) at q = 3/2, the
# exponent of the orthonormal Strichartz bound (``ExponentPair.alpha``).
_SCHATTEN_EXPONENT = 6.0 / 5.0
_TOL = 1e-8
_MAX_ITER = 50


def gaussian_interaction(basis: HermiteBasis, width: float):
    """(basis_y, G): (w * rho)(x_k) = sum_l G[k, l] rho(y_l) at the basis
    grid nodes x_k, for w = e^{-|x|^2 / width^2} and rho any density of the
    basis.  The y_l are the order-(N + 1) rule's nodes over sqrt 2, and
    basis_y is the basis on their grid (with the weights of that rule for
    e^{-2|x|^2}), so ``density(basis_y, A)`` samples rho_A at the y_l."""
    s = basis.structure
    a = math.hypot(1.0, width)
    n = 2 * basis.per_dim_degree
    mi = box_multi_indices(s.d, n)
    rule = tensor_grid(s, basis.per_dim_degree + 1)
    q = rule.nodes
    proj = _table(s, n, mi, q) * rule.weights
    damped = _table(s, n, mi, q / a) * np.exp(-0.5 * (width / a) ** 2 * (q * q).sum(axis=1))
    # i^{|mu| - |nu|} = t_mu t_nu where C is non-zero, with t = (-1)^{floor(|mu| / 2)}
    t = (-1.0) ** (mi.sum(axis=1) // 2)[:, None]
    out = _table(s, n, mi, basis.grid.nodes * (math.sqrt(2.0) / a)) * t
    scale = (width / a) ** s.d_eff * 2.0 ** (-0.5 * s.d_eff) / s.m_kappa
    grid_y = TensorGrid(rule.orders, q / math.sqrt(2.0), rule.weights * 2.0 ** (-0.5 * s.d_eff))
    g = scale * (out.T @ (proj @ damped.T) @ (proj * t))
    return build_basis(s, basis.per_dim_degree, grid_y), g


@dataclass
class HartreeConfig:
    """Problem data for the fixed-point solve on [0, T]; ``gamma0`` is the
    initial operator as an (M, M) matrix in ``basis``."""

    basis: HermiteBasis
    gamma0: np.ndarray
    width: float = 1.0         # of the interaction profile e^{-|x|^2 / width^2}
    coupling: float = 1.0
    horizon: float = 0.1
    steps: int = 33

    def __post_init__(self):
        g = self.gamma0 = np.asarray(self.gamma0, dtype=complex)
        n = self.basis.size
        if g.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} initial operator, got {g.shape}")
        if np.abs(g - g.conj().T).max() > 1e-12:
            raise ValueError("initial operator must be self-adjoint")
        if not 0.0 < self.width < np.inf:
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if not np.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.steps}")


def _potential_matrices(config: HartreeConfig, interaction, traj: np.ndarray) -> np.ndarray:
    """Multiplication matrices of coupling * (w * rho_{gamma(t)}) per node;
    ``interaction`` is ``gaussian_interaction(config.basis, config.width)``."""
    basis_y, g = interaction
    rho = density(basis_y, traj)
    return multiplication_matrix(config.basis, config.coupling * rho @ g.T)


def _invariant_blocks(basis: HermiteBasis, *operators) -> list[np.ndarray]:
    """``parity_blocks(basis)`` when every operator, an (M, M) matrix or a
    stack, is exactly zero off them; else one block of every row."""
    parity = basis.multi_indices % 2
    off = (parity[:, None] != parity).any(axis=-1)
    if any(np.any(a[..., off]) for a in operators):
        return [np.arange(basis.size)]
    return parity_blocks(basis)


def picard_step(config: HartreeConfig, times: np.ndarray, traj: np.ndarray,
                interaction=None, phases=None, blocks=None):
    """One application of the fixed-point map to a sampled trajectory, a
    (T, M, M) stack of self-adjoint operators; the result is zero off
    ``blocks``.  The constants of a solve default to ``interaction =
    gaussian_interaction(config.basis, config.width)``, ``phases =
    flow_phases(config.basis, times)`` and ``blocks`` the parity blocks
    when ``config.gamma0`` and ``traj`` are zero off them, else one block
    of every row."""
    basis = config.basis
    if interaction is None:
        interaction = gaussian_interaction(basis, config.width)
    if phases is None:
        phases = flow_phases(basis, times)
    if blocks is None:
        blocks = _invariant_blocks(basis, config.gamma0, traj)
    pots = _potential_matrices(config, interaction, traj)
    h = times[1] - times[0]
    new = np.zeros_like(traj)
    for rows in blocks:
        block = (slice(None), rows[:, None], rows)
        # [W, gamma] = X - X^H with X = W gamma, rotated to e^{isH} [W(s),
        # gamma(s)] e^{-isH} (the phases at -s are the conjugates), then
        # overwritten by its trapezoid integrals from 0 to each node
        x = pots[block] @ traj[block]
        acc = apply_shells(basis, x - x.conj().swapaxes(-1, -2), phases.conj(), rows)
        acc[1:] = np.cumsum(0.5 * h * (acc[:-1] + acc[1:]), axis=0)
        acc[0] = 0.0
        # e^{-itH} (gamma_0 - i acc(t)) e^{itH}
        acc *= -1j
        acc += config.gamma0[rows[:, None], rows]
        new[block] = apply_shells(basis, acc, phases, rows)
    return new


def solve_hartree(config: HartreeConfig):
    """Iterate the fixed-point map to tolerance; returns (times, trajectory,
    diagnostics dict with per-iteration residuals, contraction factors and
    the sizes of the blocks the solve ran on).

    An iterate with a non-finite entry ends the solve as not converged; the
    trajectory returned is then the last finite iterate.
    """
    basis = config.basis
    times = np.linspace(0.0, config.horizon, config.steps)
    interaction = gaussian_interaction(basis, config.width)
    phases = flow_phases(basis, times)
    blocks = _invariant_blocks(basis, config.gamma0)
    traj = apply_shells(basis, config.gamma0, phases)
    residuals = []
    converged = False
    for _ in range(_MAX_ITER):
        new = picard_step(config, times, traj, interaction, phases, blocks)
        if not np.isfinite(new).all():
            break
        res = float(schatten_norm(new - traj, _SCHATTEN_EXPONENT, blocks).max())
        residuals.append(res)
        traj = new
        if res < _TOL:
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
        "blocks": [rows.size for rows in blocks],
    }
    return times, traj, diagnostics
