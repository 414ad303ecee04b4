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

Every factor of W is a product over the axes: w and the weight h_kappa^2,
the basis functions, the tensor rule and its box of degrees, the constant
(M_kappa and d_eff are products and sums of one-axis ones) and
i^{|mu| - |nu|} = prod_j i^{mu_j - nu_j}.  So the matrix G taking the
samples of rho at the sample nodes to W on the basis grid is the Kronecker
product G_0 x ... x G_{d-1} of the one-axis matrices, each the d = 1 matrix of
its axis's multiplicity, (2 order_j, 2 (N + 1)).  ``convolve`` applies them
one axis at a time: neither the table of the (2N + 1)^d functions on a
d-dimensional grid nor G, (K, K_y), is formed.

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
when gamma_0 does.

So the solve holds a trajectory as its diagonal blocks: one (T, m_b, m_b)
stack per block, beside the block's rows, for gamma(t), its update and
W(t).  From a gamma_0 that is zero off the parity blocks, as |phi_0><phi_0|
is, those are the blocks; a gamma_0 with an entry off them runs as one block
of every row, so no entry is dropped.  Per block, [W, gamma] is X - X^H with
X = W gamma, as W is real symmetric and gamma self-adjoint, and the flow,
the time integrals, the Schatten residual (one ``eigvalsh`` per block) and
the traces read no entry off the blocks.  The one full-size array of a step
is the real (T, M, M) operator whose static ``density`` samples rho: it is
formed from the blocks and freed before the potentials, whose multiplication
matrices are cut into their blocks as they come.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .hermite import HermiteBasis, build_basis, hermite_functions_1d
from .operators import (
    apply_shells,
    density,
    flow_phases,
    multiplication_matrix,
    parity_blocks,
    schatten_norm,
)
from .quadrature import TensorGrid, plain_rule, tensor_grid

__all__ = [
    "gaussian_interaction",
    "convolve",
    "HartreeConfig",
    "picard_step",
    "solve_hartree",
]

# The solve stops when the Schatten-alpha norm of an update falls below
# _TOL, or after _MAX_ITER updates, or as diverging once the norm of an
# update exceeds that of the first.  alpha = 2q/(q+1) at q = 3/2, the
# exponent of the orthonormal Strichartz bound (``ExponentPair.alpha``).
_SCHATTEN_EXPONENT = 6.0 / 5.0
_TOL = 1e-8
_MAX_ITER = 50


def gaussian_interaction(basis: HermiteBasis, width: float):
    """(basis_y, factors): (w * rho)(x_k) = sum_l G[k, l] rho(y_l) at the
    basis grid nodes x_k, for w = e^{-|x|^2 / width^2} and rho any density of
    the basis, with G the Kronecker product of the ``factors``, one
    (2 order_j, 2 (N + 1)) matrix per axis (``convolve`` applies it).  The
    y_l are the order-(N + 1) rule's nodes over sqrt 2, and basis_y is the
    basis on their grid (with the weights of that rule for e^{-2|x|^2}), so
    ``density(basis_y, A)`` samples rho_A at the y_l."""
    s, n = basis.structure, basis.per_dim_degree
    rule = tensor_grid(s, n + 1)
    grid_y = TensorGrid(rule.orders, rule.nodes / math.sqrt(2.0),
                        rule.weights * 2.0 ** (-0.5 * s.d_eff))
    factors = tuple(_axis_factor(dataclasses.replace(s, d=1, kappa=(kappa,)), n, width, x)
                    for kappa, x in zip(s.kappa, basis.grid.axes))
    return build_basis(s, n, grid_y), factors


def _axis_factor(s, n: int, width: float, x: np.ndarray) -> np.ndarray:
    """The one-axis factor of ``gaussian_interaction`` for the d = 1
    structure ``s`` of an axis, at that axis's basis grid nodes ``x``: the
    formula of the module docstring on the axis's box of degrees <= 2N."""
    (kappa,) = s.kappa
    a = math.hypot(1.0, width)
    q, weights = plain_rule(kappa, n + 1)
    proj = hermite_functions_1d(kappa, 2 * n, q) * weights
    damped = hermite_functions_1d(kappa, 2 * n, q / a) * np.exp(-0.5 * (width / a) ** 2 * (q * q))
    # i^{m - l} = t_m t_l where C is non-zero, with t = (-1)^{floor(m / 2)}
    t = (-1.0) ** (np.arange(2 * n + 1) // 2)[:, None]
    out = hermite_functions_1d(kappa, 2 * n, x * (math.sqrt(2.0) / a)) * t
    scale = (width / a) ** s.d_eff * 2.0 ** (-0.5 * s.d_eff) / s.m_kappa
    return scale * (out.T @ (proj @ damped.T) @ (proj * t))


def convolve(factors, rho) -> np.ndarray:
    """w * rho at the basis grid nodes from the (..., K_y) samples of rho at
    the y nodes of ``gaussian_interaction``: its factors applied one axis at
    a time, the last axis first, each product turning one axis of y nodes
    into one of x nodes in front of the y axes still to go.  At d = 1 this
    is the one product rho @ G^T."""
    state = np.reshape(rho, (-1, *(g.shape[1] for g in factors)))
    for g in reversed(factors):
        state = np.moveaxis(state @ g.T, -1, 1)
    return state.reshape(*np.shape(rho)[:-1], -1)


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


def _potentials(config: HartreeConfig, interaction, traj) -> list[np.ndarray]:
    """The diagonal blocks of the multiplication matrices of coupling *
    (w * rho_{gamma(t)}) per node, for a trajectory given as its blocks;
    ``interaction`` is ``gaussian_interaction(config.basis, config.width)``."""
    basis, (basis_y, factors) = config.basis, interaction
    # the one full-size array of a step: the real operator that the static
    # density reads, freed before the potentials
    real = np.zeros((traj[0][1].shape[0], basis.size, basis.size))
    for rows, g in traj:
        real[:, rows[:, None], rows] = g.real
    rho = density(basis_y, real)
    del real
    pots = multiplication_matrix(basis, convolve(factors, config.coupling * rho))
    return [pots[:, rows[:, None], rows] for rows, _ in traj]


def _invariant_blocks(basis: HermiteBasis, gamma0: np.ndarray) -> list[np.ndarray]:
    """``parity_blocks(basis)`` when ``gamma0`` is exactly zero off them;
    else one block of every row."""
    parity = basis.multi_indices % 2
    off = (parity[:, None] != parity).any(axis=-1)
    if np.any(gamma0[off]):
        return [np.arange(basis.size)]
    return parity_blocks(basis)


def picard_step(config: HartreeConfig, times: np.ndarray, traj, interaction=None, phases=None):
    """One application of the fixed-point map to a sampled trajectory of
    self-adjoint operators given as its diagonal blocks: a list of (rows,
    stack) pairs, ``rows`` an index array of basis rows and ``stack`` the
    (T, m, m) block of those rows at every node.  Every entry off the blocks
    is taken as zero, in the trajectory and in ``config.gamma0`` (one block
    of every row takes any operator).  The update comes as the same blocks.
    The constants of a solve default to ``interaction =
    gaussian_interaction(config.basis, config.width)`` and ``phases =
    flow_phases(config.basis, times)``."""
    basis = config.basis
    if interaction is None:
        interaction = gaussian_interaction(basis, config.width)
    if phases is None:
        phases = flow_phases(basis, times)
    h = times[1] - times[0]
    new = []
    for (rows, g), w in zip(traj, _potentials(config, interaction, traj)):
        # [W, gamma] = X - X^H with X = W gamma, rotated to e^{isH} [W(s),
        # gamma(s)] e^{-isH} (the phases at -s are the conjugates), then
        # overwritten by its trapezoid integrals from 0 to each node
        acc = w @ g
        acc -= acc.conj().swapaxes(-1, -2)
        acc = apply_shells(basis, acc, phases.conj(), rows)
        acc[1:] = np.cumsum(0.5 * h * (acc[:-1] + acc[1:]), axis=0)
        acc[0] = 0.0
        # e^{-itH} (gamma_0 - i acc(t)) e^{itH}
        acc *= -1j
        acc += config.gamma0[rows[:, None], rows]
        new.append((rows, apply_shells(basis, acc, phases, rows)))
    return new


def solve_hartree(config: HartreeConfig):
    """Iterate the fixed-point map to tolerance; returns (times, trajectory,
    diagnostics dict with per-iteration residuals, contraction factors,
    traces and the sizes of the blocks the solve ran on).  The trajectory
    comes as its diagonal blocks, the (rows, stack) pairs of
    ``picard_step``: the parity blocks when ``config.gamma0`` is zero off
    them, else one block of every row.

    An iterate with a non-finite entry, or an update larger than the first,
    ends the solve as not converged; the trajectory returned is then the
    last finite iterate.
    """
    basis = config.basis
    times = np.linspace(0.0, config.horizon, config.steps)
    interaction = gaussian_interaction(basis, config.width)
    phases = flow_phases(basis, times)
    blocks = _invariant_blocks(basis, config.gamma0)
    traj = [(rows, apply_shells(basis, config.gamma0[rows[:, None], rows], phases, rows))
            for rows in blocks]
    residuals = []
    converged = False
    for _ in range(_MAX_ITER):
        new = picard_step(config, times, traj, interaction, phases)
        if not all(np.isfinite(g).all() for _, g in new):
            break
        # the update's blocks side by side, as schatten_norm takes them
        res = float(schatten_norm(np.concatenate(
            [(g - old).reshape(times.size, -1) for (_, g), (_, old) in zip(new, traj)], axis=-1),
            _SCHATTEN_EXPONENT, blocks).max())
        residuals.append(res)
        traj = new
        if res < _TOL:
            converged = True
            break
        if res > residuals[0]:
            break
    factors = [
        residuals[i] / residuals[i - 1]
        for i in range(1, len(residuals))
        if residuals[i - 1] > 0
    ]
    # tr gamma(t) over the rows in order, the sum a whole matrix's trace takes
    diagonal = np.zeros((times.size, basis.size), dtype=complex)
    for rows, g in traj:
        diagonal[:, rows] = np.diagonal(g, axis1=1, axis2=2)
    diagnostics = {
        "converged": converged,
        "iterations": len(residuals),
        "residuals": residuals,
        "contraction_factors": factors,
        "traces": diagonal.sum(axis=1).real.tolist(),
        "blocks": [rows.size for rows in blocks],
    }
    return times, traj, diagnostics
