"""A second route for the Hartree flow, the oracle for the Picard scheme of
``hartree``: the self-consistent exponential midpoint rule.

Both routes integrate i d gamma / dt = [H + W(gamma), gamma] on the uniform
time grid of ``solve_hartree``.  The midpoint rule takes

    gamma_{k+1} = U_k gamma_k U_k^*,  U_k = exp(-ih (H + (W_k + W_{k+1}) / 2)),

with W_k the multiplication matrix of coupling * (w * rho_{gamma_k}), and
iterates each step on W_{k+1} until gamma_{k+1} moves by less than 1e-14.
It is a Magnus integrator (Hochbruck-Lubich, SIAM J. Numer. Anal. 41, 2003):
second order, as the trapezoid Picard scheme is, but unitary, so it keeps
the spectrum of gamma.  Its end state and the Picard scheme's then differ by
O(h^2), a factor 4 per halving of the step.  The exponential is that of a
Hermitian matrix, from its eigenvectors, in the Schrodinger picture, and the
potential comes from the frozen dense interaction of ``interaction_oracle``.
"""

from __future__ import annotations

import numpy as np

from dunklkit import HartreeConfig, density, multiplication_matrix
from interaction_oracle import dense_interaction


def midpoint_trajectory(config: HartreeConfig, tol: float = 1e-14, max_iter: int = 100):
    """(times, (T, M, M) trajectory) of the midpoint rule on the time grid
    of ``solve_hartree``."""
    basis = config.basis
    times = np.linspace(0.0, config.horizon, config.steps)
    h = times[1] - times[0]
    basis_y, g = dense_interaction(basis, config.width)

    def potential(gamma):
        return multiplication_matrix(basis, g @ (config.coupling * density(basis_y, gamma)))

    gamma = config.gamma0
    w = potential(gamma)
    out = [gamma]
    for _ in range(1, times.size):
        nxt, w_next = gamma, w
        for _ in range(max_iter):
            vals, vecs = np.linalg.eigh(np.diag(basis.eigenvalues) + 0.5 * (w + w_next))
            u = (vecs * np.exp(-1j * h * vals)) @ vecs.conj().T
            moved = u @ gamma @ u.conj().T
            settled = np.abs(moved - nxt).max() < tol
            nxt, w_next = moved, potential(moved)
            if settled:
                break
        else:
            raise ArithmeticError(f"midpoint step did not settle to {tol} in {max_iter} sweeps")
        gamma, w = nxt, w_next
        out.append(gamma)
    return times, np.stack(out)
