"""The free Schrodinger flow e^{i tau Laplacian} of a state by the lens route,
its matrix in the truncated basis, and the time-norm transport between the
free and oscillator flows: the oracles for the free flow.

The lens identity (see ``freeprop``) makes the free evolution at time v/2 a
dilation and quadratic phase of the oscillator evolution at arctan(v)/2,
exact in the truncated basis.  Column mu of the matrix holds the
coefficients of e^{i tau Laplacian} phi_mu, projected back onto the basis by
a Gauss rule.  The flow dilates degrees, so the columns near the truncation
edge lose norm; only interior blocks are exact.
"""

from __future__ import annotations

import numpy as np

from dunklkit import (
    HermiteBasis,
    LensMap,
    density,
    tensor_grid,
    time_grid,
    weighted_lp_norm,
)

from shell_oracle import as_point_list, evaluate


def free_evolve_via_lens(basis: HermiteBasis, coeffs, v: float, x_eval) -> np.ndarray:
    """(e^{i(v/2) Laplacian} u)(x_eval) through the lens identity, for the
    state u with (M,) coefficients ``coeffs`` (a (J, M) stack gives one row
    of values per state): the oscillator phase at arctan(v)/2 on the
    contracted points x_eval / scale, times the lens phase and divided by
    the lens amplitude."""
    pts = as_point_list(basis.structure, x_eval)
    lens = LensMap(v, basis.structure.d_eff)
    inner = evaluate(basis, pts / lens.scale)
    phase = np.exp(0.5j * lens.v / (1.0 + lens.v**2) * (pts * pts).sum(axis=-1))
    spect = np.exp(-1j * lens.t_hermite * basis.eigenvalues)
    return coeffs @ ((spect[:, None] * inner) * phase / lens.amplitude)


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
    return (evaluate(basis, grid.nodes) * grid.weights) @ columns.T


def norm_transport_check(basis: HermiteBasis, coeffs, p: float, q: float, n_time: int = 256):
    """Two-route check of the time-norm identity between the two flows, for
    the state u with (M,) coefficients ``coeffs``.

    lhs: integral over (0, pi/4) of || |e^{-itH} u|^2 ||_{L^q_kappa}^p dt via
    the spectral path.  rhs: the same quantity for the free flow over
    (0, inf), computed through the substitution v = tan 2t with the free-side
    norms evaluated on dilated grids.  Also returns the (-pi, pi) vs
    4 x (-pi/4, pi/4) window ratio for the oscillator side.
    """
    s = basis.structure
    grid = basis.grid
    t, tau = time_grid(1e-9, np.pi / 4.0 - 1e-9, n_time)

    top = s.d * basis.per_dim_degree
    a = np.outer(coeffs, np.conj(coeffs))

    def phi_p(times):
        # the phases e^{-2int} of the density of e^{-itH} A e^{itH}
        dens = density(basis, a, np.exp(-2j * np.outer(times, np.arange(-top, top + 1))))
        return weighted_lp_norm(grid, dens, q) ** p

    lhs = float(np.sum(tau * phi_p(t)))

    rhs = 0.0
    # one node at a time: the dilated points change at every node
    for tv, tw in zip(t, tau):
        v = np.tan(2.0 * tv)
        lens = LensMap(v, s.d_eff)
        # free-side density evaluated on the dilated grid x -> s x; the
        # L^q_kappa norm picks up the Jacobian scale^{d + 2 gamma}
        vals = free_evolve_via_lens(basis, coeffs, v, lens.scale * grid.nodes)
        dens = np.abs(vals) ** 2
        qnorm = weighted_lp_norm(grid, dens, q) * lens.scale ** (s.d_eff / q)
        jac = lens.scale**2  # dv/dt = 2(1 + v^2) combined with tau_free = v/2
        rhs += tw * jac * qnorm**p

    t4, tau4 = time_grid(-np.pi + 1e-9, np.pi - 1e-9, 4 * n_time)
    full = float(np.sum(tau4 * phi_p(t4)))
    tq, tauq = time_grid(-np.pi / 4 + 1e-9, np.pi / 4 - 1e-9, n_time)
    quarter = float(np.sum(tauq * phi_p(tq)))
    return lhs, float(rhs), full, 4.0 * quarter
