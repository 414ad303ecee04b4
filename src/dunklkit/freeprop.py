"""Heat/free-Schrodinger kernels and the lens route for e^{it Laplacian}.

The lens identity links the two propagators: with v = tan 2t,

    K_{i arctan(v)/2}(x, y)
        = (1 + v^2)^{(d + 2 gamma)/4} e^{-i v |x|^2 / 2} L_{i v/2}(x sqrt(1 + v^2), y),

so the free evolution at time v/2 is a dilation + quadratic phase of the
harmonic-oscillator evolution at time arctan(v)/2.  The free flow of a state
is realized through this identity (exact in the truncated basis); quadrature
against ``kernel_Lit`` (``hermite.kernel_quadrature``) is the independent
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermite import HermiteBasis, _kernel_body, kernel_Kit, propagated_density
from .quadrature import time_grid, weighted_lp_norm
from .structure import DunklStructure, as_point_list, as_points

__all__ = [
    "LensMap",
    "heat_kernel",
    "kernel_Lit",
    "lens_relation_residual",
    "free_evolve_via_lens",
    "norm_transport_check",
]


@dataclass(frozen=True)
class LensMap:
    """Change of variables v = tan 2t between free and oscillator time."""

    v: float
    d_eff: float
    t_hermite: float = field(init=False)
    scale: float = field(init=False)
    amplitude: float = field(init=False)

    def __post_init__(self):
        if self.v <= 0:
            raise ValueError(f"lens parameter must be positive, got {self.v}")
        object.__setattr__(self, "t_hermite", 0.5 * np.arctan(self.v))
        object.__setattr__(self, "scale", float(np.sqrt(1.0 + self.v**2)))
        object.__setattr__(self, "amplitude", float((1.0 + self.v**2) ** (self.d_eff / 4.0)))

    @property
    def t_free(self) -> float:
        return 0.5 * self.v


def heat_kernel(s: DunklStructure, t: float, x, y):
    """Heat kernel of the Dunkl Laplacian; strictly positive for Z2^d."""
    if t <= 0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    return np.real_if_close(_kernel_body(s, 2.0 * t, 1.0, 1.0, x, y), tol=100)


def kernel_Lit(s: DunklStructure, t: float, x, y):
    """Kernel of e^{it Laplacian} for t != 0 (principal-branch power)."""
    if t == 0:
        raise ValueError("free Schrodinger kernel undefined at t = 0")
    return _kernel_body(s, 2j * t, 1.0, 1.0, x, y)


def lens_relation_residual(s: DunklStructure, v: float, x, y) -> float:
    """|K_{i arctan(v)/2}(x,y) - lens-transformed L_{iv/2}| (absolute)."""
    lens = LensMap(v, s.d_eff)
    x = np.asarray(x, dtype=float)
    lhs = kernel_Kit(s, lens.t_hermite, x, y)
    xp = as_points(s, x)
    phase = np.exp(-0.5j * lens.v * (xp * xp).sum(axis=-1))
    rhs = lens.amplitude * phase * kernel_Lit(s, lens.t_free, lens.scale * x, y)
    return np.abs(lhs - rhs)


def free_evolve_via_lens(basis: HermiteBasis, coeffs, v: float, x_eval) -> np.ndarray:
    """(e^{i(v/2) Laplacian} u)(x_eval) through the lens identity, for the
    state u with (M,) coefficients ``coeffs`` (a (J, M) stack gives one row
    of values per state): the oscillator phase at arctan(v)/2 on the
    contracted points x_eval / scale, times the lens phase and divided by
    the lens amplitude."""
    pts = as_point_list(basis.structure, x_eval)
    lens = LensMap(v, basis.structure.d_eff)
    inner = basis.evaluate(pts / lens.scale)
    phase = np.exp(0.5j * lens.v / (1.0 + lens.v**2) * (pts * pts).sum(axis=-1))
    spect = np.exp(-1j * lens.t_hermite * basis.eigenvalues)
    return coeffs @ ((spect[:, None] * inner) * phase / lens.amplitude)


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

    def phi_p(times):
        dens = propagated_density(basis, coeffs[None], np.ones(1), times)
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
