"""Generalized (Dunkl) Hermite basis and the kernel of e^{-itH}.

One-dimensional functions come from the ladder of the Z2 oscillator: with
a_n = sqrt((n + 2 kappa [n odd]) / 2),

    x phi_n = a_{n+1} phi_{n+1} + a_n phi_{n-1},
    phi_0(x) = e^{-x^2/2} / sqrt(Gamma(kappa + 1/2)),

so phi_{n+1} = (x phi_n - a_n phi_{n-1}) / a_{n+1}.  The functions are
orthonormal in L^2 against |x|^{2 kappa} dx and their leading coefficients
are positive, so phi_n(x) > 0 as x -> +inf; d-dimensional functions are
tensor products over a box truncation mu_j <= N.  A basis keeps only the
1-D table of each axis at that axis's rule nodes: every sum over the grid
is contracted one axis at a time against them (``operators``), and no
(M, K) table of the d-dimensional functions is formed.  The n-th function
satisfies H phi = (2n + 1 + 2 kappa) phi in one dimension, hence eigenvalues
2|mu| + d + 2 gamma_kappa.  A state is its complex (M,) coefficient array in
a basis, and e^{-itH} multiplies it by e^{-it lambda_mu}.  The kernel of
e^{-itH} and that of the free flow (``freeprop.kernel_Lit``) share one
Mehler-type body, ``_kernel_body``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .quadrature import TensorGrid
from .structure import DunklStructure, _kernel_product, as_points

__all__ = [
    "SingularTimeError",
    "HermiteBasis",
    "build_basis",
    "hermite_functions_1d",
    "kernel_Kit",
]


class SingularTimeError(ValueError):
    """Kernel requested at t in (pi/2) Z, where (i sin 2t)^{-e} blows up."""

    def __init__(self, t: float, distance: float):
        self.t = t
        self.distance = distance
        super().__init__(
            f"kernel of e^(-itH) is singular at t={t!r} "
            f"(distance {distance:.3e} from the nearest multiple of pi/2)"
        )


def _ladder(kappa: float, nmax: int) -> np.ndarray:
    """Ladder coefficients a_n = sqrt((n + 2 kappa [n odd]) / 2), n = 0..nmax."""
    n = np.arange(nmax + 1)
    return np.sqrt(0.5 * (n + 2.0 * kappa * (n % 2)))


def hermite_functions_1d(kappa: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """Table phi_n(x) for n = 0..nmax, shape (nmax + 1, len(x))."""
    x = np.asarray(x, dtype=float)
    a = _ladder(kappa, nmax)
    out = np.empty((nmax + 1, x.size))
    out[0] = np.exp(-0.5 * x * x - 0.5 * math.lgamma(kappa + 0.5))
    if nmax >= 1:
        out[1] = x * out[0] / a[1]
    for n in range(1, nmax):
        out[n + 1] = (x * out[n] - a[n] * out[n - 1]) / a[n + 1]
    return out


def box_multi_indices(d: int, n: int) -> np.ndarray:
    """Box truncation mu_j <= n, ordered by total degree then lexicographic."""
    idx = sorted(_iproduct(range(n + 1), repeat=d), key=lambda mu: (sum(mu), mu))
    return np.asarray(idx, dtype=int)


@dataclass(frozen=True)
class HermiteBasis:
    """Truncated orthonormal generalized-Hermite basis with its per-axis tables."""

    structure: DunklStructure
    per_dim_degree: int
    grid: TensorGrid
    multi_indices: np.ndarray   # (M, d)
    eigenvalues: np.ndarray     # (M,) values 2|mu| + d + 2 gamma
    axis_tables: tuple          # per axis j, (N + 1, 2 order_j) phi_n at that axis's nodes

    @property
    def size(self) -> int:
        return self.multi_indices.shape[0]


def build_basis(s: DunklStructure, n_degree: int, grid: TensorGrid) -> HermiteBasis:
    if n_degree < 0:
        raise ValueError(f"n_degree must be non-negative, got {n_degree}")
    for order in grid.orders:
        if order < n_degree + 1:
            raise ValueError(
                f"grid order {order} too small for degree {n_degree}; need >= {n_degree + 1}"
            )
    mi = box_multi_indices(s.d, n_degree)
    eig = 2.0 * mi.sum(axis=1) + s.d_eff
    tables = tuple(hermite_functions_1d(k, n_degree, x) for k, x in zip(s.kappa, grid.axes))
    return HermiteBasis(s, int(n_degree), grid, mi, eig, tables)


def _kernel_body(s: DunklStructure, z: complex, c: complex, b: complex, x, y):
    """M_kappa z^{-d_eff/2} exp(-c (|x|^2 + |y|^2) / (2z)) E_kappa(b x / z, y),
    the Mehler-type form shared by the propagator kernels (principal-branch
    power)."""
    x = as_points(s, x)
    y = as_points(s, y)
    r2 = (x * x).sum(axis=-1) + (y * y).sum(axis=-1)
    pref = s.m_kappa * np.asarray(z, dtype=complex) ** (-0.5 * s.d_eff)
    return pref * np.exp(-c * r2 / (2.0 * z)) * _kernel_product(s, b / z, x, y)


def singular_time_distance(t: float) -> float:
    half = np.pi / 2.0
    return float(abs(t - half * np.round(t / half)))


def kernel_Kit(s: DunklStructure, t: float, x, y):
    """Kernel of e^{-itH} for t outside (pi/2) Z (principal-branch power)."""
    dist = singular_time_distance(t)
    if dist < 1e-10:
        raise SingularTimeError(t, dist)
    return _kernel_body(s, 1j * np.sin(2.0 * t), np.cos(2.0 * t), 1.0, x, y)
