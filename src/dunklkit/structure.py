"""Reflection-group data for Z2^d and the rank-one Dunkl kernel.

The reflection group is fixed to Z2^d (coordinate sign flips), for which the
Dunkl kernel factorizes over coordinates and each factor has the closed form

    E_kappa(a, y) = 0F1(; kappa + 1/2; (a y)^2 / 4)
                    + (a y) / (2 kappa + 1) * 0F1(; kappa + 3/2; (a y)^2 / 4),

equivalently e^{ay} 1F1(kappa; 2 kappa + 1; -2 a y), equivalently a
normalized-Bessel combination.  Two evaluation routes are kept: the entire
power series (accurate while the argument stays away from the oscillatory
regime) and the Bessel route for large oscillatory arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DunklStructure",
    "as_points",
    "dunkl_kernel_1d",
]


@dataclass(frozen=True)
class DunklStructure:
    """Dimension, Z2^d multiplicity vector, and derived constants."""

    d: int
    kappa: tuple[float, ...]
    gamma_kappa: float = field(init=False)
    m_kappa: float = field(init=False)

    def __post_init__(self):
        kappa = tuple(float(k) for k in np.atleast_1d(np.asarray(self.kappa, dtype=float)))
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if len(kappa) != self.d:
            raise ValueError(f"need {self.d} multiplicities, got {len(kappa)}")
        if not all(0.0 <= k < np.inf for k in kappa):
            raise ValueError(f"multiplicities must be finite and non-negative: {kappa}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "gamma_kappa", float(sum(kappa)))
        m = 1.0
        for k in kappa:
            try:
                m /= 2.0 ** (k + 0.5) * math.gamma(k + 0.5)
            except OverflowError:
                raise ValueError(f"multiplicity {k} is too large: M_kappa overflows") from None
        object.__setattr__(self, "m_kappa", m)

    @property
    def d_eff(self) -> float:
        """Effective dimension d + 2 gamma_kappa."""
        return self.d + 2.0 * self.gamma_kappa


def as_points(s: DunklStructure, x) -> np.ndarray:
    """Canonical point array: for d = 1 plain values get a coordinate axis."""
    x = np.asarray(x, dtype=float)
    if s.d == 1:
        return x[..., None]
    if x.ndim == 0 or x.shape[-1] != s.d:
        raise ValueError(f"point has wrong dimension for d={s.d}: shape {x.shape}")
    return x


# Switchover between the power series and the Bessel route.  Both split the
# kernel into even/odd parts of size ~e^|z|, so the series (max term ~e^|z|)
# is restricted to |z| <= 8 to keep cancellation below ~e^16 * eps; the Bessel
# route's pieces scale like e^|Re z|, matching the result, so it is accurate
# for large arguments.  The radius grows to sqrt(4 kappa + 2) for kappa > 15.5:
# inside it |z^2 / 4| <= kappa + 1/2, so the 0F1 terms fall from the first one
# on and nothing cancels, while J_{kappa + 1/2} can underflow there (at
# kappa = 300 from |z| ~ 9).  kappa = 0 collapses to the exponential exactly.
_SERIES_RADIUS = 8.0
_MAX_TERMS = 600


def _hyp0f1(b: float, q: np.ndarray) -> np.ndarray:
    """0F1(; b; q), vectorized plain power series (entire in q)."""
    q = np.asarray(q, dtype=complex)
    term = np.ones_like(q)
    total = np.ones_like(q)
    for n in range(1, _MAX_TERMS):
        term = term * q / (n * (b + n - 1.0))
        total = total + term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1.0)):
            break
    return total


def _kernel_series(kappa: float, z: np.ndarray) -> np.ndarray:
    q = z * z / 4.0
    return _hyp0f1(kappa + 0.5, q) + z / (2.0 * kappa + 1.0) * _hyp0f1(kappa + 1.5, q)


def _normalized_bessel_pair(kappa: float, w: np.ndarray):
    """(j_{kappa-1/2}(w), j_{kappa+1/2}(w)) with j_a(w)=Gamma(a+1)(2/w)^a J_a(w).

    Both are even entire functions of w; w is flipped into Re w >= 0 so the
    principal-branch powers never straddle the cut.  Orders stay >= 1/2 by
    computing J_{kappa-1/2} from the downward three-term recurrence.  The
    factors Gamma(a + 1) (2/w)^a overflow for large kappa while J_a underflows,
    so they come from lgamma and a logarithm; where J_a itself underflows
    (kappa far above |w|) the route raises ArithmeticError.
    """
    # importing scipy.special more than doubles the start-up time of every
    # command, and only this route needs it
    from scipy.special import jv

    flip = (w.real < 0) | ((w.real == 0) & (w.imag < 0))
    w = np.where(flip, -w, w)
    nu = kappa + 0.5
    j_nu = jv(nu, w)
    j_nu_p1 = jv(nu + 1.0, w)
    tiny = np.finfo(float).tiny
    lost = (np.abs(j_nu) < tiny) | (np.abs(j_nu_p1) < tiny)
    if np.any(lost):
        raise ArithmeticError(
            f"Bessel route underflows for kappa={kappa} at |z|={np.abs(w[lost]).min():.4g}"
        )
    j_nu_m1 = (2.0 * nu / w) * j_nu - j_nu_p1
    # Gamma(nu) (2/w)^(nu - 1), as the square of its root so that neither
    # factor overflows where the product with J does not
    root = np.exp(0.5 * (math.lgamma(nu) + (nu - 1.0) * np.log(2.0 / w)))
    lo = root * j_nu_m1 * root
    hi = root * (nu * (2.0 / w) * j_nu) * root
    return lo, hi


def _kernel_bessel(kappa: float, z: np.ndarray) -> np.ndarray:
    w = 1j * z
    lo, hi = _normalized_bessel_pair(kappa, w)
    return lo + z / (2.0 * kappa + 1.0) * hi


def dunkl_kernel_1d(kappa: float, a, y) -> np.ndarray | complex:
    """Rank-one Dunkl kernel E_kappa(a, y) for the group Z2.

    Entire in both arguments; E_0(a, y) = exp(a y), E_kappa(0, y) = 1 and
    |E_kappa(i x, y)| <= 1 for real x, y.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    z = np.asarray(np.asarray(a, dtype=complex) * np.asarray(y, dtype=complex))
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if kappa == 0.0:
        out = np.exp(z)
        return complex(out[0]) if scalar else out
    out = np.empty_like(z)
    series = np.abs(z) <= max(_SERIES_RADIUS, math.sqrt(4.0 * kappa + 2.0))
    if np.any(series):
        out[series] = _kernel_series(kappa, z[series])
    if np.any(~series):
        out[~series] = _kernel_bessel(kappa, z[~series])
    return complex(out[0]) if scalar else out


def _kernel_product(s: DunklStructure, a, x: np.ndarray, y: np.ndarray):
    """Product kernel E_kappa(a x, y) = prod_j E_{kappa_j}(a x_j, y_j) on Z2^d;
    x, y canonical point arrays (last axis = coordinate), broadcast across
    leading axes."""
    out = None
    for j, k in enumerate(s.kappa):
        factor = dunkl_kernel_1d(k, np.asarray(a, dtype=complex) * x[..., j], y[..., j])
        out = factor if out is None else out * factor
    return out
