"""Closed-form kernels and the kernel-quadrature oracle for both flows.

The Mehler generating kernel and the heat kernel share the Mehler-type body
of the propagator kernels (``hermite._kernel_body``).  ``kernel_quadrature``
applies any kernel to a state by a Gauss rule in y: it checks the spectral
e^{-itH} against ``kernel_Kit`` and the lens route of the free flow against
``freeprop.kernel_Lit``, independently of both.
"""

from __future__ import annotations

import numpy as np

from dunklkit import DunklStructure, HermiteBasis, plain_rule
from dunklkit.hermite import _kernel_body

from shell_oracle import evaluate


def mehler_closed_form(s: DunklStructure, w: complex, x, y):
    """Closed form of sum_mu phi_mu(x) phi_mu(y) w^{|mu|} for |w| < 1."""
    w = complex(w)
    if abs(w * w - 1.0) < 1e-14:
        raise ValueError(f"Mehler kernel undefined at w^2 = 1 (w={w!r})")
    return _kernel_body(s, 0.5 * (1.0 - w * w), 0.5 * (1.0 + w * w), w, x, y)


def heat_kernel(s: DunklStructure, t: float, x, y):
    """Heat kernel of the Dunkl Laplacian; strictly positive for Z2^d."""
    if t <= 0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    return np.real_if_close(_kernel_body(s, 2.0 * t, 1.0, 1.0, x, y), tol=100)


def kernel_quadrature(basis: HermiteBasis, coeffs, kernel, eval_points, order_factor: int = 6):
    """integral of kernel(x, y) v(y) h^2(y) dy at x in eval_points, by quadrature,
    for the state v with (M,) coefficients ``coeffs`` in ``basis``.

    ``kernel`` maps point arrays (x, y) to kernel values, e.g.
    ``lambda x, y: kernel_Kit(s, t, x, y)`` for e^{-itH} v or
    ``kernel_Lit`` for e^{it Laplacian} v.  d = 1 only, accurate for
    band-limited v and t not too close to the kernel's singular set.
    Integration uses a half-Gaussian-matched plain rule since the oscillatory
    kernels do not decay in y.
    """
    s = basis.structure
    if s.d != 1:
        raise NotImplementedError("kernel quadrature implemented for d = 1")
    n = order_factor * (basis.per_dim_degree + 2)
    ynodes, yweights = plain_rule(s.kappa[0], n, sigma=0.5)
    fvals = coeffs @ evaluate(basis, ynodes)
    pts = np.asarray(eval_points, dtype=float)
    kern = kernel(pts[:, None], ynodes[None, :])
    return kern @ (yweights * fvals)
