"""Gaussian quadrature for integrals against |x|^{2 kappa} dx.

A rule of order n is built from the generalized Gauss-Laguerre rule with
parameter alpha = kappa - 1/2 through u = x^2, giving 2n symmetric nodes; its
weights have the Gaussian divided back out, so that sum_k w_k f(x_k)
integrates f |x|^{2 kappa} dx exactly when f is an even polynomial of degree
<= 4n - 2 times e^{-sigma x^2}.  The Laguerre rule is computed with numpy
alone (Golub-Welsch, Math. Comp. 23, 1969), for orders 1 to 400.  A tensor
grid is the product of the per-dimension rules: its weights integrate against
h_kappa^2 dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .structure import DunklStructure

__all__ = [
    "TensorGrid",
    "plain_rule",
    "tensor_grid",
    "weighted_lp_norm",
    "mixed_norm",
    "time_grid",
]


# The Jacobi matrix is dense, n x n: this bounds what a config can ask for,
# far above the orders any command uses.
_MAX_ORDER = 400


def plain_rule(kappa: float, n: int, sigma: float = 1.0):
    """Order-n rule for integrals of f |x|^{2 kappa} dx: 2n nodes in +/- pairs.

    Exact whenever f = polynomial * exp(-sigma x^2) of degree <= 4n - 2; pick
    sigma to match the decay of the integrand.  Returns (nodes, weights).
    """
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if n > _MAX_ORDER:
        raise ArithmeticError(f"order {n} is above the largest supported order {_MAX_ORDER}")
    # Golub-Welsch for u^alpha e^{-u} du, alpha = kappa - 1/2: the orthonormal
    # Laguerre polynomials satisfy b_{j+1} q_{j+1} = (u - a_j) q_j - b_j q_{j-1}
    # with a_j = 2j + alpha + 1 and b_j = sqrt(j (j + alpha)), the nodes are the
    # eigenvalues of their Jacobi matrix, and the weights are the Christoffel
    # numbers 1 / sum_j q_j(u)^2.  That sum grows like e^u, so the recurrence is
    # rescaled by a power of two at each step and the weights stay logarithms:
    # the plain weights e^u w / 2 neither overflow nor underflow at any order.
    alpha = kappa - 0.5
    k = np.arange(n)
    a = 2.0 * k + alpha + 1.0
    b = np.sqrt(k * (k + alpha))  # b[0] = 0
    u = np.linalg.eigvalsh(np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1))
    prev, cur, total, exponent = np.zeros(n), np.ones(n), np.ones(n), np.zeros(n)
    for j in range(1, n):
        prev, cur = cur, ((u - a[j - 1]) * cur - b[j - 1] * prev) / b[j]
        _, e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        prev, cur, total = np.ldexp(prev, -e), np.ldexp(cur, -e), np.ldexp(total, -2 * e)
        exponent += e
        total += cur * cur
    # q_0 = Gamma(alpha + 1)^{-1/2}; the 1/2 maps the rule from u to x = +/-sqrt(u)
    log_half = math.lgamma(alpha + 1.0) - np.log(2.0 * total) - 2.0 * math.log(2.0) * exponent
    with np.errstate(over="ignore"):  # kappa above ~120: raised below
        half = np.exp(log_half + u)
    r = np.sqrt(u)
    nodes = np.concatenate([-r[::-1], r])
    weights = np.concatenate([half[::-1], half])
    if not np.all(np.isfinite(weights)):
        raise ArithmeticError(f"weights overflow for kappa={kappa}, n={n}")
    return nodes * (1.0 / np.sqrt(sigma)), weights * sigma ** (-(kappa + 0.5))


@dataclass(frozen=True)
class TensorGrid:
    """Full tensor product of per-dimension rules, in row-major order: the
    last coordinate varies fastest."""

    orders: tuple[int, ...]  # rule order per dimension
    nodes: np.ndarray        # (K, d)
    weights: np.ndarray      # (K,), integrate against h^2 dx

    @property
    def npoints(self) -> int:
        return self.nodes.shape[0]


def tensor_grid(s: DunklStructure, orders) -> TensorGrid:
    """Product of the ``plain_rule``s of each dimension, exact for
    polynomial * exp(-|x|^2); one order broadcasts to every dimension."""
    orders = [int(o) for o in np.atleast_1d(orders)]
    if len(orders) == 1:
        orders = orders * s.d
    if len(orders) != s.d:
        raise ValueError(f"need {s.d} orders, got {len(orders)}")
    nodes, weights = zip(*(plain_rule(k, n) for k, n in zip(s.kappa, orders)))

    def product(arrays):
        """(K, d) array of the per-dimension values at each node."""
        mesh = np.meshgrid(*arrays, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    return TensorGrid(tuple(orders), product(nodes), product(weights).prod(axis=-1))


def weighted_lp_norm(grid: TensorGrid, samples, p):
    """L^p_kappa norm of f from its node samples (Gaussian NOT pre-applied).

    The samples are plain values f(x_k); accuracy requires f to decay like
    exp(-c |x|^2).  p = inf returns the max over nodes.  Samples of shape
    (T, K) -- one function per time node -- give one norm per row.
    """
    samples = np.asarray(samples)
    if samples.ndim not in (1, 2) or samples.shape[-1] != grid.npoints:
        raise ValueError(f"expected {grid.npoints} samples per row, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite samples")
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    # one function is a one-row stack, so that both shapes run the same
    # array code: numpy's scalar and array powers may differ in the last bit
    a = np.abs(np.atleast_2d(samples))
    if np.isinf(p):
        norms = a.max(axis=-1)
    else:
        norms = np.sum(grid.weights * a**p, axis=-1) ** (1.0 / p)
    return float(norms[0]) if samples.ndim == 1 else norms


def mixed_norm(time_nodes, grid: TensorGrid, samples, p, q) -> float:
    """Mixed norm || ||F(t,.)||_{L^q_kappa} ||_{L^p_t}.

    ``time_nodes`` is a pair (t, tau) of node and weight arrays; ``samples``
    has shape (len(t), grid.npoints).
    """
    t, tau = (np.asarray(v, dtype=float) for v in time_nodes)
    samples = np.asarray(samples)
    if samples.shape != (t.size, grid.npoints):
        raise ValueError(f"samples shape {samples.shape} does not match {t.size} x {grid.npoints}")
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    inner = weighted_lp_norm(grid, samples, q)
    if np.isinf(p):
        return float(inner.max())
    return float(np.sum(tau * inner**p) ** (1.0 / p))


def time_grid(a: float, b: float, n: int, kind: str = "trapezoid"):
    """Uniform time nodes and weights on [a, b]: (t, tau)."""
    if kind == "trapezoid":
        if n < 2:
            raise ValueError(f"trapezoid rule needs at least 2 nodes, got {n}")
        t = np.linspace(a, b, n)
        tau = np.full(n, (b - a) / (n - 1))
        tau[0] *= 0.5
        tau[-1] *= 0.5
    elif kind == "simpson":
        if n < 3 or n % 2 == 0:
            raise ValueError(f"composite Simpson needs an odd node count >= 3, got {n}")
        t = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        tau = np.full(n, 2.0 * h / 3.0)
        tau[1::2] = 4.0 * h / 3.0
        tau[0] = tau[-1] = h / 3.0
    elif kind == "midpoint":
        if n < 1:
            raise ValueError(f"midpoint rule needs at least 1 node, got {n}")
        h = (b - a) / n
        t = a + h * (np.arange(n) + 0.5)
        tau = np.full(n, h)
    else:
        raise ValueError(f"unknown time grid kind {kind!r}")
    return t, tau
