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
    "lp_norm",
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

    @property
    def axes(self) -> tuple:
        """The nodes of each dimension's rule: those of axis j are the points
        at position 0 on every other axis, one every prod(sizes[j + 1:])
        points, with 2 orders[j] nodes per axis."""
        sizes = [2 * order for order in self.orders]
        strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
        return tuple(self.nodes[:size * stride:stride, j]
                     for j, (size, stride) in enumerate(zip(sizes, strides)))


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


def lp_norm(values, weights, p):
    """(sum w |v|^p)^{1/p} over the last axis of ``values``, weights ``w``
    broadcast against it; p = inf gives max |v|.  A stack gives one norm per
    row, a 1-D sequence of exponents one norm per exponent on a leading axis.

    Each row is scaled by its largest |v|, m (sum w (|v|/m)^p)^{1/p}, so no p
    overflows, and every finite exponent comes from one log(|v|/m): one
    ``exp`` of p log(|v|/m) per exponent into one reused work array.  When
    every exponent is inf, the row maxima are the norms, and no log is taken;
    for real floats they are max(max v, -min v), read without forming |v|.
    """
    exponents = _exponents(p)
    flat = np.atleast_1d(exponents).tolist()
    finite = [(k, pk) for k, pk in enumerate(flat) if not math.isinf(pk)]
    # one row is a one-row stack, so that both shapes run the same array
    # code: numpy's scalar and array powers may differ in the last bit
    a = np.atleast_2d(values)
    if finite or a.dtype.kind != "f":
        a = np.abs(a).astype(float, copy=False)
        top = a.max(axis=-1)
    else:
        # abs turns the max of a row of zeros into +0, as max |v| is
        top = np.abs(np.maximum(a.max(axis=-1), -a.min(axis=-1))).astype(float, copy=False)
    norms = np.array([top] * len(flat))
    if finite:
        scale = np.where(top > 0, top, 1.0)
        a /= scale[..., None]
        with np.errstate(divide="ignore"):  # log 0 = -inf, and e^{-inf} = 0
            log_a = np.log(a, out=a)
        work = np.empty_like(log_a)
        for k, pk in finite:
            with np.errstate(over="ignore"):  # p log(|v|/m) = -inf, and e^{-inf} = 0
                np.multiply(log_a, pk, out=work)
            np.exp(work, out=work)
            work *= weights
            norms[k] = scale * work.sum(axis=-1) ** (1.0 / pk)
    if np.ndim(values) == 1:
        norms = norms[:, 0]
    if exponents.ndim == 0:
        return norms[0] if norms.ndim > 1 else float(norms[0])
    return norms


def weighted_lp_norm(grid: TensorGrid, samples, p):
    """L^p_kappa norm of f from its plain node samples f(x_k), one per row of
    (T, K) samples: ``lp_norm`` with the grid weights.  Accuracy requires f
    to decay like exp(-c |x|^2)."""
    samples = np.asarray(samples)
    if samples.ndim not in (1, 2) or samples.shape[-1] != grid.npoints:
        raise ValueError(f"expected {grid.npoints} samples per row, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite samples")
    return lp_norm(samples, grid.weights, p)


def mixed_norm(time_nodes, grid: TensorGrid, samples, p, q):
    """Mixed norm || ||F(t,.)||_{L^q_kappa} ||_{L^p_t}.

    ``time_nodes`` is a pair (t, tau) of node and weight arrays; ``samples``
    has shape (len(t), grid.npoints).  p and q are scalars, or equal-length
    1-D arrays with one norm per pair, all inner norms from one
    ``weighted_lp_norm`` and all time norms from one ``lp_norm`` with
    weights tau.
    """
    t, tau = (np.asarray(v, dtype=float) for v in time_nodes)
    samples = np.asarray(samples)
    if samples.shape != (t.size, grid.npoints):
        raise ValueError(f"samples shape {samples.shape} does not match {t.size} x {grid.npoints}")
    p_arr, q_arr = _exponents(p), np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ValueError(f"p and q must be scalars or equal-length 1-D arrays, "
                         f"got shapes {p_arr.shape} and {q_arr.shape}")
    # every time norm of every inner row in one call; pair k is entry (k, k)
    inner = weighted_lp_norm(grid, samples, np.atleast_1d(q_arr))
    norms = np.diagonal(lp_norm(inner, tau, np.atleast_1d(p_arr))).copy()
    return float(norms[0]) if p_arr.ndim == 0 else norms


def _exponents(p) -> np.ndarray:
    """p as a float array, a scalar or a 1-D sequence, each entry >= 1 or inf;
    the error names the first entry that is not."""
    exponents = np.asarray(p, dtype=float)
    if exponents.ndim > 1:
        raise ValueError(f"expected a scalar or a 1-D sequence of exponents, got {p}")
    bad = exponents[~(exponents >= 1)]
    if bad.size:
        raise ValueError(f"p must be >= 1 or inf, got {bad[0]}")
    return exponents


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
