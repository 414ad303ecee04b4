"""Compact operators in the spectral basis: conjugation by the oscillator
flow, Schatten norms, densities and their degree-shell parts, the
time-averaged operator of the dual functional from the potential's time
harmonics, and mixed position-momentum operators.

Everything is dense: operators are square matrices A with entries
A_{mu nu} = <A phi_nu, phi_mu>_kappa in the truncated orthonormal basis, and
Schatten norms come from full SVDs.  The momentum operator is p = -iT (T the
Dunkl gradient).  As i[H, x_j] = 2 p_j and i[H, p_j] = -2 x_j, the oscillator
flow rotates phase space,

    e^{-itH} f(x) e^{itH} = f(x cos 2t - p sin 2t),

so every f(alpha x + beta p) is one oscillator conjugate of a multiplication
operator.  It is exact in the truncated basis: the projection onto the box
commutes with H, so conjugating the projected f(r x) is projecting the
conjugated one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermite import HermiteBasis
from .quadrature import weighted_lp_norm

__all__ = [
    "OrthonormalSystem",
    "conjugate",
    "schatten_norm",
    "multiplication_matrix",
    "density",
    "shell_densities",
    "time_averaged_operator",
    "mixed_xp_operator",
    "kss_check",
]


@dataclass
class OrthonormalSystem:
    """Orthonormal family f_j with occupation coefficients n_j; row j of
    ``states`` holds the spectral coefficients of f_j."""

    basis: HermiteBasis
    states: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.states.shape[1:] != (self.basis.size,):
            raise ValueError(
                f"expected (J, {self.basis.size}) states, got {self.states.shape}"
            )
        if len(self.states) != self.coeffs.size:
            raise ValueError(
                f"{len(self.states)} states but {self.coeffs.size} coefficients"
            )
        gram = self.states.conj() @ self.states.T
        dev = np.abs(gram - np.eye(len(self.states))).max(initial=0.0)
        if dev > 1e-10:
            raise ValueError(f"system is not orthonormal (Gram deviation {dev:.3e})")


def conjugate(basis: HermiteBasis, a, t) -> np.ndarray:
    """e^{-itH} A e^{itH} for H the oscillator, with A a matrix in the basis.

    Exact: entry (mu, nu) is multiplied by e_mu conj(e_nu) with
    e = e^{-it lambda}.  A multiplication operator f(x) goes to
    f(x cos 2t - p sin 2t), a rotation of phase space by the angle -2t.  An
    array of times gives one conjugate per time on a leading axis, of one
    matrix or of a matching stack.
    """
    phase = np.exp(-1j * np.asarray(t)[..., None] * basis.eigenvalues)
    return (phase[..., :, None] * a) * phase.conj()[..., None, :]


def schatten_norm(a, p):
    """Schatten p-norm (sum of sigma^p)^{1/p}; p = inf gives the largest
    singular value.  A (T, M, M) stack gives one norm per matrix.  A 1-D
    sequence of exponents gives one norm per exponent, on a leading axis,
    all from one SVD."""
    exponents = np.asarray(p, dtype=float)
    if exponents.ndim > 1 or not np.all(exponents >= 1):
        raise ValueError(f"Schatten exponent must be >= 1 or inf, got {p}")
    sigma = np.linalg.svd(a, compute_uv=False)

    def norm(pk):
        if np.isinf(pk):
            norms = np.max(sigma, axis=-1, initial=0.0)
        else:
            norms = np.sum(sigma**pk, axis=-1) ** (1.0 / pk)
        return float(norms) if norms.ndim == 0 else norms

    if exponents.ndim == 0:
        return norm(p)
    return np.array([norm(pk) for pk in exponents.tolist()])


def multiplication_matrix(basis: HermiteBasis, samples) -> np.ndarray:
    """Matrix of multiplication by V from its samples on the basis grid.

    Exact when V times two basis functions is integrated exactly by the grid
    rule, i.e. for polynomially-bounded V of modest degree.  Samples of shape
    (T, K) give a (T, M, M) stack, one matrix per row.
    """
    samples = np.asarray(samples)
    if samples.ndim not in (1, 2) or samples.shape[-1] != basis.grid.npoints:
        raise ValueError(
            f"expected {basis.grid.npoints} samples per row, got {samples.shape}"
        )
    weighted = basis.eval_table * (basis.grid.weights * samples)[..., None, :]
    return weighted @ basis.eval_table.T


def density(basis: HermiteBasis, a, points=None) -> np.ndarray:
    """Samples of rho_A(x) = sum_{mu nu} A_{mu nu} phi_mu(x) phi_nu(x).

    On the basis grid by default; real part returned (exact for self-adjoint
    A since the basis is real).  A (T, M, M) stack gives (T, K) samples.  The
    table T of basis values is real, so
    Re sum_{mu nu} A_{mu nu} T_{mu k} T_{nu k} = sum_mu ((Re A) T)_{mu k} T_{mu k}:
    one real matrix product and a column sum.
    """
    table = basis.eval_table if points is None else basis.evaluate(points)
    return ((np.real(a) @ table) * table).sum(axis=-2)


def _degree_shells(basis: HermiteBasis):
    """(degree, top, shells): the total degree |mu| of each basis row, the
    largest one, and the slice of rows of each shell |mu| = 0..top.  The
    shells are contiguous only when the basis is ordered by total degree."""
    degree = basis.multi_indices.sum(axis=1)
    if np.any(np.diff(degree) < 0):
        raise ValueError("basis multi-indices must be ordered by total degree")
    top = int(degree[-1])
    return degree, top, [slice(*np.searchsorted(degree, [a, a + 1])) for a in range(top + 1)]


def shell_densities(basis: HermiteBasis, a) -> np.ndarray:
    """G_n = sum over |mu| - |nu| = n of A_{mu nu} phi_mu phi_nu on the basis
    grid, n = -top..top: shape (2 top + 1, K), complex.

    The adjoint of the shell blocks of ``time_averaged_operator``: as the
    flow multiplies entry (mu, nu) by e^{-2it(|mu| - |nu|)}, the density of
    e^{-itH} A e^{itH} is Re sum_n e^{-2int} G_n at every t, from one M^2 K
    pass.
    """
    a = np.asarray(a)
    if a.shape != (basis.size, basis.size):
        raise ValueError(f"expected a {basis.size} x {basis.size} operator, got {a.shape}")
    _, top, shells = _degree_shells(basis)
    table = basis.eval_table
    g = np.zeros((2 * top + 1, basis.grid.npoints), dtype=complex)
    for i, rows in enumerate(shells):
        for j, cols in enumerate(shells):
            # real and imaginary parts apart: a complex block would copy the table to complex
            block = a[rows, cols]
            g.real[top + i - j] += ((block.real @ table[cols]) * table[rows]).sum(axis=0)
            g.imag[top + i - j] += ((block.imag @ table[cols]) * table[rows]).sum(axis=0)
    return g


def time_averaged_operator(basis: HermiteBasis, time_nodes, v_samples) -> np.ndarray:
    """B = integral over t of e^{itH} V(t,.) e^{-itH} dt, as a dense matrix.

    ``v_samples`` (T, K) samples V on the basis grid at the nodes of the time
    rule (t, tau); the Schatten-2q' norm of B is the dual functional.  As
    lambda_mu = 2|mu| + d_eff, B_{mu nu} = sum_k w_k phi_mu(x_k) phi_nu(x_k)
    V_{|mu|-|nu|}(x_k) over the grid (w the grid weights) with time harmonics
    V_n = sum_t tau_t e^{2int} V_t, |n| <= max |mu|: one product over the T
    nodes, then B by blocks of degree shells, M^2 K work, not T M^2 K.
    """
    t, tau = (np.asarray(v, dtype=float) for v in time_nodes)
    if t.ndim != 1 or t.shape != tau.shape or not np.isfinite(t + tau).all():
        raise ValueError("time nodes and weights must be finite, 1-D and of equal length")
    v_samples = np.asarray(v_samples)
    if v_samples.shape != (t.size, basis.grid.npoints):
        raise ValueError(
            f"samples shape {v_samples.shape} does not match {t.size} x {basis.grid.npoints}"
        )
    if not np.all(np.isfinite(v_samples)):
        raise ValueError("non-finite potential samples")
    _, top, shells = _degree_shells(basis)
    phases = tau * np.exp(2j * np.outer(np.arange(-top, top + 1), t))
    # real and imaginary phases apart: a complex product would copy V to complex
    harmonics = (phases.real @ v_samples + 1j * (phases.imag @ v_samples)) * basis.grid.weights
    table = basis.eval_table
    b = np.empty((basis.size, basis.size), dtype=complex)
    for a, rows in enumerate(shells):
        for c, cols in enumerate(shells):
            b[rows, cols] = (table[rows] * harmonics[top + a - c]) @ table[cols].T
    return b


def mixed_xp_operator(basis: HermiteBasis, f, alpha: float, beta: float) -> np.ndarray:
    """Matrix of f(alpha x + beta p) with p = -iT, for a profile f on R^d.

    ``f`` maps point arrays (n, d) -- or flat arrays when d = 1 -- to values.
    Write alpha + i beta = r e^{i theta}, with r = hypot(alpha, beta) and
    theta = arctan2(beta, alpha) in [-pi, pi].  Then alpha x + beta p =
    r (x cos theta + p sin theta) is the oscillator conjugate of r x at
    t = -theta / 2, so the operator is ``conjugate`` of the multiplication by
    f(r x) at that time, exact in the truncated basis.  theta = 0 is the
    plain multiplication operator; at theta = pi/2 the flow sends phi_mu to
    (-i)^{|mu|} phi_mu up to a global phase, the Dunkl transform on the
    basis, which turns f(x) into f(p).
    """
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("alpha and beta cannot both vanish")
    samples = np.asarray(f(np.hypot(alpha, beta) * basis.grid.nodes), dtype=complex)
    theta = np.arctan2(beta, alpha)
    return conjugate(basis, multiplication_matrix(basis, samples), -theta / 2.0)


def kss_check(basis, f, g, alpha, beta, gamma, delta, r):
    """Schatten-r norm of f(alpha x + beta p) g(gamma x + delta p) against the
    scaling bound M_kappa^{2/r} ||f||_r ||g||_r / |alpha delta - beta gamma|^{d_eff/r}.

    Returns (lhs, rhs); r = inf uses sup-norms on the grid and no determinant
    factor.
    """
    det = alpha * delta - beta * gamma
    if det == 0.0:
        raise ValueError("degenerate symplectic determinant")
    a = mixed_xp_operator(basis, f, alpha, beta)
    b = mixed_xp_operator(basis, g, gamma, delta)
    lhs = schatten_norm(a @ b, r)
    s = basis.structure
    grid = basis.grid
    fv = np.asarray(f(grid.nodes))
    gv = np.asarray(g(grid.nodes))
    rhs = (
        s.m_kappa ** (2.0 / r)
        * weighted_lp_norm(grid, fv, r)
        * weighted_lp_norm(grid, gv, r)
        / np.abs(det) ** (s.d_eff / r)
    )
    return lhs, rhs
