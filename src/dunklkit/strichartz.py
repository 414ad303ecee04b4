"""Orthonormal Strichartz functionals: mixed space-time norms of densities of
evolved orthonormal systems, the inhomogeneous (Duhamel) variant for sources
R(s) = r(s) R0, and the multilinear integral inequality with pairwise power
weights.

The time side lives on (-pi, pi) for the oscillator flow; the free flow is
integrated over the whole line through the substitution v = tan 2t, which
maps it onto (-pi/4, pi/4) with an explicit power of s(t) = sec 2t -- the
power vanishes exactly on the scaling line 2/p + d_eff/q = d_eff.  The
Duhamel integral goes by degree shells: the oscillator flow multiplies entry
(mu, nu) of an operator by a phase that depends on |mu| - |nu| alone, so for
a source of one fixed operator the integral over s is a scalar per shell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .hermite import HermiteBasis, propagated_density
from .operators import OrthonormalSystem, _degree_shells, schatten_norm, shell_densities
from .quadrature import mixed_norm, time_grid

__all__ = [
    "ExponentPair",
    "StrichartzReport",
    "admissible_p",
    "generate_system",
    "strichartz_lhs",
    "schatten_rhs",
    "run_inequality",
    "inhomogeneous_check",
    "mhls_check",
]


def admissible_p(q: float, d_eff: float) -> float:
    """p on the scaling line 2/p + d_eff/q = d_eff; q = 1 gives p = inf."""
    if not 1 <= q < np.inf:
        raise ValueError(f"q must be finite and >= 1, got {q}")
    if q == 1.0:
        return np.inf
    return 2.0 * q / (d_eff * (q - 1.0))


@dataclass(frozen=True)
class ExponentPair:
    """Exponents on the scaling line, with the admissibility window flag and
    the Schatten exponent alpha = 2q/(q+1) of the matching rhs."""

    q: float
    d_eff: float
    p: float = field(init=False)
    admissible: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", admissible_p(self.q, self.d_eff))
        window = (self.d_eff + 1.0) / (self.d_eff - 1.0) if self.d_eff > 1 else np.inf
        object.__setattr__(self, "admissible", bool(1.0 <= self.q < window))

    @property
    def alpha(self) -> float:
        return 2.0 * self.q / (self.q + 1.0)


@dataclass
class StrichartzReport:
    """One evaluation record: configuration echo plus lhs/rhs/ratio."""

    d: int
    kappa: tuple
    n_degree: int
    flow: str
    q: float
    p: float
    system_kind: str
    system_size: int
    seed: int
    lhs: float
    rhs: float
    ratio: float
    wall_time: float

    def as_dict(self) -> dict:
        return {**asdict(self), "kappa": " ".join(str(k) for k in self.kappa)}


def generate_system(
    basis: HermiteBasis,
    kind: str,
    j_count: int,
    seed: int = 0,
) -> OrthonormalSystem:
    """Deterministic orthonormal family of j_count states in the basis, each
    with occupation 1.

    kinds: ``basis_subset`` (the first j_count basis functions),
    ``haar_rotation`` (rows of a Haar-random unitary restricted to the
    lowest modes), ``gaussian_orthogonalized`` (QR of a complex Gaussian
    matrix over the full basis).
    """
    m = basis.size
    if j_count < 1:
        raise ValueError(f"system size must be at least 1, got {j_count}")
    if j_count > m:
        raise ValueError(f"system size {j_count} exceeds basis dimension {m}")
    rng = np.random.default_rng(seed)
    if kind == "basis_subset":
        c = np.eye(j_count, m, dtype=complex)
    elif kind == "haar_rotation":
        # rotate within the lowest 2*j_count modes so states stay band-limited
        span = min(2 * j_count, m)
        z = rng.normal(size=(span, span)) + 1j * rng.normal(size=(span, span))
        qmat, r = np.linalg.qr(z)
        qmat *= np.sign(np.diag(r).real)
        c = np.zeros((j_count, m), dtype=complex)
        c[:, :span] = qmat[:j_count]
    elif kind == "gaussian_orthogonalized":
        z = rng.normal(size=(m, j_count)) + 1j * rng.normal(size=(m, j_count))
        qmat, r = np.linalg.qr(z)
        qmat *= np.sign(np.diag(r).real)
        c = qmat.T
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    return OrthonormalSystem(basis, c, np.ones(j_count))


def strichartz_lhs(
    system: OrthonormalSystem,
    q,
    p,
    flow: str = "hermite",
    n_time: int = 256,
) -> float | np.ndarray:
    """|| sum_j n_j |e^{-itP} f_j|^2 ||_{L^p_t L^q_kappa}.

    Oscillator flow: t over (-pi, pi).  Free flow: the whole-line integral
    transformed onto (-pi/4, pi/4), each slice carrying the factor
    s^{2/p + d_eff(1/q - 1)} with s = sec 2t (identically 1 on the scaling
    line); the factor multiplies the slice's density, since the L^q norm is
    positively homogeneous.

    q and p are scalars or equal-length 1-D arrays, one pair per entry; an
    array pair gives one lhs per entry.  The evolved density does not depend
    on the exponents, so it is propagated once for all pairs.
    """
    q_arr, p_arr = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if q_arr.ndim > 1 or q_arr.shape != p_arr.shape:
        raise ValueError(f"q and p must be scalars or equal-length 1-D arrays, "
                         f"got shapes {q_arr.shape} and {p_arr.shape}")
    pairs = list(zip(np.atleast_1d(q_arr).tolist(), np.atleast_1d(p_arr).tolist()))
    basis = system.basis
    if flow == "hermite":
        t, tau = time_grid(-np.pi, np.pi, n_time)
        weights = [1.0] * len(pairs)
    elif flow == "laplacian":
        t, tau = time_grid(-np.pi / 4 + 1e-9, np.pi / 4 - 1e-9, n_time)
        sec = np.abs(1.0 / np.cos(2.0 * t))[:, None]
        d_eff = basis.structure.d_eff
        weights = [sec ** (2.0 / pk + d_eff * (1.0 / qk - 1.0)) for qk, pk in pairs]
    else:
        raise ValueError(f"unknown flow {flow!r}")
    rho = propagated_density(basis, system.states, system.coeffs, t)
    lhs = [mixed_norm((t, tau), basis.grid, w * rho, pk, qk)
           for w, (qk, pk) in zip(weights, pairs)]
    return lhs[0] if q_arr.ndim == 0 else np.array(lhs)


def schatten_rhs(coeffs, pair: ExponentPair) -> float:
    """l^alpha norm of the occupation coefficients, alpha = ``pair.alpha``."""
    n = np.abs(np.asarray(coeffs, dtype=complex))
    r = pair.alpha
    return float(np.sum(n**r) ** (1.0 / r))


def run_inequality(
    basis: HermiteBasis,
    qs,
    system_kind: str = "haar_rotation",
    j_count: int = 8,
    seed: int = 0,
    flow: str = "hermite",
    n_time: int = 256,
) -> list[StrichartzReport]:
    """Assemble one system, evaluate lhs and rhs at each q of the sequence
    ``qs``, and report the ratios: one report per q, in order.

    The system is generated and propagated once for all q.  Each report's
    ``wall_time`` is the elapsed time of the whole call, shared by its
    reports, not a per-q time.
    """
    import time as _time

    start = _time.perf_counter()
    s = basis.structure
    pairs = [ExponentPair(q, s.d_eff) for q in qs]
    system = generate_system(basis, system_kind, j_count, seed)
    lhs = strichartz_lhs(system, [pr.q for pr in pairs], [pr.p for pr in pairs],
                         flow, n_time).tolist()
    rhs = [schatten_rhs(system.coeffs, pr) for pr in pairs]
    wall_time = _time.perf_counter() - start
    return [
        StrichartzReport(
            d=s.d,
            kappa=s.kappa,
            n_degree=basis.per_dim_degree,
            flow=flow,
            q=pr.q,
            p=pr.p,
            system_kind=system_kind,
            system_size=j_count,
            seed=seed,
            lhs=lk,
            rhs=rk,
            ratio=lk / rk if rk > 0 else np.nan,
            wall_time=wall_time,
        )
        for pr, lk, rk in zip(pairs, lhs, rhs)
    ]


def _profile(r_of_s, s: np.ndarray) -> np.ndarray:
    """The time profile r at the times s, checked to be finite, real and of
    the shape of s: a complex value is rejected, not cut to its real part."""
    values = np.asarray(r_of_s(s))
    if values.shape != s.shape or np.iscomplexobj(values) or not np.all(np.isfinite(values)):
        raise ValueError("the source profile must map an array of times to finite real "
                         "values of the same shape")
    return values


def _source_operator(basis: HermiteBasis, r0) -> np.ndarray:
    """R0 as an (M, M) array, checked to be one."""
    r0 = np.asarray(r0)
    if r0.shape != (basis.size, basis.size):
        raise ValueError(f"expected a {basis.size} x {basis.size} source operator, got {r0.shape}")
    return r0


def _shell_phases(r_of_s, t0: float, t: np.ndarray, n_time: int, top: int) -> np.ndarray:
    """Phi_n(t) = sign * sum_k w_k r(s_k) e^{2in(t - s_k)}, n = -top..top, at
    each time of t: shape (len(t), 2 top + 1).  (s, w) is the composite Simpson
    rule of n_time nodes (made odd) on the interval between t0 and t, and the
    sign is that of t - t0.  The profile is called once, on every node of
    every rule."""
    if n_time % 2 == 0:
        n_time += 1
    s, w = (np.array(v) for v in zip(*(
        time_grid(min(t0, tv), max(t0, tv), n_time, kind="simpson") for tv in t)))
    w *= np.where(t >= t0, 1.0, -1.0)[:, None] * _profile(r_of_s, s)
    n = np.arange(-top, top + 1)
    # one time at a time: a (T, S, 2 top + 1) phase stack would set the peak memory
    return np.array([np.exp(2j * np.outer(n, tv - sv)) @ wv for tv, sv, wv in zip(t, s, w)])


def duhamel_solution(
    basis: HermiteBasis,
    r0,
    t0: float,
    t: float,
    n_time: int = 128,
    r_of_s=np.ones_like,
) -> np.ndarray:
    """gamma(t) = integral_{t0}^t of e^{i(t-s)H} R(s) e^{-i(t-s)H} ds for the
    source R(s) = r(s) R0, by a composite Simpson rule in s.

    ``r0`` is the (M, M) operator R0 and ``r_of_s`` the real time profile r,
    which maps an array of times to an array of values (constant 1 by
    default).  As lambda_mu = 2|mu| + d_eff, the flow multiplies entry
    (mu, nu) by e^{2in(t-s)} with n = |mu| - |nu|, so gamma(t) is R0 times
    the scalar shell phase Phi_n(t) = sum_k w_k r(s_k) e^{2in(t - s_k)}:
    (2 top + 1) S scalars and one M x M product.  A sum of such sources is
    the sum of their solutions.
    """
    r0 = _source_operator(basis, r0)
    degree, top, _ = _degree_shells(basis)
    phases = _shell_phases(r_of_s, t0, np.array([t], dtype=float), n_time, top)[0]
    return r0 * phases[top + degree[:, None] - degree[None, :]]


def inhomogeneous_check(
    basis: HermiteBasis,
    r0,
    t0: float,
    q: float,
    n_time: int = 96,
    n_source_time: int = 96,
    r_of_s=np.ones_like,
):
    """(lhs, rhs) for the source-term density inequality with the source
    R(s) = r(s) R0: R0 (``r0``) self-adjoint, r (``r_of_s``) real.

    lhs: ||rho_{gamma(t)}||_{L^p_t L^q_kappa} over the trapezoid rule of
    n_time nodes on (-pi, pi), with gamma the Duhamel integral from t0 on
    n_source_time Simpson nodes (``duhamel_solution``).  rhs: Schatten-2q/(q+1)
    norm of the integral of e^{isH} |R(s)| e^{-isH} ds over the same rule.

    Both sides go by degree shells, with no matrix work per time node: the
    density of gamma(t) is Re sum_n Phi_n(t) G_n with G the shell densities
    of R0 (one M^2 K pass) and Phi the shell phases ((2 top + 1) T S
    scalars); |R(s)| = |r(s)| |R0| takes one eigendecomposition, and the rhs
    operator is |R0| times the shell sums sum_k tau_k |r(t_k)| e^{2int_k}.
    Everything is validated before any of this work.
    """
    pair = ExponentPair(q, basis.structure.d_eff)
    if not pair.p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {pair.p}")
    r0 = _source_operator(basis, r0)
    if np.abs(r0 - r0.conj().T).max() > 1e-10:
        raise ValueError("source operator is not self-adjoint")
    t, tau = time_grid(-np.pi, np.pi, n_time)
    rhs_weights = tau * np.abs(_profile(r_of_s, t))
    degree, top, _ = _degree_shells(basis)
    phases = _shell_phases(r_of_s, t0, t, n_source_time, top)

    g = shell_densities(basis, r0)
    # real samples from real products, Re(Phi G) = Phi' G' - Phi'' G'', and G
    # released before the norm: either complex array would set the peak memory
    samples = phases.real @ g.real - phases.imag @ g.imag
    del g
    lhs = mixed_norm((t, tau), basis.grid, samples, pair.p, pair.q)

    evals, evecs = np.linalg.eigh(r0)
    rabs = (evecs * np.abs(evals)) @ evecs.conj().T
    harmonics = np.exp(2j * np.outer(np.arange(-top, top + 1), t)) @ rhs_weights
    rhs = schatten_norm(rabs * harmonics[top + degree[:, None] - degree[None, :]], pair.alpha)
    return lhs, rhs


def mhls_check(profiles, supports, beta, r_exponents, n_base: int = 200):
    """(lhs, rhs) for the multilinear weighted integral inequality.

    lhs = integral over R^N of prod_k f_k(t_k) * prod_{i<j} |t_i - t_j|^{-beta_ij};
    rhs = prod_k ||f_k||_{r_k} (Lebesgue norms on the line).  Profiles are
    callables supported on the given intervals; integration uses per-axis
    midpoint grids of staggered parity so the weight singularities are never
    sampled.
    """
    n = len(profiles)
    if n not in (2, 3):
        raise ValueError(f"only 2 or 3 factors supported, got {n}")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n, n):
        raise ValueError(f"beta must be {n} x {n}, got {beta.shape}")
    if np.abs(beta - beta.T).max() > 0 or np.abs(np.diag(beta)).max() > 0:
        raise ValueError("beta must be symmetric with zero diagonal")
    if np.any(beta < 0) or np.any(beta >= 1.0):
        raise ValueError("off-diagonal beta entries must lie in [0, 1)")
    r_exponents = [float(r) for r in r_exponents]
    if any(r <= 1 for r in r_exponents):
        raise ValueError("integrability exponents must exceed 1")
    if sum(1.0 / r for r in r_exponents) <= 1.0:
        raise ValueError("sum of reciprocal exponents must exceed 1")
    col = beta.sum(axis=0)
    target = [2.0 * (r - 1.0) / r for r in r_exponents]
    if np.abs(col - np.asarray(target)).max() > 1e-12:
        raise ValueError(
            f"column sums of beta {col} must equal 2(r-1)/r = {target}"
        )

    nodes, weights, fvals = [], [], []
    for k, (f, (a, b)) in enumerate(zip(profiles, supports)):
        nk = n_base + k  # staggered parity avoids coincident midpoints
        t, tau = time_grid(a, b, nk, kind="midpoint")
        nodes.append(t)
        weights.append(tau)
        fvals.append(np.asarray(f(t), dtype=float))

    lhs = 0.0
    if n == 2:
        diff = np.abs(nodes[0][:, None] - nodes[1][None, :]) ** (-beta[0, 1])
        lhs = float(
            (weights[0] * fvals[0]) @ diff @ (weights[1] * fvals[1])
        )
    else:
        w01 = np.abs(nodes[0][:, None] - nodes[1][None, :]) ** (-beta[0, 1])
        for k2, (t2, w2, f2) in enumerate(zip(nodes[2], weights[2], fvals[2])):
            w02 = np.abs(nodes[0] - t2) ** (-beta[0, 2])
            w12 = np.abs(nodes[1] - t2) ** (-beta[1, 2])
            lhs += w2 * f2 * (
                (weights[0] * fvals[0] * w02) @ w01 @ (weights[1] * fvals[1] * w12)
            )
        lhs = float(lhs)
    rhs = 1.0
    for f, tau, vals, r in zip(profiles, weights, fvals, r_exponents):
        rhs *= float(np.sum(tau * np.abs(vals) ** r) ** (1.0 / r))
    return lhs, rhs
