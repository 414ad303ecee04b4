"""Orthonormal Strichartz functionals: mixed space-time norms of densities of
evolved orthonormal systems, the inhomogeneous (Duhamel) variant, and the
multilinear integral inequality with pairwise power weights.

The time side lives on (-pi, pi) for the oscillator flow; the free flow is
integrated over the whole line through the substitution v = tan 2t, which
maps it onto (-pi/4, pi/4) with an explicit power of s(t) = sec 2t -- the
power vanishes exactly on the scaling line 2/p + d_eff/q = d_eff.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .hermite import HermiteBasis, propagated_density
from .operators import OrthonormalSystem, conjugate, density, schatten_norm
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
    """Exponents on the scaling line, with the admissibility window flag."""

    q: float
    d_eff: float
    p: float = field(init=False)
    admissible: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", admissible_p(self.q, self.d_eff))
        window = (self.d_eff + 1.0) / (self.d_eff - 1.0) if self.d_eff > 1 else np.inf
        object.__setattr__(self, "admissible", bool(1.0 <= self.q < window))


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
    coeffs=None,
) -> OrthonormalSystem:
    """Deterministic orthonormal family of j_count states in the basis.

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
    if coeffs is None:
        coeffs = np.ones(j_count)
    return OrthonormalSystem(basis, c, coeffs)


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


def schatten_rhs(coeffs, q: float) -> float:
    """l^{2q/(q+1)} norm of the occupation coefficients."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    n = np.abs(np.asarray(coeffs, dtype=complex))
    r = 2.0 * q / (q + 1.0)
    return float(np.sum(n**r) ** (1.0 / r))


def run_inequality(
    basis: HermiteBasis,
    qs,
    system_kind: str = "haar_rotation",
    j_count: int = 8,
    seed: int = 0,
    flow: str = "hermite",
    n_time: int = 256,
    coeffs=None,
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
    system = generate_system(basis, system_kind, j_count, seed, coeffs)
    lhs = strichartz_lhs(system, [pr.q for pr in pairs], [pr.p for pr in pairs],
                         flow, n_time).tolist()
    rhs = [schatten_rhs(system.coeffs, pr.q) for pr in pairs]
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


def duhamel_solution(
    basis: HermiteBasis,
    r_of_s,
    t0: float,
    t: float,
    n_time: int = 128,
) -> np.ndarray:
    """gamma(t) = integral_{t0}^t of e^{i(t-s)H} R(s) e^{-i(t-s)H} ds.

    ``r_of_s`` maps a time to an operator matrix (array), evaluated at every
    node of a composite Simpson rule in s.  The conjugation is by diagonal
    phases, and the phase matrix has rank one:
    e^{i(t-s)(lam_mu - lam_nu)} = a_mu conj(a_nu) with a = e^{i(t-s) lam},
    so each node costs M exponentials and two diagonal scalings of R(s).
    """
    if t == t0:
        return np.zeros((basis.size, basis.size), dtype=complex)
    if n_time % 2 == 0:
        n_time += 1
    sg, sw = time_grid(min(t0, t), max(t0, t), n_time, kind="simpson")
    sign = 1.0 if t >= t0 else -1.0
    lam = basis.eigenvalues
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for sv, w in zip(sg, sw):
        # one node at a time, since r_of_s is a callable; conjugate() by hand:
        # folding the weight into the phase vector saves one M x M pass per node
        a = np.exp(1j * (t - sv) * lam)
        out += (((sign * w) * a)[:, None] * r_of_s(sv)) * a.conj()[None, :]
    return out


def inhomogeneous_check(
    basis: HermiteBasis,
    r_of_s,
    t0: float,
    q: float,
    n_time: int = 96,
    n_source_time: int = 96,
):
    """(lhs, rhs) for the source-term density inequality.

    lhs: ||rho_{gamma(t)}||_{L^p_t L^q_kappa} over (-pi, pi) with gamma the
    Duhamel integral from t0.  rhs: Schatten-2q/(q+1) norm of
    integral of e^{isH} |R(s)| e^{-isH} ds over (-pi, pi).
    """
    s = basis.structure
    pair = ExponentPair(q, s.d_eff)
    grid = basis.grid
    t, tau = time_grid(-np.pi, np.pi, n_time)
    # both loops call r_of_s at each node: a cumulative integral of the
    # rotated source would change the discretization of gamma(t)
    samples = np.empty((t.size, grid.npoints))
    for i, tv in enumerate(t):
        samples[i] = density(basis, duhamel_solution(basis, r_of_s, t0, tv, n_source_time))
    lhs = mixed_norm((t, tau), grid, samples, pair.p, pair.q)

    acc = np.zeros((basis.size, basis.size), dtype=complex)
    for sv, w in zip(t, tau):
        r = np.asarray(r_of_s(sv), dtype=complex)
        if np.abs(r - r.conj().T).max() > 1e-10:
            raise ValueError("source operator is not self-adjoint")
        evals, evecs = np.linalg.eigh(r)
        rabs = (evecs * np.abs(evals)) @ evecs.conj().T
        acc += w * conjugate(basis, rabs, -sv)
    rhs = schatten_norm(acc, 2.0 * q / (q + 1.0))
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
