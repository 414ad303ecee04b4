"""Orthonormal Strichartz functionals: mixed space-time norms of densities of
evolved orthonormal systems, the inhomogeneous (Duhamel) variant for sources
R(s) = r(s) R0, and the multilinear integral inequality with pairwise power
weights.

Shell n of a density has parity (-1)^n, so under the oscillator flow
rho(t + pi/2)(x) = rho(t)(-x): the lhs integrates one period, (-pi/4, pi/4),
four of which make the flow's window (-pi, pi); v = tan 2t maps the free
flow's line onto it, with a power of sec 2t that vanishes on the scaling line
2/p + d_eff/q = d_eff of every exponent pair.  A random V_t or a Duhamel
source is not pi/2-periodic: their rules span (-pi, pi).  The Duhamel
integral goes by degree shells: the oscillator flow multiplies entry
(mu, nu) of an operator by a phase that depends on |mu| - |nu| alone, so for
a source of one fixed operator the integral over s is a scalar per shell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .hermite import HermiteBasis
from .operators import apply_shells, density, flow_phases, schatten_norm
from .quadrature import lp_norm, mixed_norm, time_grid

__all__ = [
    "ExponentPair",
    "admissible_p",
    "generate_system",
    "quarter_period",
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


def generate_system(
    basis: HermiteBasis,
    kind: str,
    j_count: int,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic orthonormal family of j_count states in the basis: the
    (j_count, M) array of their spectral coefficients, one row per state.

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
    return c


def quarter_period(n_time: int):
    """(t, tau): the periodic (midpoint) rule of n_time >= 2 distinct nodes on
    the period (-pi/4, pi/4) of t -> ||rho(t)||_q; it never samples the ends.
    A trapezoid rule of n nodes on (-pi, pi) would sample only
    (n - 1)/gcd(n - 1, 4) distinct points of the period."""
    if n_time < 2:
        raise ValueError(f"the time rule needs at least 2 nodes, got {n_time}")
    return time_grid(-np.pi / 4, np.pi / 4, n_time, kind="midpoint")


def strichartz_lhs(
    basis: HermiteBasis,
    gamma,
    qs,
    flow: str = "hermite",
    n_time: int = 256,
) -> np.ndarray:
    """||rho_{e^{-itP} gamma e^{itP}}||_{L^p_t L^q_kappa} for each self-adjoint
    operator of the (S, M, M) stack ``gamma`` and each q of the sequence
    ``qs``, with p on the scaling line (``ExponentPair``): shape (S, len(qs)).
    A system of states f_j (rows of f) with occupations n_j is its operator
    gamma = sum_j n_j |f_j><f_j|, ``f.T @ (n[:, None] * f).conj()``.

    Both flows take the rule of ``quarter_period(n_time)``, the oscillator
    flow (``"hermite"``) with its weights times 4 for the four periods of
    (-pi, pi).  The evolved densities do not depend on the exponents: the
    stack is propagated as one ``density``, then each operator takes one
    ``mixed_norm`` for every q.
    """
    gamma = np.asarray(gamma)
    if gamma.ndim != 3 or not len(gamma):
        raise ValueError(f"expected an (S, M, M) stack of operators, S >= 1, got {gamma.shape}")
    pairs = [ExponentPair(q, basis.structure.d_eff) for q in qs]
    if flow not in ("hermite", "laplacian"):
        raise ValueError(f"unknown flow {flow!r}")
    t, tau = quarter_period(n_time)
    tau *= 4.0 if flow == "hermite" else 1.0
    rho = density(basis, gamma, flow_phases(basis, t))
    exponents = [pr.p for pr in pairs], [pr.q for pr in pairs]
    return np.array([mixed_norm((t, tau), basis.grid, r, *exponents) for r in rho])


def schatten_rhs(coeffs, pairs) -> np.ndarray:
    """l^alpha norm of the occupation coefficients for each ``ExponentPair``
    of the sequence ``pairs`` (alpha = ``pair.alpha``), from one ``lp_norm``."""
    return lp_norm(np.asarray(coeffs, dtype=complex), 1.0, [pr.alpha for pr in pairs])


def run_inequality(
    basis: HermiteBasis,
    qs,
    system_kind: str = "haar_rotation",
    j_counts=(8,),
    seeds=(0,),
    flow: str = "hermite",
    n_time: int = 256,
) -> list[dict]:
    """Assemble one system per size J of ``j_counts`` and seed of ``seeds``,
    each with unit occupations, evaluate lhs and rhs at each q of the
    sequence ``qs``, and report the ratios: one row per (q, J, seed), ordered
    by q, then J, then seed.  A row echoes the configuration (``kappa`` as
    one space-separated string) and gives q, p, lhs, rhs, ratio, the elapsed
    time of the whole call (``wall_time``, shared by every row) and the
    ``admissible`` flag of its ``ExponentPair``.

    Each seed's systems are propagated together, once for all q, on one
    period (``strichartz_lhs``, whose weights ``flow`` multiplies by 4 or 1):
    one stacked density per seed, so that one seed's stack sets the peak
    memory.
    """
    start = time.perf_counter()
    s = basis.structure
    pairs = [ExponentPair(q, s.d_eff) for q in qs]
    lhs = []
    for seed in seeds:
        states = [generate_system(basis, system_kind, j_count, seed) for j_count in j_counts]
        gammas = np.stack([f.T @ f.conj() for f in states])
        lhs.append(strichartz_lhs(basis, gammas, qs, flow, n_time).tolist())
    rhs = [schatten_rhs(np.ones(j_count), pairs).tolist() for j_count in j_counts]
    wall_time = time.perf_counter() - start
    echo = dict(d=s.d, kappa=" ".join(str(k) for k in s.kappa),
                n_degree=basis.per_dim_degree, flow=flow)
    rows = []
    for i, pr in enumerate(pairs):
        for j, j_count in enumerate(j_counts):
            for seed, lhs_s in zip(seeds, lhs):
                lk, rk = lhs_s[j][i], rhs[j][i]
                rows.append({**echo, "q": pr.q, "p": pr.p, "system_kind": system_kind,
                             "system_size": j_count, "seed": seed, "lhs": lk, "rhs": rk,
                             "ratio": lk / rk if rk > 0 else np.nan,
                             "wall_time": wall_time, "admissible": pr.admissible})
    return rows


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


def _shell_phases(basis: HermiteBasis, r_of_s, t0: float, t: np.ndarray,
                  n_time: int) -> np.ndarray:
    """Phi_n(t) = sign * sum_k w_k r(s_k) e^{2in(t - s_k)}, n = -dN..dN, at
    each time of t: shape (len(t), 2 d N + 1).  (s, w) is the composite
    Simpson rule of n_time nodes (made odd) on the interval between t0 and t,
    and the sign is that of t - t0; e^{2in(t - s_k)} are the flow phases at
    s_k - t.  The profile is called once, on every node of every rule.  As r
    is real, Phi_{-n} = conj Phi_n."""
    if n_time % 2 == 0:
        n_time += 1
    s, w = (np.array(v) for v in zip(*(
        time_grid(min(t0, tv), max(t0, tv), n_time, kind="simpson") for tv in t)))
    w *= np.where(t >= t0, 1.0, -1.0)[:, None] * _profile(r_of_s, s)
    # one time at a time: a (T, S, 2 d N + 1) phase stack would set the peak memory
    return np.array([wv @ flow_phases(basis, sv - tv) for tv, sv, wv in zip(t, s, w)])


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
    n_time nodes on (-pi, pi), with gamma(t) the Duhamel integral from t0 of
    e^{i(t-s)H} R(s) e^{-i(t-s)H} ds on n_source_time Simpson nodes: R0 times
    the shell phases Phi_n(t) of ``_shell_phases``.  rhs: Schatten-2q/(q+1)
    norm of the integral of e^{isH} |R(s)| e^{-isH} ds over the same rule.

    Both sides go by degree shells, with no matrix work per time node: the
    density of gamma(t) is Re sum_n Phi_n(t) G_n with G the shell densities
    of R0 and Phi the shell phases ((d N + 1) T S complex exponentials), one
    ``density`` call; |R(s)| = |r(s)| |R0| takes one eigendecomposition, and
    the rhs operator is |R0| times the shell sums sum_k tau_k |r(t_k)|
    e^{2int_k}, the flow phases at -t_k.
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
    phases = _shell_phases(basis, r_of_s, t0, t, n_source_time)
    lhs = mixed_norm((t, tau), basis.grid, density(basis, r0, phases), pair.p, pair.q)

    evals, evecs = np.linalg.eigh(r0)
    rabs = (evecs * np.abs(evals)) @ evecs.conj().T
    rhs = schatten_norm(apply_shells(basis, rabs, rhs_weights @ flow_phases(basis, -t)),
                        pair.alpha)
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
        # a profile may return one value for every node
        fvals.append(np.broadcast_to(np.asarray(f(t), dtype=float), t.shape))

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
    for tau, vals, r in zip(weights, fvals, r_exponents):
        rhs *= lp_norm(vals, tau, r)
    return lhs, rhs
