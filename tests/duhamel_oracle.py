"""The Duhamel integral and the inhomogeneous check node by node: the oracle
for ``duhamel_by_shells`` and ``strichartz.inhomogeneous_check``.

``duhamel_by_shells`` is the package's shell route at one time: the source
operator R0 times the shell phases that ``inhomogeneous_check`` puts on it
at every time node.  No command needs gamma(t) itself, so it lives here.

The source is any callable R(s) returning an operator matrix.  gamma(t) is a
loop over the Simpson nodes in s, each conjugating R(s) by diagonal phases;
the lhs takes one ``density`` of gamma(t) per time node and the rhs one
eigendecomposition of R(s) per time node.  This is T S matrix passes where
the shell route makes none.
"""

from __future__ import annotations

import numpy as np

from dunklkit import (
    ExponentPair,
    HermiteBasis,
    conjugate,
    density,
    mixed_norm,
    schatten_norm,
    time_grid,
)
from dunklkit.operators import apply_shells
from dunklkit.strichartz import _shell_phases, _source_operator


def duhamel_by_shells(
    basis: HermiteBasis,
    r0,
    t0: float,
    t: float,
    n_time: int = 128,
    r_of_s=np.ones_like,
) -> np.ndarray:
    """gamma(t) = integral_{t0}^t of e^{i(t-s)H} R(s) e^{-i(t-s)H} ds for the
    source R(s) = r(s) R0, by a composite Simpson rule in s, as the package
    forms it.

    ``r0`` is the (M, M) operator R0 and ``r_of_s`` the real time profile r,
    which maps an array of times to an array of values (constant 1 by
    default).  As lambda_mu = 2|mu| + d_eff, the flow multiplies entry
    (mu, nu) by e^{2in(t-s)} with n = |mu| - |nu|, so gamma(t) is R0 times
    the scalar shell phase Phi_n(t) = sum_k w_k r(s_k) e^{2in(t - s_k)}
    (``strichartz._shell_phases``).  A sum of such sources is the sum of
    their solutions.
    """
    r0 = _source_operator(basis, r0)
    return apply_shells(basis, r0, _shell_phases(basis, r_of_s, t0, np.array([t]), n_time)[0])


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
