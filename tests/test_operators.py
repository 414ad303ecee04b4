import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit import (
    DunklStructure,
    OrthonormalSystem,
    build_basis,
    conjugate,
    density,
    kss_check,
    mixed_xp_operator,
    multiplication_matrix,
    schatten_norm,
    shell_densities,
    tensor_grid,
    time_averaged_operator,
)
from dunklkit.quadrature import time_grid

from conftest import random_state
from freeprop_oracle import free_propagator_matrix


def rank_one(basis, seed=0, band=None):
    u = random_state(basis, seed=seed, band=band)
    return np.outer(u, u.conj())


class TestSchattenNorm:
    def test_diagonal_values(self, basis_1d_half):
        d = np.zeros(basis_1d_half.size)
        d[:3] = [3.0, 4.0, 12.0]
        a = np.diag(d)
        assert schatten_norm(a, 1) == pytest.approx(19.0)
        assert schatten_norm(a, 2) == pytest.approx(13.0)
        assert schatten_norm(a, np.inf) == pytest.approx(12.0)

    def test_frobenius_matches_entrywise(self, basis_1d_half):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        assert schatten_norm(a, 2) == pytest.approx(np.linalg.norm(a), rel=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(15, 15))
        q, _ = np.linalg.qr(rng.normal(size=(15, 15)))
        for p in (1, 1.4, 2, 3, np.inf):
            assert schatten_norm(q @ a @ q.T, p) == pytest.approx(
                schatten_norm(a, p), rel=1e-10
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 12))
        b = rng.normal(size=(12, 12))
        for p in (1, 2, np.inf):
            assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(
                b, p
            ) + 1e-12

    def test_holder_trace_inequality(self):
        # |Tr(AB)| <= ||A||_p ||B||_p' for conjugate exponents
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 10))
        b = rng.normal(size=(10, 10))
        tr = abs(np.trace(a @ b))
        for p in (1.5, 2.0, 3.0):
            pp = p / (p - 1)
            assert tr <= schatten_norm(a, p) * schatten_norm(b, pp) * (1 + 1e-12)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(3), 0.5)
        with pytest.raises(ValueError):
            schatten_norm(np.eye(3), np.nan)

    @pytest.mark.parametrize("p", [1, 1.5, 2, np.inf])
    def test_stack_is_one_norm_per_matrix(self, p):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 12, 12)) + 1j * rng.normal(size=(4, 12, 12))
        np.testing.assert_array_equal(schatten_norm(a, p), [schatten_norm(m, p) for m in a])


    @pytest.mark.parametrize("qprime", [0.5, 1.5, 3.5])
    def test_exponent_sequence_is_one_norm_per_exponent(self, qprime):
        # the dual-schatten pair (2q', inf) from one SVD, bit for bit
        rng = np.random.default_rng(5)
        a = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
        value, opnorm = schatten_norm(a, [2.0 * qprime, np.inf])
        assert value == schatten_norm(a, 2.0 * qprime)
        assert opnorm == schatten_norm(a, np.inf)
        with pytest.raises(ValueError):
            schatten_norm(a, [2.0, 0.5])


def hermitian(size, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return a + a.conj().T


# times anywhere in a few periods, and within 1e-9 of (pi/2) Z, where the
# propagator kernels are singular but the spectral conjugation is not
TIMES = st.one_of(
    st.floats(-7.0, 7.0),
    st.builds(lambda k, e: k * np.pi / 2 + e, st.integers(-4, 4), st.floats(-1e-9, 1e-9)),
)


class TestConjugate:
    @given(seed=st.integers(0, 2**32 - 1), t=TIMES, s=TIMES)
    @settings(max_examples=60, deadline=None)
    def test_hermite_flow_invariants(self, basis_1d_half, seed, t, s):
        basis = basis_1d_half
        a = hermitian(basis.size, seed)
        scale = np.abs(a).max()
        b = conjugate(basis, a, t)
        assert np.abs(b - b.conj().T).max() <= 1e-14 * scale
        assert abs(np.trace(b) - np.trace(a)) <= 1e-12 * scale
        np.testing.assert_allclose(
            np.linalg.svd(b, compute_uv=False), np.linalg.svd(a, compute_uv=False),
            rtol=0, atol=1e-12 * scale,
        )
        np.testing.assert_allclose(
            conjugate(basis, b, s), conjugate(basis, a, t + s), rtol=0, atol=1e-12 * scale
        )

    @given(seed=st.integers(0, 2**32 - 1), times=st.lists(TIMES, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_array_of_times(self, basis_2d, seed, times):
        basis = basis_2d
        a = hermitian(basis.size, seed)
        stack = np.stack([hermitian(basis.size, seed + k + 1) for k in range(len(times))])
        one = conjugate(basis, a, np.array(times))
        many = conjugate(basis, stack, np.array(times))
        for k, t in enumerate(times):
            np.testing.assert_array_equal(one[k], conjugate(basis, a, t))
            np.testing.assert_array_equal(many[k], conjugate(basis, stack[k], t))


class TestOrthonormalSystem:
    def test_rejects_non_orthonormal(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=0)
        with pytest.raises(ValueError):
            OrthonormalSystem(basis_1d_half, [u, u], np.ones(2))

    def test_rejects_shape_or_count_mismatch(self, basis_1d_half):
        m = basis_1d_half.size
        for states, count in [(np.eye(3, m - 1), 3), (np.eye(m)[0], 1), (np.eye(2, m), 3)]:
            with pytest.raises(ValueError, match="states"):
                OrthonormalSystem(basis_1d_half, states, np.ones(count))

    def test_operator_is_projection_for_unit_coeffs(self, basis_1d_half):
        basis = basis_1d_half
        vs = []
        for j in range(3):
            c = np.zeros(basis.size, dtype=complex)
            c[j] = 1.0
            vs.append(c)
        system = OrthonormalSystem(basis, vs, np.ones(3))
        # the operator sum_j n_j |f_j><f_j| of the system
        op = (system.states.T * system.coeffs) @ system.states.conj()
        np.testing.assert_allclose(op @ op, op, atol=1e-14)
        assert np.trace(op) == pytest.approx(3.0)


class TestDensity:
    def test_rank_one_density_is_modulus_squared(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=4)
        gam = np.outer(u, u.conj())
        np.testing.assert_allclose(
            density(basis_1d_half, gam), np.abs(u @ basis_1d_half.eval_table) ** 2, atol=1e-12
        )

    def test_trace_duality(self, basis_1d_half):
        # Tr(gamma V) = integral of rho_gamma V h^2 dx for polynomial V
        basis = basis_1d_half
        gam = rank_one(basis, seed=5, band=24)
        vsamp = 1.0 + basis.grid.nodes[:, 0] ** 2
        vmat = multiplication_matrix(basis, vsamp)
        lhs = np.trace(gam @ vmat)
        rhs = np.sum(basis.grid.weights * density(basis, gam) * vsamp)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_conjugated_density_invariants(self, basis_1d_half):
        basis = basis_1d_half
        gam = rank_one(basis, seed=6, band=20)
        # t = 0 is the plain density
        rho0 = density(basis, gam)
        np.testing.assert_allclose(density(basis, conjugate(basis, gam, 0.0)), rho0, atol=1e-14)
        # oscillator flow conserves the total mass exactly
        rho = density(basis, conjugate(basis, gam, 0.7))
        mass0 = np.sum(basis.grid.weights * density(basis, gam))
        mass_t = np.sum(basis.grid.weights * rho)
        assert mass_t == pytest.approx(mass0, rel=1e-12)

    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_matches_three_operand_einsum(self, request, fixture, hermitian):
        # oracle: the complex contraction Re sum_{mu nu} T_mk A_mn T_nk,
        # on the grid and at arbitrary points
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(12)
        m = basis.size
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        if hermitian:
            a = a + a.conj().T
        a = a / m
        points = rng.uniform(-2.5, 2.5, size=(37, basis.structure.d))
        for pts, table in ((None, basis.eval_table), (points, basis.evaluate(points))):
            oracle = np.real(np.einsum("mk,mn,nk->k", table, a, table))
            np.testing.assert_allclose(density(basis, a, pts), oracle, rtol=0, atol=1e-12)


class TestStacks:
    """A leading time axis gives the single-matrix results row by row."""

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_multiplication_matrix(self, request, fixture):
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(5)
        k = basis.grid.npoints
        samples = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
        np.testing.assert_array_equal(
            multiplication_matrix(basis, samples),
            np.stack([multiplication_matrix(basis, v) for v in samples]),
        )
        with pytest.raises(ValueError):
            multiplication_matrix(basis, np.ones((2, 2, k)))

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_density(self, request, fixture):
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(6)
        m = basis.size
        a = (rng.normal(size=(3, m, m)) + 1j * rng.normal(size=(3, m, m))) / m
        points = rng.uniform(-2.5, 2.5, size=(37, basis.structure.d))
        for pts in (None, points):
            np.testing.assert_array_equal(
                density(basis, a, pts), np.stack([density(basis, g, pts) for g in a])
            )


def dual_functional(basis, time_nodes, v_samples, qprime):
    return schatten_norm(time_averaged_operator(basis, time_nodes, v_samples), 2.0 * qprime)


class TestDualFunctional:
    def test_qprime_infinity_triangle_bound(self, basis_1d_half):
        # ||B||_inf-Schatten <= integral of ||V(t)||_sup dt, since each
        # conjugated multiplication operator has norm <= sup |V|
        basis = basis_1d_half
        t, tau = time_grid(-1.0, 1.0, 33)
        rng = np.random.default_rng(7)
        amp = rng.normal(size=t.size)
        x = basis.grid.nodes[:, 0]
        v = amp[:, None] * np.exp(-0.5 * x**2)[None, :]
        got = dual_functional(basis, (t, tau), v, np.inf)
        bound = np.sum(tau * np.abs(amp) * np.exp(-0.5 * x**2).max())
        assert got <= bound * (1 + 1e-8)

    def test_static_potential_sanity(self, basis_1d_half):
        # V independent of t under the oscillator flow at a single node t = 0
        # reduces to the bare multiplication operator scaled by the weight
        basis = basis_1d_half
        x = basis.grid.nodes[:, 0]
        v = np.exp(-(x**2))
        got = dual_functional(basis, (np.array([0.0]), np.array([2.0])), v[None, :], 2.0)
        direct = schatten_norm(2.0 * multiplication_matrix(basis, v), 4.0)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_shape_validation(self, basis_1d_half):
        with pytest.raises(ValueError):
            time_averaged_operator(
                basis_1d_half, (np.zeros(3), np.ones(3)), np.zeros((2, 5))
            )


def node_loop(basis, time_nodes, v_samples):
    """The time-averaged operator one node at a time: sum over t of
    tau_t e^{itH} V_t e^{-itH}, each term a conjugated multiplication matrix."""
    t, tau = time_nodes
    return sum(
        tau[i] * conjugate(basis, multiplication_matrix(basis, v_samples[i]), -t[i])
        for i in range(t.size)
    )


def time_rule(kind, rng):
    if kind == "random":
        return np.sort(rng.uniform(-7.0, 7.0, 40)), rng.uniform(0.01, 0.3, 40)
    return time_grid(-np.pi, 2.0, 41, kind)


class TestTimeAveragedOperator:
    @pytest.mark.parametrize("kind", ["trapezoid", "simpson", "midpoint", "random"])
    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_1d_classical", "basis_2d"])
    def test_matches_node_loop(self, request, fixture, kind):
        # complex V with a different time profile at every grid point
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(8)
        tn = time_rule(kind, rng)
        envelope = np.exp(-0.5 * (basis.grid.nodes**2).sum(axis=-1))
        shape = (tn[0].size, basis.grid.npoints)
        v = envelope * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        b = time_averaged_operator(basis, tn, v)
        oracle = node_loop(basis, tn, v)
        np.testing.assert_allclose(b, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_hermitian_for_real_potential(self, request, fixture):
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(9)
        tn = time_rule("random", rng)
        v = rng.normal(size=(tn[0].size, basis.grid.npoints))
        b = time_averaged_operator(basis, tn, v)
        assert np.abs(b - b.conj().T).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_degree", [0, 1, 5])
    def test_degree_shell_layout(self, d, n_degree):
        # the shell form reads B block by block of total degree and takes the
        # phases e^{2itn} from lambda_mu = 2|mu| + d_eff
        s = DunklStructure(d, (0.5, 1.0, 0.0)[:d])
        basis = build_basis(s, n_degree, tensor_grid(s, n_degree + 1))
        degree = basis.multi_indices.sum(axis=1)
        assert np.all(np.diff(degree) >= 0)
        np.testing.assert_array_equal(basis.eigenvalues, 2 * degree + s.d_eff)

    @pytest.mark.parametrize(
        "t, tau",
        [
            (np.linspace(-1, 1, 5), np.ones(4)),
            (np.linspace(-1, 1, 5), np.ones(6)),
            (np.array([0.0, np.nan, 0.5, 1.0, 1.5]), np.ones(5)),
            (np.linspace(-1, 1, 5), np.array([1.0, 1.0, np.inf, 1.0, 1.0])),
            (np.zeros((5, 1)), np.ones((5, 1))),
        ],
        ids=["short-weights", "long-weights", "nan-time", "infinite-weight", "two-d"],
    )
    def test_rejects_bad_time_rule(self, basis_1d_half, t, tau):
        v = np.ones((5, basis_1d_half.grid.npoints))
        with pytest.raises(ValueError, match="time nodes"):
            time_averaged_operator(basis_1d_half, (t, tau), v)

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_rejects_basis_not_ordered_by_degree(self, request, fixture):
        # a consistent basis whose modes are shuffled: the degree shells are
        # no longer contiguous slices, so the shell form would give a wrong B
        basis = request.getfixturevalue(fixture)
        order = np.random.default_rng(3).permutation(basis.size)
        shuffled = dataclasses.replace(
            basis,
            multi_indices=basis.multi_indices[order],
            eigenvalues=basis.eigenvalues[order],
            eval_table=basis.eval_table[order],
        )
        assert np.any(np.diff(shuffled.multi_indices.sum(axis=1)) < 0)
        tn = time_grid(-np.pi, np.pi, 16)
        v = np.ones((16, basis.grid.npoints))
        with pytest.raises(ValueError, match="ordered by total degree"):
            time_averaged_operator(shuffled, tn, v)
        with pytest.raises(ValueError, match="ordered by total degree"):
            shell_densities(shuffled, np.eye(basis.size))


class TestShellDensities:
    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_densities_of_the_evolved_operator(self, request, fixture):
        # rho of e^{-itH} A e^{itH} is Re sum_n e^{-2int} G_n, for any A
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)
        m = basis.size
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        t = rng.uniform(-np.pi, np.pi, 7)
        g = shell_densities(basis, a)
        top = (g.shape[0] - 1) // 2
        assert g.shape == (2 * top + 1, basis.grid.npoints)
        rho = (np.exp(-2j * np.outer(t, np.arange(-top, top + 1))) @ g).real
        oracle = density(basis, conjugate(basis, a, t))
        np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    def test_rejects_wrong_shape(self, basis_1d_half):
        with pytest.raises(ValueError, match="operator"):
            shell_densities(basis_1d_half, np.eye(basis_1d_half.size - 1))


class TestMixedOperators:
    def test_beta_zero_is_multiplication(self, basis_1d_half):
        basis = basis_1d_half
        f = lambda x: np.exp(-np.asarray(x).ravel() ** 2)
        op = mixed_xp_operator(basis, f, 2.0, 0.0)
        direct = multiplication_matrix(basis, f(2.0 * basis.grid.nodes))
        np.testing.assert_allclose(op, direct, atol=1e-14)

    def test_momentum_route_isospectral(self, basis_1d_classical):
        # at kappa = 0, f(p) and f(x) are unitarily equivalent (Fourier):
        # identical singular values
        basis = basis_1d_classical
        f = lambda x: np.exp(-np.asarray(x).ravel() ** 2)
        mx = mixed_xp_operator(basis, f, 1.0, 0.0)
        mp = mixed_xp_operator(basis, f, 0.0, 1.0)
        sx = np.linalg.svd(mx, compute_uv=False)
        sp = np.linalg.svd(mp, compute_uv=False)
        np.testing.assert_allclose(sp, sx, atol=1e-12)

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_momentum_route_is_spectral_rotation(self, fixture, request):
        # f(beta p) = R* f(beta x) R with R phi_mu = (-i)^{|mu|} phi_mu, the
        # Dunkl transform on the basis
        basis = request.getfixturevalue(fixture)
        f = lambda x: np.exp(-(np.asarray(x) ** 2).sum(axis=-1))
        beta = 0.8
        m = multiplication_matrix(basis, f(beta * basis.grid.nodes).astype(complex))
        rot = (-1j) ** basis.multi_indices.sum(axis=1)
        oracle = (rot.conj()[:, None] * m) * rot[None, :]
        op = mixed_xp_operator(basis, f, 0.0, beta)
        np.testing.assert_allclose(op, oracle, rtol=0, atol=1e-13)

    def test_mixed_spectral_bound(self, basis_1d_half):
        # ||f(alpha x + beta p)|| <= sup |f| (self-adjoint argument)
        basis = basis_1d_half
        f = lambda x: 1.0 / (1.0 + np.asarray(x).ravel() ** 2)
        op = mixed_xp_operator(basis, f, 1.0, 0.5)
        assert schatten_norm(op, np.inf) <= 1.0 + 1e-6

    def test_conjugation_identity_interior(self, basis_1d_half):
        # e^{-i tau Lap} x e^{i tau Lap} = x + 2 tau p on interior blocks
        from dunklkit import dunkl_operator_matrix, position_operator_matrix

        basis = basis_1d_half
        tau = 0.1
        xmat = position_operator_matrix(basis, 1).astype(complex)
        pmat = -1j * dunkl_operator_matrix(basis, 1)
        um = free_propagator_matrix(basis, -tau)
        up = free_propagator_matrix(basis, tau)
        conj = um @ xmat @ up
        target = xmat + 2.0 * tau * pmat
        m = basis.size // 2
        assert np.abs((conj - target)[:m, :m]).max() < 1e-6

    @given(
        pair=st.one_of(
            # the axes, where arctan2 meets its branch cut and signed zeros
            st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 0.8), (0.0, -0.8), (-1.3, -0.0)]),
            st.builds(
                lambda r, theta: (r * np.cos(theta), r * np.sin(theta)),
                st.floats(0.1, 2.0), st.floats(-np.pi, np.pi),
            ),
        ),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_first_coordinate_is_ladder_combination(self, request, fixture, pair):
        # f(x) = x_1 gives alpha X + beta P on the whole truncated matrix, the
        # truncation edge included: the box projection commutes with H
        from dunklkit import dunkl_operator_matrix, position_operator_matrix

        basis = request.getfixturevalue(fixture)
        alpha, beta = pair
        xmat = position_operator_matrix(basis, 1)
        pmat = -1j * dunkl_operator_matrix(basis, 1)
        op = mixed_xp_operator(basis, lambda x: np.asarray(x)[..., 0], alpha, beta)
        np.testing.assert_allclose(
            op, alpha * xmat + beta * pmat, rtol=0, atol=1e-13 * np.abs(xmat).max()
        )

    @pytest.mark.parametrize(
        "alpha, beta", [(1.0, 0.3), (-0.7, 0.3), (1.0, -0.5), (2.0, 1.0), (-1.0, -0.4)]
    )
    def test_rotation_matches_free_route_interior(self, basis_1d_half, alpha, beta):
        # f(alpha x + beta p) = e^{-i tau Lap} f(alpha x) e^{i tau Lap} at
        # tau = beta / (2 alpha); the free-flow matrices are exact only on
        # interior blocks
        basis = basis_1d_half
        f = lambda x: np.exp(-np.asarray(x).ravel() ** 2)
        tau = beta / (2.0 * alpha)
        m = multiplication_matrix(basis, f(alpha * basis.grid.nodes).astype(complex))
        oracle = free_propagator_matrix(basis, -tau) @ m @ free_propagator_matrix(basis, tau)
        op = mixed_xp_operator(basis, f, alpha, beta)
        n = basis.size // 4
        assert np.abs((op - oracle)[:n, :n]).max() < 1e-6

    def test_both_zero_rejected(self, basis_1d_half):
        with pytest.raises(ValueError):
            mixed_xp_operator(basis_1d_half, lambda x: x, 0.0, 0.0)


class TestKss:
    def gaussians(self):
        f = lambda x: np.exp(-np.asarray(x).ravel() ** 2)
        g = lambda x: np.exp(-0.5 * np.asarray(x).ravel() ** 2)
        return f, g

    def test_classical_value(self, basis_1d_classical):
        # kappa = 0, r = 2: ||f(x) g(p)||_2 = (2 pi)^{-1/2} ||f||_2 ||g||_2
        # exactly; the truncation gap is the only error
        f, g = self.gaussians()
        lhs, rhs = kss_check(basis_1d_classical, f, g, 1.0, 0.0, 0.0, 1.0, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-3)

    @pytest.mark.parametrize(
        "params",
        [
            (1.0, 0.0, 0.0, 1.0),
            (1.0, 0.5, 0.2, 1.0),
            (2.0, 0.0, 0.0, 0.5),
            (0.5, 0.0, 0.0, 2.0),
        ],
    )
    def test_inequality(self, basis_1d_half, params):
        f, g = self.gaussians()
        lhs, rhs = kss_check(basis_1d_half, f, g, *params, r=2.0)
        assert lhs <= rhs * (1 + 1e-3)

    def test_sup_norm_bound(self, basis_1d_half):
        f, g = self.gaussians()
        lhs, rhs = kss_check(basis_1d_half, f, g, 1.0, 0.0, 0.0, 1.0, np.inf)
        assert lhs <= rhs * (1 + 1e-6)

    def test_degenerate_rejected(self, basis_1d_half):
        f, g = self.gaussians()
        with pytest.raises(ValueError):
            kss_check(basis_1d_half, f, g, 1.0, 1.0, 1.0, 1.0, 2.0)

    def test_classical_scaling_slope(self, basis_1d_classical):
        # kappa = 0: ||f(x) g(D p)||_2 proportional to D^{-d_eff/2} exactly
        f, g = self.gaussians()
        values = []
        dilations = [1.0, 2.0, 4.0]
        for dv in dilations:
            lhs, _ = kss_check(basis_1d_classical, f, g, 1.0, 0.0, 0.0, dv, 2.0)
            values.append(lhs)
        slopes = np.diff(np.log(values)) / np.diff(np.log(dilations))
        target = -0.5 * basis_1d_classical.structure.d_eff
        np.testing.assert_allclose(slopes, target, rtol=0.02)

    def test_dilation_identity_kappa_one(self, basis_1d_one):
        # for kappa > 0 the exact statement is a profile-dilation identity:
        # S_2(f, g; D) = S_2(f(D .), g; 1)
        f, g = self.gaussians()
        dv = 2.0
        lhs, _ = kss_check(basis_1d_one, f, g, 1.0, 0.0, 0.0, dv, 2.0)
        fd = lambda x: f(dv * np.asarray(x))
        lhs2, _ = kss_check(basis_1d_one, fd, g, 1.0, 0.0, 0.0, 1.0, 2.0)
        # exact in the continuum; the two routes truncate differently, so the
        # residual gap is the truncation error at N = 32
        assert lhs == pytest.approx(lhs2, rel=5e-3)
