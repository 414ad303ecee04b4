import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit import (
    DunklStructure,
    LensMap,
    build_basis,
    kernel_Kit,
    kernel_Lit,
    lens_relation_residual,
    plain_rule,
    tensor_grid,
)

from conftest import random_state
from freeprop_oracle import free_evolve_via_lens, free_propagator_matrix, norm_transport_check
from kernel_oracle import heat_kernel, kernel_quadrature
from shell_oracle import eval_table, evaluate


class TestHeatKernel:
    def test_classical_gauss_weierstrass(self):
        s = DunklStructure(1, (0.0,))
        t, x, y = 0.5, 1.0, 0.0
        expected = (4 * np.pi * t) ** -0.5 * np.exp(-((x - y) ** 2) / (4 * t))
        assert heat_kernel(s, t, x, y) == pytest.approx(expected, rel=1e-12)

    def test_positive_and_symmetric(self):
        s = DunklStructure(2, (0.5, 1.0))
        x = np.array([0.7, -0.4])
        y = np.array([-1.1, 0.3])
        a = heat_kernel(s, 0.3, x, y)
        b = heat_kernel(s, 0.3, y, x)
        assert a > 0
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5])
    def test_mass_conservation(self, kappa):
        # integral of the kernel against h^2 dy equals 1 for every x, t
        s = DunklStructure(1, (kappa,))
        t = 0.35
        # integrand decays like e^{-y^2/(4t)}: match the rule to that decay
        y, w = plain_rule(kappa, 60, sigma=1.0 / (4 * t))
        for x in (0.0, 0.8, 2.0):
            mass = np.sum(w * heat_kernel(s, t, x, y))
            assert mass == pytest.approx(1.0, rel=1e-8), (kappa, x)

    def test_rejects_nonpositive_time(self):
        s = DunklStructure(1, (0.5,))
        with pytest.raises(ValueError):
            heat_kernel(s, 0.0, 0.1, 0.2)


class TestFreeKernel:
    def test_dispersive_magnitude(self):
        # |L_it(x, y)| = M_kappa (2t)^{-d_eff/2} |E(x/(2it), y)| with the
        # kernel factor bounded by 1
        s = DunklStructure(1, (0.7,))
        t = 0.4
        x = np.linspace(-3, 3, 13)
        k = kernel_Lit(s, t, x[:, None], x[None, :])
        bound = s.m_kappa * (2 * t) ** (-0.5 * s.d_eff)
        assert np.abs(k).max() <= bound * (1 + 1e-12)

    def test_time_reversal_is_conjugation(self):
        s = DunklStructure(1, (0.5,))
        a = kernel_Lit(s, 0.6, 0.9, -0.4)
        b = kernel_Lit(s, -0.6, 0.9, -0.4)
        assert a == pytest.approx(np.conj(b), rel=1e-13)

    def test_heat_continuation(self):
        # L at t = -i s equals the heat kernel at time s (principal branch)
        s = DunklStructure(1, (0.8,))
        sval = 0.45
        x, y = 0.7, -1.2
        analytic = kernel_Lit(s, -1j * sval, x, y)
        assert analytic == pytest.approx(heat_kernel(s, sval, x, y), rel=1e-12)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            kernel_Lit(DunklStructure(1, (0.5,)), 0.0, 0.1, 0.2)


class TestLens:
    @pytest.mark.parametrize("v", [0.1, 0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("dk", [(1, (0.0,)), (1, (0.5,)), (2, (1.0, 0.5))])
    def test_relation_residual(self, v, dk):
        s = DunklStructure(*dk)
        if s.d == 1:
            x = np.linspace(-2, 2, 5)[:, None]
            y = np.linspace(-2, 2, 5)[None, :]
            scale = s.m_kappa * abs(np.sin(2 * LensMap(v, s.d_eff).t_hermite)) ** (
                -0.5 * s.d_eff
            )
            res = lens_relation_residual(s, v, x[..., None], y[..., None])
        else:
            pts = np.stack(
                np.meshgrid(np.linspace(-1.5, 1.5, 5), np.linspace(-1.5, 1.5, 5)),
                axis=-1,
            ).reshape(-1, 2)
            scale = s.m_kappa * abs(np.sin(2 * LensMap(v, s.d_eff).t_hermite)) ** (
                -0.5 * s.d_eff
            )
            res = lens_relation_residual(s, v, pts, pts[::-1])
        assert np.max(res) / scale < 1e-10

    @given(log_v=st.floats(-4.0, 4.0), kappa=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_relation_near_singular_times(self, log_v, kappa):
        # small v puts t = arctan(v)/2 next to the singular time 0 and large v
        # makes the free time v/2 long; on the lattice of verify-kernels the
        # phase round-off grows like v + 1/v (3.4e-15 (v + 1/v) at v = 1e-4).
        # Where |x y| / sin 2t nears the series radius 8 the series route adds
        # its cancellation, up to e^8 eps per coordinate as kappa -> 0: worst
        # measured 9.8e-14 (v + 1/v) at kappa = (1e-4, 1e-4), v = 0.58
        s = DunklStructure(len(kappa), tuple(kappa))
        v = 10.0**log_v
        pts = np.linspace(-2.0, 2.0, 5)
        if s.d == 1:
            x, y = pts[:, None], pts[None, :]
        else:
            x = np.stack(np.meshgrid(pts, pts, indexing="ij"), axis=-1).reshape(-1, 1, 2)
            y = x.reshape(1, -1, 2)
        mag = np.abs(kernel_Kit(s, LensMap(v, s.d_eff).t_hermite, x, y)).max()
        bound = 1e-13 * (v + 1.0 / v) + s.d * np.exp(8.0) * np.finfo(float).eps
        assert lens_relation_residual(s, v, x, y).max() / mag <= bound

    def test_small_v_limit(self):
        # v -> 0: scale -> 1, amplitude -> 1, t_hermite ~ v/2
        lens = LensMap(1e-3, 3.0)
        assert lens.scale == pytest.approx(1.0, abs=1e-6)
        assert lens.amplitude == pytest.approx(1.0, abs=1e-5)
        assert lens.t_hermite == pytest.approx(5e-4, rel=1e-6)

    def test_rejects_nonpositive_v(self):
        with pytest.raises(ValueError):
            LensMap(0.0, 3.0)


class TestFreeEvolution:
    @pytest.mark.parametrize("v", [0.3, 1.0])
    def test_lens_vs_kernel_quadrature(self, basis_1d_half, v):
        u = random_state(basis_1d_half, seed=7, band=16)
        x = np.linspace(-3, 3, 21)
        via_lens = free_evolve_via_lens(basis_1d_half, u, v, x[:, None])
        s = basis_1d_half.structure
        direct = kernel_quadrature(
            basis_1d_half, u, lambda x, y: kernel_Lit(s, v / 2.0, x, y), x, order_factor=10
        )
        np.testing.assert_allclose(via_lens, direct, atol=1e-10)

    def test_identity_limit(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=8, band=16)
        x = np.linspace(-2, 2, 9)
        evolved = free_evolve_via_lens(basis_1d_half, u, 1e-4, x[:, None])
        np.testing.assert_allclose(evolved, u @ evaluate(basis_1d_half, x[:, None]), atol=1e-3)

    def test_mass_conservation(self, basis_1d_half):
        # L^2_kappa norm preserved; evaluate on a dilated grid to capture the
        # spread support, with the Jacobian factor in the weights
        basis = basis_1d_half
        s = basis.structure
        u = random_state(basis, seed=9, band=16)
        v = 0.8
        lens = LensMap(v, s.d_eff)
        nodes = lens.scale * basis.grid.nodes
        vals = free_evolve_via_lens(basis, u, v, nodes)
        mass = np.sum(
            basis.grid.weights * lens.scale**s.d_eff * np.abs(vals) ** 2
        )
        assert mass == pytest.approx(1.0, rel=1e-8)

    def test_matrix_identity_and_conjugation(self, basis_1d_half):
        basis = basis_1d_half
        assert np.array_equal(
            free_propagator_matrix(basis, 0.0), np.eye(basis.size)
        )
        plus = free_propagator_matrix(basis, 0.3)
        minus = free_propagator_matrix(basis, -0.3)
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-14)

    def test_matrix_interior_unitarity(self, basis_1d_half):
        # columns well inside the truncation are orthonormal; the edge block
        # genuinely leaks (the free flow dilates degrees)
        basis = basis_1d_half
        umat = free_propagator_matrix(basis, 0.2)
        m = basis.size // 4
        gram = umat[:, :m].conj().T @ umat[:, :m]
        assert np.abs(gram - np.eye(m)).max() < 1e-6

    @given(n=st.integers(16, 32), kappa=st.floats(0.0, 3.0), tau=st.floats(0.01, 0.2))
    @settings(max_examples=30, deadline=None)
    def test_matrix_truncation_edge(self, n, kappa, tau):
        # interior columns stay orthonormal while the top-degree column loses
        # norm through the truncation edge; on the corners of this box the
        # Gram deviation peaks at 4.1e-7 (n = 16, kappa = 3, tau = 0.2) and
        # the deficit bottoms out at 3.8e-3 (n = 16, kappa = 0, tau = 0.01)
        s = DunklStructure(1, (kappa,))
        basis = build_basis(s, n, tensor_grid(s, n + 1))
        umat = free_propagator_matrix(basis, tau)
        m = basis.size // 4
        gram = umat[:, :m].conj().T @ umat[:, :m]
        assert np.abs(gram - np.eye(m)).max() <= 1e-6
        assert 1.0 - np.linalg.norm(umat[:, -1]) >= 1e-3

    @pytest.mark.parametrize("tau", [0.05, 0.3, -0.2, 1.7])
    def test_matrix_2d_is_product_of_1d(self, basis_2d, tau):
        # e^{i tau Laplacian} factors over the coordinates, and so does the
        # tensor projection rule: the d = 2 matrix is the box-lifted product
        # U_{kappa_1}[mu_1, nu_1] U_{kappa_2}[mu_2, nu_2] of the d = 1 ones
        s, n = basis_2d.structure, basis_2d.per_dim_degree
        u1, u2 = (
            free_propagator_matrix(build_basis(sj, n, tensor_grid(sj, n + 1)), tau)
            for sj in (DunklStructure(1, (k,)) for k in s.kappa)
        )
        mi = basis_2d.multi_indices
        product = u1[np.ix_(mi[:, 0], mi[:, 0])] * u2[np.ix_(mi[:, 1], mi[:, 1])]
        np.testing.assert_allclose(
            free_propagator_matrix(basis_2d, tau), product, rtol=0, atol=1e-14
        )

    def test_matrix_matches_lens_on_states(self, basis_1d_half):
        basis = basis_1d_half
        u = random_state(basis, seed=10, band=12)
        tau = 0.15
        coeffs = free_propagator_matrix(basis, tau) @ u
        x = np.linspace(-2.5, 2.5, 15)
        via_matrix = coeffs @ evaluate(basis, x[:, None])
        via_lens = free_evolve_via_lens(basis, u, 2 * tau, x[:, None])
        np.testing.assert_allclose(via_matrix, via_lens, atol=1e-5)


class TestNormTransport:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_two_route_identity(self, basis_1d_half, q):
        s = basis_1d_half.structure
        p = 2.0 * q / (s.d_eff * (q - 1.0))
        u = random_state(basis_1d_half, seed=11, band=12)
        lhs, rhs, full, quarter4 = norm_transport_check(basis_1d_half, u, p, q, n_time=128)
        assert rhs == pytest.approx(lhs, rel=1e-6)
        assert quarter4 == pytest.approx(full, rel=1e-6)

    def test_ground_state(self, basis_1d_one):
        basis = basis_1d_one
        c = np.zeros(basis.size, dtype=complex)
        c[0] = 1.0
        # scaling-line pair for d_eff = 3: q = 2, p = 4/3
        q = 2.0
        p = 2.0 * q / (basis.structure.d_eff * (q - 1.0))
        lhs, rhs, full, quarter4 = norm_transport_check(basis, c, p, q, n_time=64)
        # |e^{-itH} phi_0| is t-independent: lhs = (pi/4) * ||phi_0^2||_q^p
        dens = np.abs(c @ eval_table(basis)) ** 2
        from dunklkit import weighted_lp_norm

        expected = (np.pi / 4) * weighted_lp_norm(basis.grid, dens, q) ** p
        assert lhs == pytest.approx(expected, rel=1e-6)
        assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_zero_state(self, basis_1d_half):
        basis = basis_1d_half
        lhs, rhs, full, quarter4 = norm_transport_check(
            basis, np.zeros(basis.size), 2.0, 2.0, n_time=16
        )
        assert lhs == 0.0 and rhs == 0.0
