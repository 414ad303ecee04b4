import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit import DunklStructure, plain_rule, tensor_grid, time_grid
from dunklkit.quadrature import mixed_norm, weighted_lp_norm


def gaussian_rule(kappa, n):
    """Nodes and weights for integrals against |x|^{2 kappa} e^{-x^2} dx; the
    exact even moments, of x^{2m}, are Gamma(m + kappa + 1/2)."""
    nodes, weights = plain_rule(kappa, n)
    return nodes, weights * np.exp(-(nodes**2))


class TestRule1D:
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.3])
    def test_moments(self, kappa):
        nodes, weights = gaussian_rule(kappa, 20)
        for m in range(0, 15):
            approx = np.sum(weights * nodes ** (2 * m))
            assert approx == pytest.approx(math.gamma(m + kappa + 0.5), rel=1e-12)

    def test_odd_moments_vanish(self):
        nodes, weights = gaussian_rule(0.7, 16)
        for m in (1, 3, 7):
            assert abs(np.sum(weights * nodes**m)) < 1e-14

    def test_classical_is_gauss_hermite(self):
        nodes, weights = gaussian_rule(0.0, 12)
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(24)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12)

    @given(kappa=st.floats(0.0, 3.0), n=st.integers(4, 40))
    @settings(max_examples=50, deadline=None)
    def test_weights_positive_nodes_symmetric(self, kappa, n):
        nodes, weights = gaussian_rule(kappa, n)
        assert np.all(weights > 0)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-14)

    def test_refinement_converges(self):
        # integral of cos(x) |x| e^{-x^2} dx, not polynomial: the error falls
        # strictly while it is well above round-off, then stays at round-off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = float(2 * mpmath.quad(lambda x: mpmath.cos(x) * x * mpmath.exp(-x * x),
                                          [0, mpmath.inf]))
        errors = {}
        for n in (1, 2, 3, 4, 5, 16, 32):
            nodes, weights = gaussian_rule(0.5, n)
            errors[n] = abs(np.sum(weights * np.cos(nodes)) - exact)
        assert errors[1] > errors[2] > errors[3] > errors[4] > errors[5]
        assert errors[4] > 1e-12
        assert errors[16] <= 1e-14 and errors[32] <= 1e-14

    @pytest.mark.parametrize("n", [16, 120])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5, 4.5])
    def test_matches_50_digit_rule(self, kappa, n):
        # mpmath's Golub-Welsch rule: the implicit QL iteration of its eigsy on
        # the same Jacobi matrix, at 50 digits, with the first components of the
        # eigenvectors for the weights.  Largest gap seen over these cases:
        # 1.0e-13 on nodes and 4.0e-13 on plain weights.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            u, w = mpmath.gauss_quadrature(n, "glaguerre", alpha=mpmath.mpf(kappa) - 0.5)
            ref_nodes = np.array([float(mpmath.sqrt(ui)) for ui in u])
            ref_weights = np.array([float(wi * mpmath.exp(ui) / 2) for ui, wi in zip(u, w)])
        nodes, weights = plain_rule(kappa, n)
        np.testing.assert_allclose(nodes[n:], ref_nodes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(nodes[:n], -ref_nodes[::-1], rtol=1e-12, atol=0)
        np.testing.assert_allclose(weights[n:], ref_weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(weights[:n], ref_weights[::-1], rtol=1e-12, atol=0)

    def test_high_order_no_overflow(self):
        _, weights = plain_rule(0.7, 150)
        assert np.all(np.isfinite(weights))

    def test_extreme_order_raises(self):
        # the Jacobi matrix is dense, so orders above 400 are refused
        with pytest.raises(ArithmeticError):
            plain_rule(0.5, 401)

    @given(kappa=st.floats(0.0, 5.0), n=st.integers(180, 400))
    @settings(max_examples=30, deadline=None)
    def test_high_orders_below_ceiling(self, kappa, n):
        # every order up to the ceiling of 400 gives finite, positive plain
        # weights and accurate even moments
        nodes, weights = plain_rule(kappa, n)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)
        weights = weights * np.exp(-(nodes**2))
        for m in range(10):
            approx = np.sum(weights * nodes ** (2 * m))
            assert approx == pytest.approx(math.gamma(m + kappa + 0.5), rel=1e-12)

    def test_fringe_weights_positive(self):
        # the weights are Christoffel numbers kept as logarithms, so even the
        # outermost plain weights are positive: none underflows to zero
        for n in (220, 400):
            nodes, weights = plain_rule(0.5, n)
            assert np.all(np.isfinite(weights)) and np.all(weights > 0)
            got = np.sum(weights * np.exp(-(nodes**2)))
            assert got == pytest.approx(math.gamma(1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "bad", [(-0.1, 8), (0.5, 0), (0.5, 8, 0.0), (0.5, 8, np.nan), (0.5, 8, np.inf)]
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            plain_rule(*bad)


class TestPlainRule:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_integral(self, sigma):
        kappa = 0.8
        nodes, weights = plain_rule(kappa, 24, sigma)
        # integral of |x|^{2 kappa} e^{-sigma x^2} dx
        exact = sigma ** (-(kappa + 0.5)) * math.gamma(kappa + 0.5)
        assert np.sum(weights * np.exp(-sigma * nodes**2)) == pytest.approx(exact, rel=1e-12)

    def test_polynomial_times_gaussian(self):
        nodes, weights = plain_rule(0.0, 24, sigma=0.5)
        # integral x^2 e^{-x^2/2} dx = sqrt(2 pi)
        got = np.sum(weights * nodes**2 * np.exp(-0.5 * nodes**2))
        assert got == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)


class TestTensorGrid:
    def test_normalization_identity(self, basis_2d):
        # integral of h^2 e^{-|x|^2} factorizes into per-axis Gamma values
        grid = basis_2d.grid
        exact = np.prod([math.gamma(k + 0.5) for k in basis_2d.structure.kappa])
        got = np.sum(grid.weights * np.exp(-(grid.nodes**2).sum(axis=-1)))
        assert got == pytest.approx(exact, rel=1e-12)

    def test_separable_integrand(self):
        s = DunklStructure(2, (0.5, 1.5))
        grid = tensor_grid(s, 12)
        x, y = grid.nodes.T
        got = np.sum(grid.weights * x**2 * y**4 * np.exp(-(x**2) - y**2))
        exact = math.gamma(2.0) * math.gamma(4.0)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_grid_is_product_of_plain_rules(self):
        # row-major product of the per-axis rules, last coordinate fastest,
        # exact for x^{2a} y^{2b} e^{-|x|^2} against h^2 dx
        s = DunklStructure(2, (0.5, 1.5))
        grid = tensor_grid(s, [10, 7])
        (x0, w0), (x1, w1) = plain_rule(0.5, 10), plain_rule(1.5, 7)
        assert grid.orders == (10, 7) and grid.npoints == x0.size * x1.size
        np.testing.assert_array_equal(grid.nodes[:, 0], np.repeat(x0, x1.size))
        np.testing.assert_array_equal(grid.nodes[:, 1], np.tile(x1, x0.size))
        np.testing.assert_array_equal(grid.weights, np.outer(w0, w1).ravel())
        x, y = grid.nodes.T
        gauss = np.exp(-(x**2 + y**2))
        for a, b in [(0, 0), (1, 0), (2, 3), (4, 6)]:
            got = np.sum(grid.weights * x ** (2 * a) * y ** (2 * b) * gauss)
            exact = math.gamma(a + 0.5 + 0.5) * math.gamma(b + 1.5 + 0.5)
            assert got == pytest.approx(exact, rel=1e-12), (a, b)

    def test_order_broadcast(self):
        s = DunklStructure(2, (0.0, 1.0))
        assert tensor_grid(s, 8).npoints == tensor_grid(s, [8, 8]).npoints
        with pytest.raises(ValueError):
            tensor_grid(s, [8, 8, 8])


class TestNorms:
    def test_l2_of_gaussian(self, basis_1d_half):
        grid = basis_1d_half.grid
        samples = np.exp(-0.5 * grid.nodes[:, 0] ** 2)
        # ||e^{-x^2/2}||_{L^2_kappa}^2 = Gamma(1) for kappa = 1/2
        assert weighted_lp_norm(grid, samples, 2) == pytest.approx(1.0, rel=1e-12)

    def test_linf(self, basis_1d_half):
        grid = basis_1d_half.grid
        samples = np.exp(-grid.nodes[:, 0] ** 2)
        assert weighted_lp_norm(grid, samples, np.inf) == pytest.approx(samples.max())

    def test_rejects_bad_input(self, basis_1d_half):
        grid = basis_1d_half.grid
        with pytest.raises(ValueError):
            weighted_lp_norm(grid, np.ones(3), 2)
        with pytest.raises(ValueError):
            weighted_lp_norm(grid, np.full(grid.npoints, np.nan), 2)
        with pytest.raises(ValueError):
            weighted_lp_norm(grid, np.ones((2, 3, grid.npoints)), 2)
        for p in (0.5, np.nan):
            with pytest.raises(ValueError, match="p must be >= 1"):
                weighted_lp_norm(grid, np.ones(grid.npoints), p)
            with pytest.raises(ValueError, match="p must be >= 1"):
                mixed_norm(time_grid(0.0, 1.0, 3), grid, np.ones((3, grid.npoints)), p, 2)

    @pytest.mark.parametrize("p", [1, 1.5, 3, np.inf])
    def test_stack_is_one_norm_per_row(self, basis_2d, p):
        # bitwise: numpy's scalar and array powers can differ in the last bit,
        # which several seeds show when one row and a stack take different paths
        grid = basis_2d.grid
        for seed in range(10):
            rng = np.random.default_rng(seed)
            samples = rng.normal(size=(5, grid.npoints)) * np.exp(-(grid.nodes**2).sum(axis=-1))
            got = weighted_lp_norm(grid, samples, p)
            np.testing.assert_array_equal(got, [weighted_lp_norm(grid, row, p) for row in samples])

    def test_mixed_norm_separable(self, basis_1d_half):
        grid = basis_1d_half.grid
        t, tau = time_grid(0.0, 1.0, 101)
        space = np.exp(-0.5 * grid.nodes[:, 0] ** 2)
        samples = np.outer(np.ones_like(t), space)
        # constant in time: L^p_t over [0,1] contributes 1
        got = mixed_norm((t, tau), grid, samples, 4, 2)
        assert got == pytest.approx(weighted_lp_norm(grid, space, 2), rel=1e-10)


class TestTimeGrid:
    def test_trapezoid_weights_sum(self):
        t, tau = time_grid(-1.0, 3.0, 17)
        assert np.sum(tau) == pytest.approx(4.0)

    def test_midpoint_exact_for_linear(self):
        t, tau = time_grid(0.0, 2.0, 10, kind="midpoint")
        assert np.sum(tau * (3 * t + 1)) == pytest.approx(8.0, rel=1e-14)

    def test_simpson_exact_for_cubic(self):
        t, tau = time_grid(0.0, 1.0, 11, kind="simpson")
        assert np.sum(tau * t**3) == pytest.approx(0.25, rel=1e-14)

    def test_simpson_rejects_even_count(self):
        with pytest.raises(ValueError):
            time_grid(0.0, 1.0, 10, kind="simpson")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            time_grid(0.0, 1.0, 8, kind="romberg")

    @pytest.mark.parametrize("kind, n", [("trapezoid", 1), ("trapezoid", 0), ("midpoint", 0)])
    def test_rejects_too_few_nodes(self, kind, n):
        with pytest.raises(ValueError):
            time_grid(0.0, 1.0, n, kind=kind)
