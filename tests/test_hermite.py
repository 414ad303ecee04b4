from math import factorial

import numpy as np
import pytest

from dunklkit import (
    DunklStructure,
    SingularTimeError,
    build_basis,
    hermite_functions_1d,
    kernel_Kit,
    multiplication_matrix,
    propagated_density,
    tensor_grid,
)
from dunklkit.hermite import box_multi_indices

from conftest import random_state
from kernel_oracle import kernel_quadrature, mehler_closed_form


class TestBasis:
    @pytest.mark.parametrize(
        "fixture", ["basis_1d_half", "basis_1d_classical", "basis_2d"]
    )
    def test_gram_identity(self, fixture, request):
        basis = request.getfixturevalue(fixture)
        gram = multiplication_matrix(basis, np.ones(basis.grid.npoints))
        assert np.abs(gram - np.eye(basis.size)).max() < 1e-10

    def test_classical_matches_physicists_hermite(self, basis_1d_classical):
        # kappa = 0 must reproduce the textbook Hermite functions
        x = np.linspace(-3, 3, 11)
        table = hermite_functions_1d(0.0, 6, x)
        for n in range(7):
            coef = np.zeros(n + 1)
            coef[n] = 1.0
            hn = np.polynomial.hermite.hermval(x, coef)
            ref = hn * np.exp(-0.5 * x**2) / np.sqrt(
                2.0**n * factorial(n) * np.sqrt(np.pi)
            )
            np.testing.assert_allclose(table[n], ref, atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 0.8, 1.5, 5.0])
    def test_laguerre_closed_form_oracle(self, kappa):
        # phi_{2m}   = (-1)^m sqrt(m! / Gamma(m + kappa + 1/2)) L_m^{kappa-1/2}(x^2) e^{-x^2/2}
        # phi_{2m+1} = (-1)^m sqrt(m! / Gamma(m + kappa + 3/2)) x L_m^{kappa+1/2}(x^2) e^{-x^2/2}
        # with L_m^a(u) = sum_j (-1)^j binom(m + a, m - j) u^j / j! summed at
        # 60 digits (mpmath.laguerre fails to converge at the root L_1^0(1) = 0)
        mpmath = pytest.importorskip("mpmath")
        nmax = 60
        x = np.linspace(-7, 7, 15)
        table = hermite_functions_1d(kappa, nmax, x)
        ref = np.empty_like(table)
        with mpmath.workdps(60):
            u = [mpmath.mpf(xi) ** 2 for xi in x]
            gauss = [mpmath.exp(-ui / 2) for ui in u]
            for n in range(nmax + 1):
                m, odd = divmod(n, 2)
                a = mpmath.mpf(kappa) - 0.5 + odd
                norm = (-1) ** m * mpmath.sqrt(mpmath.factorial(m) / mpmath.gamma(m + a + 1))
                coef = [(-1) ** j * mpmath.binomial(m + a, m - j) / mpmath.factorial(j)
                        for j in range(m, -1, -1)]
                for i, xi in enumerate(x):
                    val = norm * mpmath.polyval(coef, u[i]) * gauss[i]
                    ref[n, i] = float(val * xi if odd else val)
        assert np.abs(table - ref).max() <= 1e-13 * np.abs(table).max()

    def test_positive_at_infinity_sign_convention(self, basis_1d_one):
        vals = basis_1d_one.evaluate(np.array([[6.0]]))
        # e^{-18} suppressed but the sign of every function is + at large x
        assert np.all(vals[:20] > 0)

    def test_box_ordering(self):
        mi = box_multi_indices(2, 2)
        assert mi.shape == (9, 2)
        totals = mi.sum(axis=1)
        assert np.all(np.diff(totals) >= 0)

    def test_project_roundtrip(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=3, band=20)
        # quadrature projection of Gaussian-enveloped samples onto the basis
        samples = u @ basis_1d_half.eval_table
        coeffs = (basis_1d_half.eval_table * basis_1d_half.grid.weights) @ samples
        np.testing.assert_allclose(coeffs, u, atol=1e-10)

    def test_grid_order_guard(self):
        s = DunklStructure(1, (0.5,))
        with pytest.raises(ValueError):
            build_basis(s, 32, tensor_grid(s, 16))


class TestMehler:
    @pytest.mark.parametrize("w", [0.3, 0.5, 0.7])
    def test_closed_form_vs_series(self, w):
        # the series tail is ~ w^{N+1}/(1-w), so N = 100 keeps the truncated
        # sum itself below 1e-13 even at w = 0.7
        s = DunklStructure(1, (0.8,))
        x = np.linspace(-2, 2, 5)
        table = hermite_functions_1d(0.8, 100, x)
        series = np.einsum("n,nx,ny->xy", w ** np.arange(101.0), table, table)
        closed = mehler_closed_form(s, w, x[:, None], x[None, :])
        np.testing.assert_allclose(closed, series, rtol=1e-10)

    def test_2d_factorizes(self):
        s = DunklStructure(2, (0.5, 1.0))
        s1 = DunklStructure(1, (0.5,))
        s2 = DunklStructure(1, (1.0,))
        x = np.array([0.7, -1.2])
        y = np.array([-0.3, 0.9])
        joint = mehler_closed_form(s, 0.4, x, y)
        split = mehler_closed_form(s1, 0.4, x[:1], y[:1]) * mehler_closed_form(
            s2, 0.4, x[1:], y[1:]
        )
        assert joint == pytest.approx(split, rel=1e-13)

    def test_rejects_unit_parameter(self):
        s = DunklStructure(1, (0.5,))
        with pytest.raises(ValueError):
            mehler_closed_form(s, 1.0, 0.1, 0.2)


class TestOscillatorKernel:
    def test_symmetric_in_x_y(self):
        s = DunklStructure(1, (0.7,))
        x = np.linspace(-2, 2, 7)
        k = kernel_Kit(s, 0.3, x[:, None], x[None, :])
        np.testing.assert_allclose(k, k.T, rtol=1e-13)

    def test_time_reversal_is_conjugation(self):
        s = DunklStructure(2, (0.5, 1.0))
        x = np.array([0.4, -0.8])
        y = np.array([1.1, 0.2])
        a = kernel_Kit(s, 0.45, x, y)
        b = kernel_Kit(s, -0.45, x, y)
        assert a == pytest.approx(np.conj(b), rel=1e-13)

    @pytest.mark.parametrize("t", [0.2, 0.6, 1.2])
    def test_magnitude_bound(self, t):
        s = DunklStructure(1, (0.5,))
        x = np.linspace(-3, 3, 25)
        k = kernel_Kit(s, t, x[:, None], x[None, :])
        bound = s.m_kappa * abs(np.sin(2 * t)) ** (-0.5 * s.d_eff)
        assert np.abs(k).max() <= bound * (1 + 1e-12)

    def test_half_period_shift(self):
        # K at t + pi/2 equals e^{i pi e} K at t with x -> -x (sin 2t > 0 side)
        s = DunklStructure(1, (0.5,))
        e = 0.5 * s.d_eff
        x = np.linspace(-2, 2, 9)
        y = np.linspace(-2, 2, 9)
        t = 0.35
        shifted = kernel_Kit(s, t + np.pi / 2, x[:, None], y[None, :])
        base = kernel_Kit(s, t, -x[:, None], y[None, :])
        np.testing.assert_allclose(shifted, np.exp(1j * np.pi * e) * base, rtol=1e-11)

    @pytest.mark.parametrize("t", [0.0, np.pi / 2, -np.pi, 3 * np.pi / 2])
    def test_singular_times_raise(self, t):
        s = DunklStructure(1, (0.5,))
        with pytest.raises(SingularTimeError):
            kernel_Kit(s, t, 0.1, 0.2)


class TestPropagation:
    def test_unitarity_and_group_law(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=1)
        lam = basis_1d_half.eigenvalues
        v = np.exp(-1j * 0.7 * lam) * u
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
        w1 = np.exp(-1j * 0.5 * lam) * v
        w2 = np.exp(-1j * 1.2 * lam) * u
        np.testing.assert_allclose(w1, w2, rtol=1e-13)

    def test_period_is_pi_up_to_phase(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=2)
        v = np.exp(-1j * np.pi * basis_1d_half.eigenvalues) * u
        # eigenvalues 2|mu| + d_eff: e^{-i pi lambda} = e^{-i pi d_eff} const
        phase = np.exp(-1j * np.pi * basis_1d_half.structure.d_eff)
        np.testing.assert_allclose(v, phase * u, rtol=1e-12)

    @pytest.mark.parametrize("t", [0.3, 0.7, -0.4])
    def test_spectral_vs_kernel_quadrature(self, basis_1d_half, t):
        u = random_state(basis_1d_half, seed=5, band=16)
        x = np.linspace(-3, 3, 21)
        basis = basis_1d_half
        spectral = (np.exp(-1j * t * basis.eigenvalues) * u) @ basis.evaluate(x[:, None])
        s = basis.structure
        direct = kernel_quadrature(basis, u, lambda x, y: kernel_Kit(s, t, x, y), x)
        np.testing.assert_allclose(direct, spectral, atol=1e-8)

    def test_ground_state_closed_form(self, basis_1d_one):
        # phi_0 is an eigenstate: e^{-itH} phi_0 = e^{-it d_eff} phi_0
        basis = basis_1d_one
        c = np.zeros(basis.size, dtype=complex)
        c[0] = 1.0
        t = 0.9
        evolved = np.exp(-1j * t * basis.eigenvalues) * c
        expected = np.exp(-1j * t * basis.structure.d_eff) * c
        np.testing.assert_allclose(evolved, expected, rtol=1e-14)


    @pytest.mark.parametrize("j_count", [1, 3])
    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_density_of_propagated_states(self, request, fixture, j_count):
        # oracle: sum_j n_j |values of e^{-itH} f_j|^2, one time at a time;
        # the two sum their M products in different orders, so they agree to
        # the dot-product rounding bound M eps (largest entry)
        basis = request.getfixturevalue(fixture)
        states = [random_state(basis, seed=10 + j) for j in range(j_count)]
        occupations = np.linspace(1.0, 0.2, j_count)
        times = np.array([-2.1, 0.0, 0.4, np.pi / 2 + 1e-9])
        oracle = np.stack([
            sum(n * np.abs((np.exp(-1j * t * basis.eigenvalues) * u) @ basis.eval_table) ** 2
                for n, u in zip(occupations, states))
            for t in times
        ])
        got = propagated_density(basis, np.stack(states), occupations, times)
        assert got.shape == (times.size, basis.grid.npoints)
        tol = basis.size * np.finfo(float).eps * np.abs(oracle).max()
        np.testing.assert_allclose(got, oracle, rtol=0, atol=tol)

