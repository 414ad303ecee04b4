import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from dunklkit import DunklStructure, dunkl_kernel_1d
from dunklkit.structure import _kernel_product


class TestStructure:
    def test_derived_constants(self):
        s = DunklStructure(2, (1.0, 0.5))
        assert s.gamma_kappa == 1.5
        assert s.d_eff == 5.0
        expected = 1.0 / (2.0**1.5 * gamma(1.5)) / (2.0**1.0 * gamma(1.0))
        assert s.m_kappa == pytest.approx(expected, rel=1e-14)

    def test_classical_normalization(self):
        # kappa = 0: the constant is (2 pi)^{-d/2}
        for d in (1, 2, 3):
            s = DunklStructure(d, (0.0,) * d)
            assert s.m_kappa == pytest.approx((2 * np.pi) ** (-d / 2), rel=1e-14)

    @pytest.mark.parametrize(
        "d,kappa",
        [(0, ()), (2, (1.0,)), (1, (-0.5,)), (1, (np.nan,)), (1, (np.inf,)),
         # M_kappa needs Gamma(kappa + 1/2) and 2^{kappa + 1/2}, which overflow
         (1, (200.0,)), (2, (0.5, 2000.0))],
    )
    def test_invalid_input(self, d, kappa):
        with pytest.raises(ValueError):
            DunklStructure(d, kappa)


class TestKernel1D:
    def test_at_zero(self):
        for kappa in (0.0, 0.5, 1.3):
            assert dunkl_kernel_1d(kappa, 0.0, 1.7) == pytest.approx(1.0)

    def test_classical_limit_is_exponential(self):
        z = np.linspace(-30, 30, 41)
        np.testing.assert_allclose(dunkl_kernel_1d(0.0, 1.0, z), np.exp(z), rtol=1e-14)

    def test_against_hypergeometric_oracle(self):
        # independent route: E = e^z 1F1(kappa; 2 kappa + 1; -2z), high precision
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for kappa in (0.3, 0.5, 1.0, 2.5):
            for z in (-20.0, -5.0, -0.7, 0.4, 3.0, 12.0, 40.0, 2.0 + 7.0j, -1.0 + 15.0j):
                ref = complex(
                    mpmath.exp(z) * mpmath.hyp1f1(kappa, 2 * kappa + 1, -2 * z)
                )
                val = dunkl_kernel_1d(kappa, 1.0, z)
                assert val == pytest.approx(ref, rel=5e-13, abs=1e-280), (kappa, z)

    @pytest.mark.parametrize("kappa", [100.0, 170.0, 172.0])
    def test_bessel_route_at_large_multiplicity(self, kappa):
        # Gamma(kappa + 1/2) overflows above kappa ~ 171, the kernel does not;
        # radius 50 is outside the series radius sqrt(4 kappa + 2) at each kappa
        mpmath = pytest.importorskip("mpmath")
        for radius in (9.0, 20.0, 50.0):
            for phase in (0.0, 0.7, np.pi / 2, 2.2, np.pi, -np.pi / 2):
                z = complex(radius * np.exp(1j * phase))
                with mpmath.workdps(50):
                    zm = mpmath.mpc(z)
                    ref = complex(mpmath.hyp0f1(kappa + 0.5, zm**2 / 4)
                                  + zm / (2 * kappa + 1) * mpmath.hyp0f1(kappa + 1.5, zm**2 / 4))
                val = dunkl_kernel_1d(kappa, 1.0, z)
                assert val == pytest.approx(ref, rel=5e-13), (kappa, z)

    @pytest.mark.parametrize("z", [9.0, 20.0j, -20.0, 12.0 - 5.0j])
    def test_series_inside_the_grown_radius(self, z):
        # at kappa = 300 the series serves |z| <= sqrt(4 kappa + 2) ~ 34.7,
        # where J_{kappa + 1/2}(|z|) is below the smallest double
        mpmath = pytest.importorskip("mpmath")
        kappa = 300.0
        with mpmath.workdps(50):
            zm = mpmath.mpc(z)
            ref = complex(mpmath.hyp0f1(kappa + 0.5, zm**2 / 4)
                          + zm / (2 * kappa + 1) * mpmath.hyp0f1(kappa + 1.5, zm**2 / 4))
        assert dunkl_kernel_1d(kappa, 1.0, z) == pytest.approx(ref, rel=5e-13)

    @pytest.mark.parametrize("kappa", [15.5, 20.0, 50.0, 120.0, 171.0, 300.0])
    def test_grown_switchover_against_hypergeometric_oracle(self, kappa):
        # both routes just inside and just outside |z| = sqrt(4 kappa + 2)
        mpmath = pytest.importorskip("mpmath")
        for side in (0.999, 1.001):
            for phase in np.linspace(0.0, 2 * np.pi, 13):
                z = complex(side * np.sqrt(4 * kappa + 2) * np.exp(1j * phase))
                with mpmath.workdps(50):
                    zm = mpmath.mpc(z)
                    ref = complex(mpmath.hyp0f1(kappa + 0.5, zm**2 / 4)
                                  + zm / (2 * kappa + 1) * mpmath.hyp0f1(kappa + 1.5, zm**2 / 4))
                val = dunkl_kernel_1d(kappa, 1.0, z)
                assert val == pytest.approx(ref, rel=5e-13), (kappa, z)

    @pytest.mark.parametrize("z", [50.0, 50.0j])
    def test_bessel_route_underflow_raises(self, z):
        # outside the series radius sqrt(4 kappa + 2) ~ 44.7 at kappa = 500,
        # J_{kappa + 1/2}(|z|) is below the smallest double
        with pytest.raises(ArithmeticError, match=r"kappa=500\.0 at \|z\|="):
            dunkl_kernel_1d(500.0, 1.0, z)

    def test_route_continuity_at_switchover(self):
        # series (|z| <= 8) and Bessel (|z| > 8) must agree across the seam
        for kappa in (0.4, 1.5):
            for phase in np.linspace(0, 2 * np.pi, 9):
                lo = dunkl_kernel_1d(kappa, 1.0, 7.999 * np.exp(1j * phase))
                hi = dunkl_kernel_1d(kappa, 1.0, 8.001 * np.exp(1j * phase))
                assert abs(lo - hi) < 2e-3 * (abs(lo) + abs(hi))

    @given(
        kappa=st.floats(0.0, 5.0),
        radius=st.floats(7.5, 8.5),
        phase=st.floats(0.0, 2 * np.pi, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_switchover_against_hypergeometric_oracle(self, kappa, radius, phase):
        # both routes near the |z| = 8 seam against e^z 1F1(kappa; 2 kappa + 1; -2z);
        # the error is measured on the scale e^{|Re z|} of the larger exponential
        mpmath = pytest.importorskip("mpmath")
        z = radius * np.exp(1j * phase)
        with mpmath.workdps(50):
            ref = complex(mpmath.exp(z) * mpmath.hyp1f1(kappa, 2 * kappa + 1, -2 * z))
        val = dunkl_kernel_1d(kappa, 1.0, z)
        assert abs(val - ref) <= 1e-12 * np.exp(abs(z.real)), (kappa, z)

    @given(
        kappa=st.floats(0.0, 3.0),
        x=st.floats(-10.0, 10.0),
        y=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_imaginary_argument_bounded(self, kappa, x, y):
        # |E(ix, y)| <= 1 for real arguments
        assert abs(dunkl_kernel_1d(kappa, 1j * x, y)) <= 1.0 + 5e-13

    @given(kappa=st.floats(0.0, 2.0), z=st.floats(-40.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_real_argument_positive(self, kappa, z):
        # E > 0 on the real line; for z << 0 the value ~ e^{-|z|} sits under
        # cancellation noise of size ~ eps * e^{|z|}, so positivity is only
        # assertable above that floor
        val = dunkl_kernel_1d(kappa, 1.0, z)
        floor = 1e-13 * np.exp(abs(z))
        assert np.real(val) > -floor
        if abs(val) > 10 * floor:
            assert np.real(val) > 0.0
        assert abs(np.imag(val)) <= floor + 1e-13 * abs(val)

    def test_symmetry_in_arguments(self):
        # E(a x, y) depends on the product only: swap x and y freely
        a = dunkl_kernel_1d(0.7, 2.0, 3.0)
        b = dunkl_kernel_1d(0.7, 3.0, 2.0)
        assert a == pytest.approx(b, rel=1e-14)


class TestKernelProduct:
    def test_factorizes(self):
        s = DunklStructure(2, (0.3, 1.2))
        x = np.array([1.1, -0.4])
        y = np.array([0.8, 2.0])
        expected = dunkl_kernel_1d(0.3, 1.1, 0.8) * dunkl_kernel_1d(1.2, -0.4, 2.0)
        assert _kernel_product(s, 1.0, x, y) == pytest.approx(expected, rel=1e-14)

    def test_broadcasting_lattice(self):
        s = DunklStructure(1, (0.5,))
        x = np.linspace(-2, 2, 5)
        out = _kernel_product(s, 1j, x[:, None, None], x[None, :, None])
        assert out.shape == (5, 5)
        assert np.all(np.abs(out) <= 1.0 + 1e-13)
