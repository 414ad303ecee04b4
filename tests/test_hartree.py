import numpy as np
import pytest

from dunklkit import (
    DunklStructure,
    DunklTransform1D,
    HartreeConfig,
    conjugate,
    density,
    interaction_potential,
    multiplication_matrix,
    picard_step,
    schatten_norm,
    solve_hartree,
)
from dunklkit.hartree import _potential_matrices


@pytest.fixture(scope="module")
def transform_half():
    return DunklTransform1D(0.5, order=80)


@pytest.fixture(scope="module")
def transform_classical():
    return DunklTransform1D(0.0, order=80)


def ground_state_operator(basis):
    m = np.zeros((basis.size, basis.size))
    m[0, 0] = 1.0
    return m


def loop_potentials(config, transform, traj):
    """The potential matrices one time node at a time."""
    basis = config.basis
    return np.stack([
        multiplication_matrix(
            basis,
            config.coupling * np.real(interaction_potential(
                transform,
                config.w_profile(transform.nodes),
                density(basis, g, transform.nodes),
                basis.grid.nodes[:, 0],
            )),
        )
        for g in traj
    ])


class TestTransform:
    def test_gaussian_fixed_point_classical(self, transform_classical):
        # D[e^{-x^2/2}](xi) = sqrt(2 pi) e^{-xi^2/2} in this convention
        tr = transform_classical
        hat = tr.forward(np.exp(-0.5 * tr.nodes**2))
        expected = np.sqrt(2 * np.pi) * np.exp(-0.5 * tr.xi_nodes**2)
        np.testing.assert_allclose(hat.real, expected, atol=1e-10)
        assert np.abs(hat.imag).max() < 1e-10

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    def test_inversion_roundtrip(self, kappa):
        tr = DunklTransform1D(kappa, order=80)
        f = np.exp(-0.7 * tr.nodes**2) * (1.0 + tr.nodes**2)
        back = tr.inverse(tr.forward(f))
        np.testing.assert_allclose(back.real, f, atol=1e-6)

    def test_plancherel(self, transform_half):
        # ||f||^2 = M^2 ||Df||^2 in the chosen normalization
        tr = transform_half
        f = np.exp(-0.6 * tr.nodes**2)
        lhs = np.sum(tr.weights * np.abs(f) ** 2)
        hat = tr.forward(f)
        rhs = DunklStructure(1, (tr.kappa,)).m_kappa ** 2 * np.sum(tr.xi_weights * np.abs(hat) ** 2)
        assert rhs == pytest.approx(lhs, rel=1e-6)


class TestInteraction:
    def test_classical_gaussian_convolution(self, transform_classical):
        # e^{-x^2/(2a)} * e^{-x^2/(2b)} closed form
        tr = transform_classical
        a, b = 1.0, 0.5
        w = np.exp(-(tr.nodes**2) / (2 * a))
        rho = np.exp(-(tr.nodes**2) / (2 * b))
        got = interaction_potential(tr, w, rho)
        c = a + b
        expected = np.sqrt(2 * np.pi * a * b / c) * np.exp(-(tr.nodes**2) / (2 * c))
        np.testing.assert_allclose(np.real(got), expected, atol=1e-8)

    def test_zero_density(self, transform_half):
        tr = transform_half
        w = np.exp(-(tr.nodes**2))
        out = interaction_potential(tr, w, np.zeros_like(tr.nodes))
        assert np.abs(out).max() == 0.0

    def test_mollifier_limit(self, transform_half):
        # narrow-Gaussian smoothing acts as the multiplier e^{-eps^2 xi^2 / 2}
        # on the transform side; at eps = 0.05 the smoothed density differs
        # from rho by < 1e-3 for a flat profile, and the error scales as eps^2
        tr = transform_half
        rho = np.exp(-(tr.nodes**2) / 8.0)
        rhat = tr.forward(rho)

        def smoothed(eps):
            return tr.inverse(np.exp(-0.5 * eps**2 * tr.xi_nodes**2) * rhat).real

        err1 = np.abs(smoothed(0.05) - rho).max()
        err2 = np.abs(smoothed(0.025) - rho).max()
        assert err1 < 1e-3
        assert err2 / err1 == pytest.approx(0.25, rel=0.05)


class TestPicard:
    def test_zero_coupling_is_free_flow(self, basis_1d_half):
        config = HartreeConfig(
            basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
            w_profile=lambda x: np.exp(-(x**2)),
            coupling=0.0,
            horizon=0.1,
            steps=9,
        )
        times, traj, diag = solve_hartree(config)
        assert diag["converged"]
        assert diag["iterations"] == 1
        # gamma0 commutes with H: trajectory is constant
        for i in range(times.size):
            assert np.abs(traj[i] - config.gamma0).max() < 1e-14

    def test_zero_interaction_schatten_invariance(self, basis_1d_half):
        basis = basis_1d_half
        rng = np.random.default_rng(4)
        c = rng.normal(size=(2, basis.size)) * np.exp(
            -0.2 * basis.multi_indices.sum(axis=1)
        )
        g0 = c.T @ c
        config = HartreeConfig(
            basis=basis, gamma0=g0, w_profile=lambda x: np.exp(-(x**2)), coupling=0.0,
            horizon=0.1, steps=9,
        )
        _, traj, diag = solve_hartree(config)
        p = config.schatten_exponent
        base = schatten_norm(g0, p)
        for val in diag["schatten"]:
            assert val == pytest.approx(base, rel=1e-12)

    def test_step_preserves_self_adjointness_and_trace(self, basis_1d_half):
        basis = basis_1d_half
        config = HartreeConfig(
            basis=basis, gamma0=ground_state_operator(basis),
            w_profile=lambda x: 0.3 * np.exp(-(x**2)),
            coupling=1.0,
            horizon=0.1,
            steps=9,
        )
        times = np.linspace(0.0, config.horizon, config.steps)
        traj = conjugate(basis, config.gamma0, times)
        new = picard_step(config, times, traj)
        for i in range(times.size):
            assert np.abs(new[i] - new[i].conj().T).max() < 1e-10
            assert abs(np.trace(new[i]).real - 1.0) < 1e-10
            assert abs(np.trace(new[i]).imag) < 1e-10

    def test_step_matches_loop_form(self, basis_1d_half):
        # the fixed-point map written node by node: rotated commutators,
        # running trapezoid sums, and diagonal-phase conjugations
        basis = basis_1d_half
        lam = basis.eigenvalues
        config = HartreeConfig(
            basis=basis, gamma0=ground_state_operator(basis),
            w_profile=lambda x: np.exp(-(x**2)),
            coupling=0.5,
            horizon=0.1,
            steps=9,
        )
        times = np.linspace(0.0, config.horizon, config.steps)
        _, traj, _ = solve_hartree(config)
        transform = DunklTransform1D(0.5, config.transform_order)

        def conj(a, t):
            phase = np.exp(-1j * t * lam)
            return (phase[:, None] * a) * phase.conj()[None, :]

        pots = loop_potentials(config, transform, traj)
        rotated = [conj(w @ g - g @ w, -t) for w, g, t in zip(pots, traj, times)]
        h = times[1] - times[0]
        expected = [conj(config.gamma0, times[0])]
        acc = np.zeros_like(traj[0])
        for i in range(1, times.size):
            acc = acc + 0.5 * h * (rotated[i - 1] + rotated[i])
            expected.append(conj(config.gamma0, times[i]) - 1j * conj(acc, times[i]))
        got = picard_step(config, times, traj, transform)
        np.testing.assert_allclose(got, np.stack(expected), rtol=0, atol=1e-14)

    def test_potentials_match_loop_form(self, basis_1d_half):
        basis = basis_1d_half
        rng = np.random.default_rng(8)
        c = np.zeros((3, basis.size), dtype=complex)
        c[:, :10] = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
        gamma0 = c.T @ c.conj() / 10.0
        config = HartreeConfig(basis=basis, gamma0=gamma0, w_profile=lambda x: np.exp(-(x**2)),
                               coupling=0.5, horizon=0.4, steps=7)
        traj = conjugate(basis, gamma0, np.linspace(0.0, config.horizon, config.steps))
        transform = DunklTransform1D(0.5, config.transform_order)
        np.testing.assert_allclose(
            _potential_matrices(config, transform, traj),
            loop_potentials(config, transform, traj),
            rtol=0, atol=1e-14,
        )

    def test_contraction_and_trace_drift(self, basis_1d_half):
        config = HartreeConfig(
            basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
            w_profile=lambda x: np.exp(-(x**2)),
            coupling=0.5,
            horizon=0.1,
            steps=17,
        )
        times, traj, diag = solve_hartree(config)
        assert diag["converged"]
        for f in diag["contraction_factors"]:
            assert f < 1.0
        drift = max(abs(tr - diag["traces"][0]) for tr in diag["traces"])
        assert drift < 1e-8

    def test_rejects_bad_config(self, basis_1d_half, basis_2d):
        basis = basis_1d_half
        m = np.zeros((basis.size, basis.size), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            HartreeConfig(
                basis=basis, gamma0=m, w_profile=lambda x: x, horizon=0.1
            )
        with pytest.raises(ValueError):
            HartreeConfig(
                basis=basis, gamma0=ground_state_operator(basis), w_profile=lambda x: x,
                horizon=-1.0,
            )
        with pytest.raises(ValueError):
            HartreeConfig(
                basis=basis_2d, gamma0=ground_state_operator(basis_2d), w_profile=lambda x: x,
                horizon=0.1,
            )

    def test_rejects_bad_operator_shape(self, basis_1d_half):
        m = np.eye(basis_1d_half.size - 1)
        with pytest.raises(ValueError, match="initial operator"):
            HartreeConfig(basis=basis_1d_half, gamma0=m, w_profile=lambda x: x)

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coupling(self, basis_1d_half, coupling):
        with pytest.raises(ValueError, match="coupling"):
            HartreeConfig(
                basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
                w_profile=lambda x: x, coupling=coupling,
            )
