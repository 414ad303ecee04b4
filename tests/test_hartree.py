import numpy as np
import pytest

from dunklkit import (
    DunklStructure,
    HartreeConfig,
    build_basis,
    conjugate,
    density,
    gaussian_interaction,
    hermite_functions_1d,
    multiplication_matrix,
    picard_step,
    schatten_norm,
    solve_hartree,
    tensor_grid,
)
from dunklkit.hartree import _SCHATTEN_EXPONENT, _potential_matrices
from transform_oracle import DunklTransform1D, interaction_potential


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


def loop_potentials(config, traj):
    """The potential matrices one time node at a time."""
    basis = config.basis
    points, g = gaussian_interaction(basis, config.width)
    return np.stack([
        multiplication_matrix(basis, config.coupling * (g @ density(basis, gamma, points)))
        for gamma in traj
    ])


def full_degree_operator(basis, seed, rank=3):
    """A positive operator of the given rank with every basis mode occupied,
    so that its density has the full degree 2N per axis."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(rank, basis.size)) + 1j * rng.normal(size=(rank, basis.size))
    return c.T @ c.conj() / (rank * basis.size)


def direct_convolution(basis, gamma, width):
    """kappa = 0: the integral of e^{-|x - y|^2 / width^2} rho_gamma(y) dy at
    the basis grid nodes.  As rho is a sum of products of 1-D functions, it is
    a sum of products of the 1-D integrals of e^{-(x - y)^2 / width^2}
    phi_m(y) phi_n(y), each by the trapezoid rule on a uniform grid fine
    enough for the profile and the density (spectrally accurate here)."""
    n, mi = basis.per_dim_degree, basis.multi_indices
    h = min(0.02, width / 12.0)
    y = np.arange(-16.0, 16.0 + h / 2, h)
    table = hermite_functions_1d(0.0, n, y)
    pairs = (table[:, None, :] * table[None, :, :]).reshape((n + 1) ** 2, -1)
    out = np.real(gamma)[None]
    for j in range(basis.structure.d):
        profile = np.exp(-(((basis.grid.nodes[:, j, None] - y) / width) ** 2))
        ints = (h * profile @ pairs.T).reshape(-1, n + 1, n + 1)
        out = out * ints[:, mi[:, j][:, None], mi[:, j][None, :]]
    return out.sum(axis=(1, 2))


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

    @pytest.mark.parametrize("d, n_degree, order", [(1, 24, 32), (2, 6, 8)])
    @pytest.mark.parametrize("width", [0.05, 0.3, 1.0, 3.0])
    def test_heat_route_matches_direct_convolution(self, d, n_degree, order, width):
        s = DunklStructure(d, (0.0,) * d)
        basis = build_basis(s, n_degree, tensor_grid(s, order))
        gamma = full_degree_operator(basis, seed=d)
        points, g = gaussian_interaction(basis, width)
        got = g @ density(basis, gamma, points)
        expected = direct_convolution(basis, gamma, width)
        assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()

    # the transform route resolves widths 1 and 3 to round-off at order 120;
    # at width 0.5 its own error is about 4e-9
    @pytest.mark.parametrize("kappa", [0.5, 1.5])
    @pytest.mark.parametrize("width, tol", [(0.5, 1e-7), (1.0, 1e-9), (3.0, 1e-9)])
    def test_heat_route_matches_transform_route(self, kappa, width, tol):
        s = DunklStructure(1, (kappa,))
        basis = build_basis(s, 32, tensor_grid(s, 48))
        gamma = full_degree_operator(basis, seed=7)
        points, g = gaussian_interaction(basis, width)
        got = g @ density(basis, gamma, points)
        tr = DunklTransform1D(kappa, order=120)
        expected = np.real(interaction_potential(
            tr, np.exp(-((tr.nodes / width) ** 2)), density(basis, gamma, tr.nodes),
            basis.grid.nodes[:, 0],
        ))
        assert np.abs(got - expected).max() <= tol * np.abs(expected).max()

    @pytest.mark.parametrize("width", [1e-3, 1.0, 1e3, 1e200])
    def test_heat_route_finite_at_the_largest_grid_order(self, width):
        # nodes reach |x| = 39.5 at order 400, where e^{|x|^2 / 2} overflows
        s = DunklStructure(1, (0.5,))
        basis = build_basis(s, 16, tensor_grid(s, 400))
        points, g = gaussian_interaction(basis, width)
        assert np.isfinite(g).all()
        w = g @ density(basis, full_degree_operator(basis, seed=1), points)
        assert np.isfinite(w).all() and w.min() >= -1e-12 * w.max() and w.max() > 0.0

    def test_heat_route_is_positive_and_covariant(self, basis_1d_half):
        # the kernel of w * . is positive, and rho(-x) gives W(-x)
        gamma = full_degree_operator(basis_1d_half, seed=3)
        points, g = gaussian_interaction(basis_1d_half, 0.7)
        w = g @ density(basis_1d_half, gamma, points)
        parity = (-1.0) ** basis_1d_half.multi_indices[:, 0]
        w_flip = g @ density(basis_1d_half, parity[:, None] * gamma * parity, points)
        assert w.min() >= -1e-13 * w.max()
        np.testing.assert_allclose(w_flip, w[::-1], rtol=0, atol=1e-13 * w.max())


class TestPicard:
    def test_zero_coupling_is_free_flow(self, basis_1d_half):
        config = HartreeConfig(
            basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
            width=1.0,
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
            basis=basis, gamma0=g0, width=1.0, coupling=0.0,
            horizon=0.1, steps=9,
        )
        _, traj, diag = solve_hartree(config)
        base = schatten_norm(g0, _SCHATTEN_EXPONENT)
        for val in diag["schatten"]:
            assert val == pytest.approx(base, rel=1e-12)

    def test_step_preserves_self_adjointness_and_trace(self, basis_1d_half):
        basis = basis_1d_half
        config = HartreeConfig(
            basis=basis, gamma0=ground_state_operator(basis),
            width=1.0,
            coupling=0.3,
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
            width=1.0,
            coupling=0.5,
            horizon=0.1,
            steps=9,
        )
        times = np.linspace(0.0, config.horizon, config.steps)
        _, traj, _ = solve_hartree(config)

        def conj(a, t):
            phase = np.exp(-1j * t * lam)
            return (phase[:, None] * a) * phase.conj()[None, :]

        pots = loop_potentials(config, traj)
        rotated = [conj(w @ g - g @ w, -t) for w, g, t in zip(pots, traj, times)]
        h = times[1] - times[0]
        expected = [conj(config.gamma0, times[0])]
        acc = np.zeros_like(traj[0])
        for i in range(1, times.size):
            acc = acc + 0.5 * h * (rotated[i - 1] + rotated[i])
            expected.append(conj(config.gamma0, times[i]) - 1j * conj(acc, times[i]))
        got = picard_step(config, times, traj)
        np.testing.assert_allclose(got, np.stack(expected), rtol=0, atol=1e-14)

    def test_potentials_match_loop_form(self, basis_1d_half):
        basis = basis_1d_half
        rng = np.random.default_rng(8)
        c = np.zeros((3, basis.size), dtype=complex)
        c[:, :10] = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
        gamma0 = c.T @ c.conj() / 10.0
        config = HartreeConfig(basis=basis, gamma0=gamma0, width=1.0,
                               coupling=0.5, horizon=0.4, steps=7)
        traj = conjugate(basis, gamma0, np.linspace(0.0, config.horizon, config.steps))
        np.testing.assert_allclose(
            _potential_matrices(config, gaussian_interaction(basis, config.width), traj),
            loop_potentials(config, traj),
            rtol=0, atol=1e-14,
        )

    def test_contraction_and_trace_drift(self, basis_1d_half):
        config = HartreeConfig(
            basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
            width=1.0,
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

    def test_rejects_bad_config(self, basis_1d_half):
        basis = basis_1d_half
        m = np.zeros((basis.size, basis.size), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            HartreeConfig(basis=basis, gamma0=m, horizon=0.1)
        with pytest.raises(ValueError):
            HartreeConfig(basis=basis, gamma0=ground_state_operator(basis), horizon=-1.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_width(self, basis_1d_half, width):
        with pytest.raises(ValueError, match="width"):
            HartreeConfig(basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
                          width=width)

    def test_rejects_bad_operator_shape(self, basis_1d_half):
        m = np.eye(basis_1d_half.size - 1)
        with pytest.raises(ValueError, match="initial operator"):
            HartreeConfig(basis=basis_1d_half, gamma0=m)

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coupling(self, basis_1d_half, coupling):
        with pytest.raises(ValueError, match="coupling"):
            HartreeConfig(
                basis=basis_1d_half, gamma0=ground_state_operator(basis_1d_half),
                coupling=coupling,
            )

    def test_two_dimensions(self, basis_2d):
        # the same code at d = 2: a contraction that keeps the trace
        config = HartreeConfig(basis=basis_2d, gamma0=ground_state_operator(basis_2d),
                               width=1.0, coupling=0.5, horizon=0.1, steps=9)
        _, traj, diag = solve_hartree(config)
        assert diag["converged"]
        assert all(f < 1.0 for f in diag["contraction_factors"])
        assert max(abs(tr - diag["traces"][0]) for tr in diag["traces"]) < 1e-8
        assert np.abs(traj - traj.conj().transpose(0, 2, 1)).max() < 1e-12
