import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit import (
    DunklStructure,
    build_basis,
    conjugate,
    density,
    kss_check,
    mixed_xp_operator,
    multiplication_matrix,
    schatten_norm,
    tensor_grid,
)
from dunklkit.operators import (
    _chunks, _pairs_to_shells, _shells_to_pairs, flow_phases, parity_blocks,
)
from dunklkit.quadrature import time_grid
from dunklkit.strichartz import generate_system

from conftest import off_blocks, packed, random_state
import shell_oracle
from shell_oracle import eval_table
from freeprop_oracle import free_propagator_matrix


def rank_one(basis, seed=0, band=None):
    u = random_state(basis, seed=seed, band=band)
    return np.outer(u, u.conj())


def shell_phases(basis, t):
    """c_n = e^{-2int} for n = -dN..dN, one row per time, formed for every n
    from the shell numbers: the phases of the density of e^{-itH} A e^{itH}."""
    top = basis.structure.d * basis.per_dim_degree
    return np.exp(-2j * np.outer(t, np.arange(-top, top + 1)))


def shells(basis, a):
    """The complex shell densities G_n as rows, from the real shell pass of
    Re A and of Im A (unit-vector phases are not conjugate-symmetric, so
    ``density`` does not give them)."""
    return _pairs_to_shells(basis, a.real) + 1j * _pairs_to_shells(basis, a.imag)


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
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            schatten_norm(np.eye(3), 0.5)
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            schatten_norm(np.eye(3), np.nan)

    def test_large_exponent_stays_finite(self):
        # sigma^2000 overflows once sigma > 1.43; the sum scaled by the
        # largest singular value does not, against a log-sum-exp sum
        rng = np.random.default_rng(6)
        a = 3.0 * rng.normal(size=(12, 12))
        sigma = np.linalg.svd(a, compute_uv=False)
        assert sigma.max() > 2.0
        want = np.exp(np.logaddexp.reduce(2000.0 * np.log(sigma)) / 2000.0)
        got = schatten_norm(a, 2000.0)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

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
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
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


class TestDensity:
    def test_rank_one_density_is_modulus_squared(self, basis_1d_half):
        u = random_state(basis_1d_half, seed=4)
        gam = np.outer(u, u.conj())
        np.testing.assert_allclose(
            density(basis_1d_half, gam), np.abs(u @ eval_table(basis_1d_half)) ** 2, atol=1e-12
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
        # oracle: the complex contraction Re sum_{mu nu} T_mk A_mn T_nk on
        # the grid
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(12)
        m = basis.size
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        if hermitian:
            a = a + a.conj().T
        a = a / m
        table = eval_table(basis)
        oracle = np.real(np.einsum("mk,mn,nk->k", table, a, table))
        np.testing.assert_allclose(density(basis, a), oracle, rtol=0, atol=1e-12)


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
        np.testing.assert_array_equal(density(basis, a), np.stack([density(basis, g) for g in a]))


def time_averaged(basis, time_nodes, v_samples):
    """B = sum_t tau_t e^{itH} V_t e^{-itH}: the multiplication matrix of the
    samples with tau_t times the flow phases of -t on their shells."""
    t, tau = time_nodes
    return multiplication_matrix(basis, v_samples, tau[:, None] * flow_phases(basis, -t))


def dual_functional(basis, time_nodes, v_samples, qprime):
    return schatten_norm(time_averaged(basis, time_nodes, v_samples), 2.0 * qprime)


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

    def test_time_rule_resolution(self, basis_1d_half):
        # V = e^{-x^2/2} (1 + 0.3 cos 110t): with the shell phases e^{2int},
        # |n| <= 32, the integrand holds frequencies up to 174.  The 64-node
        # trapezoid rule on (-pi, pi) takes frequency 126 (shell n = 8) for a
        # constant and moves the value beyond criterion 9's 1e-4; the 128-
        # and 256-node rules integrate every frequency exactly and agree
        basis = basis_1d_half
        envelope = np.exp(-0.5 * basis.grid.nodes[:, 0] ** 2)
        qprime = 1.0 + basis.structure.d_eff / 2.0
        values = []
        for n in (64, 128, 256):
            t, tau = time_grid(-np.pi, np.pi, n)
            v = envelope * (1.0 + 0.3 * np.cos(110.0 * t))[:, None]
            values.append(dual_functional(basis, (t, tau), v, qprime))
        v64, v128, v256 = values
        assert abs(v64 - v128) > 1e-4 * v128
        assert abs(v128 - v256) <= 1e-13 * v256

    def test_shape_validation(self, basis_1d_half):
        with pytest.raises(ValueError):
            time_averaged(basis_1d_half, (np.zeros(3), np.ones(3)), np.zeros((2, 5)))


def even_potential(basis, t, seed):
    """(T, K) samples of e^{-|x|^2 / 2} (1 + a_t prod_j cos x_j), even in
    every x_j, with random amplitudes a_t."""
    x = basis.grid.nodes
    amp = np.random.default_rng(seed).normal(size=(t.size, 1))
    return np.exp(-0.5 * (x**2).sum(axis=-1)) * (1.0 + amp * np.cos(x).prod(axis=-1))


PARITY_BASES = {
    1: ((0.5,), 32, 48),
    2: ((1.0, 0.5), 10, 16),
    3: ((0.5, 1.0, 0.0), 4, 8),
}


class TestParityBlocks:
    @pytest.fixture(params=sorted(PARITY_BASES), ids=lambda d: f"d{d}")
    def basis(self, request):
        kappa, n_degree, order = PARITY_BASES[request.param]
        s = DunklStructure(request.param, kappa)
        return build_basis(s, n_degree, tensor_grid(s, order))

    @pytest.fixture
    def operator(self, basis):
        """B_V of an even V on the dual-schatten time rule."""
        t, tau = time_grid(-np.pi, np.pi, 64)
        return time_averaged(basis, (t, tau), even_potential(basis, t, seed=3))

    def test_blocks_partition_the_rows_by_parity(self, basis):
        blocks = parity_blocks(basis)
        assert len(blocks) == 2 ** basis.structure.d
        np.testing.assert_array_equal(np.sort(np.concatenate(blocks)), np.arange(basis.size))
        for rows in blocks:
            parity = basis.multi_indices[rows] % 2
            assert (parity == parity[0]).all()
        assert len({tuple(basis.multi_indices[rows[0]] % 2) for rows in blocks}) == len(blocks)

    def test_constant_basis_is_one_block(self):
        s = DunklStructure(2, (1.0, 0.5))
        [rows] = parity_blocks(build_basis(s, 0, tensor_grid(s, 2)))
        np.testing.assert_array_equal(rows, [0])

    def test_even_potential_is_zero_off_the_blocks(self, basis, operator):
        off = operator[off_blocks(basis)]
        assert np.abs(off).max() <= 1e-15 * np.abs(operator).max()

    def test_block_norms_match_svd(self, basis, operator):
        # each exponent alone and all of them at once
        ps = [1.0, 1.2, 2.0, 4.0, np.inf]
        blocks = parity_blocks(basis)
        got = schatten_norm(packed(operator, blocks), ps, blocks)
        np.testing.assert_allclose(got, schatten_norm(operator, ps), rtol=1e-13)
        np.testing.assert_array_equal(got, [schatten_norm(packed(operator, blocks), p, blocks)
                                            for p in ps])

    def test_stack_is_one_norm_per_matrix(self, basis):
        t, tau = time_grid(-np.pi, np.pi, 64)
        stack = np.stack([time_averaged(basis, (t, scale * tau), even_potential(basis, t, seed))
                          for seed, scale in enumerate([1.0, 0.1, 3.0])])
        blocks = parity_blocks(basis)
        got = schatten_norm(packed(stack, blocks), 1.2, blocks)
        np.testing.assert_array_equal(got, [schatten_norm(packed(b, blocks), 1.2, blocks)
                                            for b in stack])
        np.testing.assert_allclose(got, schatten_norm(stack, 1.2), rtol=1e-13)

    def test_blocks_are_the_whole_input(self, basis, operator):
        # the last axis holds the blocks' entries and nothing else
        blocks = parity_blocks(basis)
        with pytest.raises(ValueError, match="entries of the blocks"):
            schatten_norm(operator, 2.0, blocks)
        with pytest.raises(ValueError, match="entries of the blocks"):
            schatten_norm(packed(operator, blocks)[:-1], 2.0, blocks)


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
        b = time_averaged(basis, tn, v)
        oracle = node_loop(basis, tn, v)
        np.testing.assert_allclose(b, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_hermitian_for_real_potential(self, request, fixture):
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(9)
        tn = time_rule("random", rng)
        v = rng.normal(size=(tn[0].size, basis.grid.npoints))
        b = time_averaged(basis, tn, v)
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
        "t, tau, edit",
        [
            (np.linspace(-1, 1, 4), np.ones(4), None),
            (np.linspace(-1, 1, 6), np.ones(6), None),
            (np.array([0.0, np.nan, 0.5, 1.0, 1.5]), np.ones(5), None),
            (np.linspace(-1, 1, 5), np.array([1.0, 1.0, np.inf, 1.0, 1.0]), None),
            (np.zeros((5, 1)), np.ones((5, 1)), None),
            (np.linspace(-1, 1, 5), np.ones(5), "shell-count"),
            (np.linspace(-1, 1, 5), np.ones(5), "nan-sample"),
        ],
        ids=["short-weights", "long-weights", "nan-time", "infinite-weight", "two-d",
             "shell-count", "nan-sample"],
    )
    def test_rejects_bad_phases(self, basis_1d_half, t, tau, edit):
        # the time rule reaches the operator as its phases, one row per row of
        # the (5, K) samples
        basis = basis_1d_half
        v = np.ones((5, basis.grid.npoints))
        # an infinite weight times a phase with a zero part is NaN there
        with np.errstate(invalid="ignore"):
            c = tau[..., None] * flow_phases(basis, -t)
        if edit == "shell-count":
            c = c[:, 1:-1]
        elif edit == "nan-sample":
            v[2, 3] = np.nan
        with pytest.raises(ValueError, match="phases"):
            multiplication_matrix(basis, v, c)

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_shuffled_basis_is_equivariant(self, request, fixture):
        # entries are placed by the multi-indices, so a basis whose modes are
        # shuffled gives the permuted operator and the same density
        basis = request.getfixturevalue(fixture)
        order = np.random.default_rng(3).permutation(basis.size)
        shuffled = dataclasses.replace(
            basis,
            multi_indices=basis.multi_indices[order],
            eigenvalues=basis.eigenvalues[order],
        )
        assert np.any(np.diff(shuffled.multi_indices.sum(axis=1)) < 0)
        rng = np.random.default_rng(8)
        tn = time_rule("random", rng)
        shape = (tn[0].size, basis.grid.npoints)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = time_averaged(basis, tn, v)
        np.testing.assert_array_equal(time_averaged(shuffled, tn, v), b[order][:, order])
        m = basis.size
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        np.testing.assert_array_equal(density(shuffled, a[order][:, order]), density(basis, a))


class TestShellDensities:
    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    def test_densities_of_the_evolved_operator(self, request, fixture):
        # rho of e^{-itH} A e^{itH} is Re sum_n e^{-2int} G_n, for self-adjoint A
        basis = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)
        a = hermitian(basis.size, 4)
        t = rng.uniform(-np.pi, np.pi, 7)
        rho = density(basis, a, shell_phases(basis, t))
        assert rho.shape == (t.size, basis.grid.npoints)
        oracle = density(basis, conjugate(basis, a, t))
        np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    def test_rejects_wrong_shape(self, basis_1d_half):
        with pytest.raises(ValueError, match="operator"):
            density(basis_1d_half, np.eye(basis_1d_half.size - 1), shell_phases(basis_1d_half, 0.3))


def small_basis(d, orders):
    """A basis of degree 3 with kappa (0.5, 1.0, 0.0)[:d] on the grid of the
    given orders, which may differ by axis."""
    s = DunklStructure(d, (0.5, 1.0, 0.0)[:d])
    return build_basis(s, 3, tensor_grid(s, orders))


SHELL_BASES = ["basis_1d_half", "basis_1d_classical", "basis_2d", "d3", "anisotropic"]


@pytest.fixture(params=SHELL_BASES)
def shell_basis(request):
    # d = 3 with N = 3 on order 4, and d = 2 with rules of orders 12 and 16
    if request.param == "d3":
        return small_basis(3, 4)
    if request.param == "anisotropic":
        return small_basis(2, [12, 16])
    return request.getfixturevalue(request.param)


class TestShellContractions:
    """The per-axis contractions against the dense and block-by-block oracles."""

    @pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
    @pytest.mark.parametrize("kind", ["trapezoid", "simpson", "midpoint", "random"])
    def test_time_averaged_operator_matches_blocks(self, shell_basis, kind, complex_v):
        basis = shell_basis
        rng = np.random.default_rng(10)
        tn = time_rule(kind, rng)
        shape = (tn[0].size, basis.grid.npoints)
        v = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_v else 0.0)
        v *= np.exp(-0.5 * (basis.grid.nodes**2).sum(axis=-1))
        b = time_averaged(basis, tn, v)
        oracle = shell_oracle.time_averaged_operator(basis, tn, v)
        np.testing.assert_allclose(b, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    @pytest.mark.parametrize("complex_a", [False, True], ids=["real-a", "complex-a"])
    def test_shell_densities_match_blocks(self, shell_basis, complex_a):
        basis = shell_basis
        rng = np.random.default_rng(11)
        m = basis.size
        a = rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if complex_a else 0.0)
        g = shells(basis, a)
        oracle = shell_oracle.shell_densities(basis, a)
        np.testing.assert_allclose(g, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_two_routines_are_adjoint(self, d):
        # sum_{mu nu} B_{mu nu} A_{mu nu} = sum_t tau_t sum_k w_k V_t(x_k)
        # sum_n e^{2int} G_n(x_k), with B of V and G of A
        basis = small_basis(d, 5)
        rng = np.random.default_rng(12 + d)
        t, tau = time_rule("random", rng)
        shape = (t.size, basis.grid.npoints)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m = basis.size
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        lhs = np.sum(time_averaged(basis, (t, tau), v) * a)
        g = shells(basis, a)
        top = basis.structure.d * basis.per_dim_degree
        rho = np.exp(2j * np.outer(t, np.arange(-top, top + 1))) @ g
        rhs = np.sum(tau[:, None] * basis.grid.weights * v * rho)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        # the public pair, for self-adjoint gamma and real V: tr(gamma B_V) =
        # sum_t tau_t sum_k w_k V_t rho_t, rho_t the density of e^{-itH} gamma e^{itH}
        gamma = hermitian(m, 12 + d)
        v = v.real
        b = multiplication_matrix(basis, v, tau[:, None] * flow_phases(basis, -t))
        lhs = np.trace(gamma @ b)
        rho = density(basis, gamma, flow_phases(basis, t))
        rhs = np.sum(tau[:, None] * basis.grid.weights * v * rho)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
    def test_multiplication_matrix_matches_table(self, shell_basis, complex_v):
        # a (3, K) stack of potentials, and each row alone
        basis = shell_basis
        rng = np.random.default_rng(14)
        shape = (3, basis.grid.npoints)
        v = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_v else 0.0)
        v *= np.exp(-0.5 * (basis.grid.nodes**2).sum(axis=-1))
        got = multiplication_matrix(basis, v)
        oracle = shell_oracle.multiplication_matrix(basis, v)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())
        np.testing.assert_array_equal(got, np.stack([multiplication_matrix(basis, r) for r in v]))

    @pytest.mark.parametrize("complex_a", [False, True], ids=["real-a", "complex-a"])
    def test_density_matches_table(self, shell_basis, complex_a):
        # a (3, M, M) stack of operators, and each one alone
        basis = shell_basis
        rng = np.random.default_rng(15)
        shape = (3, basis.size, basis.size)
        a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_a else 0.0)
        got = density(basis, a)
        oracle = shell_oracle.density(basis, a)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())
        np.testing.assert_array_equal(got, np.stack([density(basis, g) for g in a]))

    @pytest.mark.parametrize("kind", ["flow", "random"])
    def test_one_real_pass_is_the_two_pass_sum(self, shell_basis, kind):
        # for self-adjoint A and c_{-n} = conj c_n, Re sum_n c_n G_n(A) =
        # sum_n h_n G_n(Re A + Im A) with h = Re c - Im c; the oracle sums
        # Re c Re G - Im c Im G over the complex G of the dense blocks
        basis = shell_basis
        rng = np.random.default_rng(19)
        a = hermitian(basis.size, 19)
        top = basis.structure.d * basis.per_dim_degree
        if kind == "flow":
            c = np.exp(-2j * np.outer(rng.uniform(-np.pi, np.pi, 6), np.arange(-top, top + 1)))
        else:
            half = rng.normal(size=(6, top + 1)) + 1j * rng.normal(size=(6, top + 1))
            half[:, 0] = half[:, 0].real
            c = np.concatenate([half[:, :0:-1].conj(), half], axis=1)
        g = shell_oracle.shell_densities(basis, a)
        oracle = c.real @ g.real - c.imag @ g.imag
        got = density(basis, a, c)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    def test_phases_need_a_self_adjoint_operator_and_symmetric_phases(self, basis_2d):
        c = shell_phases(basis_2d, np.array([0.3, 1.1]))
        a = hermitian(basis_2d.size, 20)
        with pytest.raises(ValueError, match="self-adjoint"):
            density(basis_2d, a + 1e-3j * np.eye(basis_2d.size), c)
        # c_{-n} != conj c_n: the one-pass fold h = Re c - Im c would be wrong
        lopsided = c.copy()
        lopsided[:, 0] *= 1j
        with pytest.raises(ValueError, match="conj"):
            density(basis_2d, a, lopsided)
        with pytest.raises(ValueError, match="conj"):
            density(basis_2d, a, c[:, 1:])

    def test_phases_stack_is_its_single_calls(self, shell_basis):
        # an (S, M, M) stack of self-adjoint operators gives (S, T, K), and
        # each slice is the operator's own call, bit for bit
        basis = shell_basis
        rng = np.random.default_rng(26)
        stack = np.stack([hermitian(basis.size, 30 + s) * 10.0 ** -s for s in range(3)])
        c = flow_phases(basis, rng.uniform(-np.pi, np.pi, 5))
        got = density(basis, stack, c)
        assert got.shape == (3, 5, basis.grid.npoints)
        np.testing.assert_array_equal(got, np.stack([density(basis, a, c) for a in stack]))
        assert density(basis, stack, c[0]).shape == (3, basis.grid.npoints)

    def test_phases_stack_needs_every_operator_self_adjoint(self, basis_2d):
        c = shell_phases(basis_2d, np.array([0.3, 1.1]))
        stack = np.stack([hermitian(basis_2d.size, 31 + s) for s in range(3)])
        stack[1] += 1e-3j * np.eye(basis_2d.size)
        with pytest.raises(ValueError, match="self-adjoint"):
            density(basis_2d, stack, c)
        with pytest.raises(ValueError, match="operator"):
            density(basis_2d, stack[None], c)

    def test_phases_stack_judges_each_operator_on_its_own_scale(self, basis_1d_half):
        # beside an O(1) operator, a 1e-8-scale one with a skew part of 1e-6
        # of its own size is not self-adjoint, and an O(1) one with a 1e-13
        # skew part of round-off size still is, next to the 1e-8 one
        basis = basis_1d_half
        m = basis.size
        c = flow_phases(basis, np.array([0.2, 0.7]))
        skew = 1j * np.eye(m)
        small, large = 1e-8 * hermitian(m, 32), hermitian(m, 33)
        scale = np.abs(small).max()
        with pytest.raises(ValueError, match="self-adjoint"):
            density(basis, np.stack([small + 1e-6 * scale * skew, large]), c)
        rounded = large + 1e-13 * np.abs(large).max() * skew
        got = density(basis, np.stack([small, rounded]), c)
        np.testing.assert_array_equal(got[1], density(basis, rounded, c))

    def test_propagated_density_matches_states(self, shell_basis):
        # the density of e^{-itH} A e^{itH}, A = sum_j n_j |f_j><f_j|, against
        # the states' values one state at a time, and against the density of
        # the conjugated operator one time at a time
        basis = shell_basis
        rng = np.random.default_rng(16)
        states = np.stack([random_state(basis, seed=20 + j) for j in range(3)])
        occupations = [1.0, 0.6, 0.3]
        t = rng.uniform(-np.pi, np.pi, 5)
        a = (states.T * occupations) @ states.conj()
        got = density(basis, a, shell_phases(basis, t))
        oracle = shell_oracle.propagated_density(basis, states, occupations, t)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())
        per_time = np.stack([density(basis, conjugate(basis, a, tv)) for tv in t])
        np.testing.assert_allclose(got, per_time, rtol=0, atol=1e-13 * np.abs(oracle).max())

    def test_conjugate_matches_the_eigenvalue_phases(self, shell_basis):
        # the shell phases e^{-2it(|mu| - |nu|)} against the independent route
        # e^{-it lambda_mu} a_{mu nu} e^{it lambda_nu}: one matrix at one time,
        # one matrix at an array of times, and a stack with one time per matrix;
        # |t| <= 0.3 keeps the rounding of t lambda_mu (at most 66 here) below
        # the tolerance
        basis = shell_basis
        rng = np.random.default_rng(25)
        m = basis.size
        times = rng.uniform(-0.3, 0.3, 4)
        stack = rng.normal(size=(4, m, m)) + 1j * rng.normal(size=(4, m, m))
        e = np.exp(-1j * times[:, None] * basis.eigenvalues)
        tol = 1e-14 * np.abs(stack).max()

        def oracle(a):
            return e[:, :, None] * a * e.conj()[:, None, :]

        np.testing.assert_allclose(conjugate(basis, stack[0], times[0]), oracle(stack[0])[0],
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(conjugate(basis, stack[0], times), oracle(stack[0]),
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(conjugate(basis, stack, times), oracle(stack), rtol=0, atol=tol)

    def test_memory_below_the_dense_table(self):
        # building the basis and one density, multiplication matrix and
        # evolved density take less memory than the (M, K) table alone would:
        # about 0.63 of it at d = 3, N = 4, grid order 8 (M = 125, K = 4096)
        s = DunklStructure(3, (0.5, 1.0, 0.0))
        grid = tensor_grid(s, 8)
        m, k = 5**3, grid.npoints
        rng = np.random.default_rng(17)
        a = rng.normal(size=(m, m))
        v = rng.normal(size=k)
        states = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
        evolved = states.T @ states.conj()
        tracemalloc.start()
        try:
            basis = build_basis(s, 4, grid)
            density(basis, a)
            multiplication_matrix(basis, v)
            density(basis, evolved, shell_phases(basis, np.linspace(0.0, 1.0, 4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.size == m
        assert peak < m * k * 8

    def test_static_path_takes_one_shell(self):
        # a static density or multiplication matrix carries a one-wide shell
        # axis: each of a 3-row stack peaks below the (3, 2 d N + 1, K) array
        # of all the shells (2.46 MB at d = 3, N = 4, grid order 8)
        s = DunklStructure(3, (0.5, 1.0, 0.0))
        basis = build_basis(s, 4, tensor_grid(s, 8))
        m, k = basis.size, basis.grid.npoints
        rng = np.random.default_rng(18)
        a = rng.normal(size=(3, m, m))
        v = rng.normal(size=(3, k))
        shell_array = 3 * (2 * 3 * 4 + 1) * k * 8
        for call in (lambda: density(basis, a), lambda: multiplication_matrix(basis, v)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < shell_array


# (d, N, grid order, chunks of the shelled plan): both plan shapes, one chunk
# and many; every static plan here is one chunk
KERNEL_BASES = {"d1": (1, 8, 12, 1), "d2": (2, 5, 8, 2), "d2-anisotropic": (2, 5, [8, 10], 2),
                "d2-one-chunk": (2, 2, 3, 1), "d3": (3, 3, 4, 2)}


def chunked_basis(name):
    d, n_degree, orders, _ = KERNEL_BASES[name]
    s = DunklStructure(d, (0.5, 1.0, 0.0)[:d])
    return build_basis(s, n_degree, tensor_grid(s, orders))


class TestChunkedKernels:
    """The plan of the shell kernels, the chunked kernels against the frozen
    breadth-first ones of ``shell_oracle``, bit for bit, and their memory at
    d = 3."""

    @pytest.fixture(params=sorted(KERNEL_BASES), scope="class")
    def kernel_basis(self, request):
        return chunked_basis(request.param)

    @pytest.mark.parametrize("static", [False, True], ids=["shelled", "static"])
    @pytest.mark.parametrize("name", sorted(KERNEL_BASES))
    def test_plan(self, name, static):
        basis = chunked_basis(name)
        d, n = basis.structure.d, basis.per_dim_degree
        nodes = [phi.shape[1] for phi in basis.axis_tables]
        shells = 1 if static else 2 * d * n + 1
        bound = max(basis.size ** 2, shells * basis.grid.npoints)
        plan = _chunks(basis, int(not static), bound)
        assert len(plan) == (1 if static else KERNEL_BASES[name][3])
        # every diagonal mu_0 - nu_0 once, in order
        assert [delta for chunk in plan for delta in chunk] == list(range(-n, n + 1))
        # per pair of the first axis, the breadth-first state after axis j:
        # the offsets left, the pairs of axes 1..j and the nodes of the rest
        per_pair = max((shells - 2 * n * (j + 1) * (not static)) * (n + 1) ** (2 * j)
                       * math.prod(nodes[j + 1:]) for j in range(d))
        for chunk in plan:
            if len(chunk) > 1:
                assert sum(n + 1 - abs(delta) for delta in chunk) * per_pair <= bound

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    @pytest.mark.parametrize("static", [False, True], ids=["shelled", "static"])
    def test_shells_to_pairs_keeps_its_bits(self, kernel_basis, static, stack):
        basis = kernel_basis
        shells = 1 if static else 2 * basis.structure.d * basis.per_dim_degree + 1
        h = np.random.default_rng(28).normal(size=(*stack, shells, basis.grid.npoints))
        got = _shells_to_pairs(basis, h)
        assert got.shape == (*stack, basis.size, basis.size)
        assert np.array_equal(got, shell_oracle.shells_to_pairs(basis, h))
        # written into the parts of a complex array, as multiplication_matrix does
        b = np.empty(got.shape, dtype=complex)
        _shells_to_pairs(basis, h, b.real)
        _shells_to_pairs(basis, -h, b.imag)
        assert np.array_equal(b, got - 1j * got)

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    @pytest.mark.parametrize("static", [False, True], ids=["shelled", "static"])
    def test_pairs_to_shells_keeps_its_bits(self, kernel_basis, static, stack):
        basis = kernel_basis
        a = np.random.default_rng(29).normal(size=(*stack, basis.size, basis.size))
        got = _pairs_to_shells(basis, a, static)
        shells = 1 if static else 2 * basis.structure.d * basis.per_dim_degree + 1
        assert got.shape == (*stack, shells, basis.grid.npoints)
        assert np.array_equal(got, shell_oracle.pairs_to_shells(basis, a, static))

    def test_memory_at_d3(self):
        # d = 3, N = 12, grid order 16 (M = 2197, K = 32768): the evolved
        # density of an 8-state system at 8 times and B_V of 8 rows peaked
        # at 313 and 312 MiB with breadth-first kernels, whose widest state
        # (25, 169, 169, 32) alone took 174 MiB; chunked, about 111 and 148 MiB
        s = DunklStructure(3, (0.5, 0.5, 0.5))
        basis = build_basis(s, 12, tensor_grid(s, 16))
        f = generate_system(basis, "haar_rotation", 8, seed=0)
        gamma = f.T @ f.conj()
        c = flow_phases(basis, time_grid(-np.pi, np.pi, 8)[0])
        v = np.tile(np.exp(-(basis.grid.nodes ** 2).sum(axis=-1)), (8, 1))
        for call in (lambda: density(basis, gamma, c),
                     lambda: multiplication_matrix(basis, v, c / 8)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 160 * 2 ** 20


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
