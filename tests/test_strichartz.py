import tracemalloc

import numpy as np
import pytest

from dunklkit import (
    DunklStructure,
    ExponentPair,
    admissible_p,
    build_basis,
    generate_system,
    inhomogeneous_check,
    mhls_check,
    run_inequality,
    schatten_rhs,
    strichartz_lhs,
    tensor_grid,
)
from dunklkit.operators import density, flow_phases
from dunklkit.quadrature import mixed_norm, time_grid, weighted_lp_norm

import duhamel_oracle
from duhamel_oracle import duhamel_by_shells
from shell_oracle import eval_table


def operator(f, occupations=None):
    """gamma = sum_j n_j |f_j><f_j| of the rows f_j of f, unit n_j by default."""
    n = np.ones(len(f)) if occupations is None else np.asarray(occupations)
    return f.T @ (n[:, None] * f).conj()


def laplacian_slice_loop(basis, occupations, states, q, n_time):
    """The free-flow lhs of sum_j n_j |f_j><f_j| on the scaling line, per
    slice: |sec 2t|^expo (expo = 0 up to rounding there) times the L^q norm
    of the summed propagated densities, then the L^p_t sum (the max at
    p = inf), on the midpoint rule of (-pi/4, pi/4), where sec 2t is finite
    at every node."""
    p = admissible_p(q, basis.structure.d_eff)
    t, tau = time_grid(-np.pi / 4, np.pi / 4, n_time, kind="midpoint")
    expo = 2.0 * (0.0 if np.isinf(p) else 1.0 / p) + basis.structure.d_eff * (1.0 / q - 1.0)
    inner = np.array([
        np.abs(1.0 / np.cos(2.0 * tv)) ** expo * weighted_lp_norm(
            basis.grid,
            sum(n * np.abs((np.exp(-1j * tv * basis.eigenvalues) * c) @ eval_table(basis)) ** 2
                for n, c in zip(occupations, states)),
            q,
        )
        for tv in t
    ])
    return inner.max() if np.isinf(p) else np.sum(tau * inner**p) ** (1.0 / p)


class TestExponents:
    def test_scaling_line_values(self):
        assert admissible_p(1.5, 3.0) == pytest.approx(2.0)
        assert admissible_p(1.0, 3.0) == np.inf
        # the pair satisfies 2/p + d_eff/q = d_eff
        for q in (1.2, 1.7, 2.5):
            p = admissible_p(q, 2.0)
            assert 2.0 / p + 2.0 / q == pytest.approx(2.0)

    def test_window_flag(self):
        # window q < (d_eff + 1)/(d_eff - 1); at d_eff = 2 this is q < 3
        assert ExponentPair(2.9, 2.0).admissible
        assert not ExponentPair(3.1, 2.0).admissible
        assert ExponentPair(10.0, 1.0).admissible  # d_eff <= 1: no upper bound

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            admissible_p(0.9, 3.0)

    def test_rejects_non_finite_q(self):
        for q in (np.nan, np.inf):
            with pytest.raises(ValueError):
                admissible_p(q, 3.0)
        with pytest.raises(ValueError):
            ExponentPair(np.nan, 3.0)

    def test_schatten_exponent(self):
        # alpha = 2q/(q+1): the l^1 norm at q = 1, l^{6/5} at q = 3/2
        assert ExponentPair(1.0, 2.0).alpha == 1.0
        assert ExponentPair(1.5, 2.0).alpha == 6.0 / 5.0
        [rhs] = schatten_rhs(np.ones(3), [ExponentPair(1.0, 2.0)])
        assert rhs == pytest.approx(3.0)
        [rhs] = schatten_rhs([1.0, 0.5j], [ExponentPair(1.5, 2.0)])
        assert rhs == pytest.approx(
            (1.0 + 0.5**1.2) ** (1.0 / 1.2))


    def test_schatten_rhs_takes_every_alpha_at_once(self):
        # one lp_norm call with every alpha gives the one-alpha calls' bits
        pairs = [ExponentPair(q, 2.0) for q in (1.0, 1.2, 1.5, 2.5)]
        coeffs = [1.0, 0.6, 0.3j]
        got = schatten_rhs(coeffs, pairs)
        assert got.shape == (4,)
        np.testing.assert_array_equal(got, [schatten_rhs(coeffs, [pr])[0] for pr in pairs])

class TestSystems:
    @pytest.mark.parametrize(
        "kind", ["basis_subset", "haar_rotation", "gaussian_orthogonalized"]
    )
    @pytest.mark.parametrize("j_count", [1, 3, 6, "M"])
    def test_orthonormal(self, basis_1d_half, kind, j_count):
        # rows orthonormal, so their operator is a projection of rank J
        m = basis_1d_half.size
        j_count = m if j_count == "M" else j_count
        c = generate_system(basis_1d_half, kind, j_count, seed=3)
        assert c.shape == (j_count, m)
        gram = c.conj() @ c.T
        assert np.abs(gram - np.eye(j_count)).max() < 1e-12
        gamma = operator(c)
        np.testing.assert_allclose(gamma @ gamma, gamma, atol=1e-13)
        assert np.trace(gamma) == pytest.approx(j_count)

    def test_deterministic(self, basis_1d_half):
        a = generate_system(basis_1d_half, "haar_rotation", 5, seed=11)
        b = generate_system(basis_1d_half, "haar_rotation", 5, seed=11)
        assert np.array_equal(a, b)

    def test_too_large_rejected(self, basis_1d_half):
        with pytest.raises(ValueError):
            generate_system(basis_1d_half, "basis_subset", basis_1d_half.size + 1)

    def test_unknown_kind(self, basis_1d_half):
        with pytest.raises(ValueError):
            generate_system(basis_1d_half, "random", 3)


class TestPeriod:
    @pytest.mark.parametrize("kappa", [(0.0,), (0.5,), (0.0, 0.0), (1.0, 0.5),
                                       (0.0, 0.0, 0.0), (0.5, 0.0, 1.5)])
    def test_quarter_period_reflects_the_density(self, kappa):
        # shell n of a density has parity (-1)^n and takes the phase
        # e^{-i pi n} over a quarter period: rho(t + pi/2)(x) = rho(t)(-x).
        # The grid is symmetric, so x -> -x reverses its nodes
        s = DunklStructure(len(kappa), kappa)
        n_degree, order = {1: (12, 16), 2: (6, 8), 3: (4, 6)}[s.d]
        basis = build_basis(s, n_degree, tensor_grid(s, order))
        np.testing.assert_array_equal(basis.grid.nodes[::-1], -basis.grid.nodes)
        rng = np.random.default_rng(len(kappa))
        a = rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2)
        gamma = a + a.conj().T
        t = np.array([-1.1, -0.2, 0.3, 0.7])
        rho = density(basis, gamma, flow_phases(basis, t))
        shifted = density(basis, gamma, flow_phases(basis, t + np.pi / 2))
        assert np.abs(shifted - rho[:, ::-1]).max() <= 1e-14 * np.abs(rho).max()


class TestInequality:
    def test_q1_exact_regime(self, basis_1d_half):
        # q = 1, p = inf: lhs = sup_t || sum |f_j|^2 ||_1 = J by unitarity,
        # rhs = l^1 norm of the coefficients = J; ratio exactly 1
        for seed in range(3):
            [row] = run_inequality(
                basis_1d_half, [1.0], "haar_rotation", [6], seeds=[seed], n_time=64
            )
            assert row["ratio"] == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_closed_form(self, basis_1d_one):
        # single eigenstate: density is t-independent, lhs = || phi_0^2 ||_q
        basis = basis_1d_one
        q = 1.5
        [row] = run_inequality(basis, [q], "basis_subset", [1], n_time=32)
        dens = np.abs(eval_table(basis)[0]) ** 2
        tnorm = (2 * np.pi) ** (1.0 / row["p"])
        expected = tnorm * weighted_lp_norm(basis.grid, dens, q)
        assert row["lhs"] == pytest.approx(expected, rel=1e-10)
        assert row["rhs"] == pytest.approx(1.0)

    def test_rearrangement_invariance(self, basis_1d_half):
        # the lhs depends on the system only through the operator sum, which
        # a permutation of equal-coefficient vectors leaves unchanged
        f = generate_system(basis_1d_half, "basis_subset", 4)
        [[lhs_a]] = strichartz_lhs(basis_1d_half, operator(f)[None], [1.5], n_time=64)
        [[lhs_b]] = strichartz_lhs(basis_1d_half, operator(f[::-1])[None], [1.5], n_time=64)
        assert lhs_a == pytest.approx(lhs_b, rel=1e-13)

    def test_hermite_vs_laplacian_scaling_line(self, basis_1d_half):
        # on the scaling line the free-flow value over the whole line is the
        # oscillator norm on one period (-pi/4, pi/4), and (-pi, pi) holds
        # four periods: hermite = 4^{1/p} laplacian at the same rule
        qs = [1.0, 1.2, 1.5, 2.5]
        p = np.array([admissible_p(q, basis_1d_half.structure.d_eff) for q in qs])
        gamma = operator(generate_system(basis_1d_half, "haar_rotation", 4, seed=2))[None]
        [lap] = strichartz_lhs(basis_1d_half, gamma, qs, flow="laplacian", n_time=128)
        [her] = strichartz_lhs(basis_1d_half, gamma, qs, flow="hermite", n_time=128)
        np.testing.assert_allclose(her, 4.0 ** (1.0 / p) * lap, rtol=1e-13)

    def test_hermite_is_the_full_window_folded(self, basis_1d_half):
        # the oscillator value on one period with weights times 4 is the norm
        # on the midpoint rule of 4T nodes over (-pi, pi): with T even, its
        # nodes are those of the period shifted by multiples of pi/2
        basis = basis_1d_half
        gamma = operator(generate_system(basis, "gaussian_orthogonalized", 5, seed=8),
                         np.linspace(1.0, 0.2, 5))
        qs = [1.0, 1.2, 1.5, 2.5]
        n_time = 48
        got = strichartz_lhs(basis, gamma[None], qs, "hermite", n_time)[0]
        t, tau = time_grid(-np.pi, np.pi, 4 * n_time, kind="midpoint")
        rho = density(basis, gamma, flow_phases(basis, t))
        pairs = [ExponentPair(q, basis.structure.d_eff) for q in qs]
        full = mixed_norm((t, tau), basis.grid, rho, [pr.p for pr in pairs], qs)
        np.testing.assert_allclose(got, full, rtol=1e-13)

    @pytest.mark.parametrize("q", [1.2, 1.5])
    def test_time_node_count_has_no_trap(self, basis_1d_half, q):
        # a trapezoid rule of n nodes on (-pi, pi) samples only
        # (n - 1)/gcd(n - 1, 4) points of the pi/2 period: 32 at n = 129.
        # The periodic rule of one period has n distinct points at every n
        gamma = operator(generate_system(basis_1d_half, "gaussian_orthogonalized", 8))[None]
        [[reference]] = strichartz_lhs(basis_1d_half, gamma, [q], n_time=4096)
        for n_time in (128, 129, 130, 131):
            [[got]] = strichartz_lhs(basis_1d_half, gamma, [q], n_time=n_time)
            assert got == pytest.approx(reference, rel=1e-9), n_time

    @pytest.mark.parametrize("q", [1.5, 1.2, 2.5, 1.0])
    def test_laplacian_matches_per_slice_loop(self, basis_1d_half, q):
        # on the scaling line (d_eff = 2: p = 3, 6, 5/3, and inf at q = 1)
        basis = basis_1d_half
        states = generate_system(basis, "gaussian_orthogonalized", 3, seed=4)
        occupations = [1.0, 0.6, 0.3]
        [[got]] = strichartz_lhs(basis, operator(states, occupations)[None], [q],
                                 flow="laplacian", n_time=48)
        oracle = laplacian_slice_loop(basis, occupations, states, q, 48)
        assert got == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_full_rank_operator(self, basis_1d_half, flow):
        # gamma proportional to e^{-H/2}: diagonal in the basis, of full rank
        # and not a projection.  In a stack each slice is its own call bit
        # for bit, and the free flow matches the per-slice loop
        basis = basis_1d_half
        weights = np.exp(-basis.eigenvalues / 2.0)
        full = np.diag(weights / weights.sum())
        system = operator(generate_system(basis, "haar_rotation", 4, seed=9))
        qs = [1.0, 1.2, 1.5, 2.5]
        got = strichartz_lhs(basis, np.stack([full, system]), qs, flow, n_time=48)
        assert got.shape == (2, 4)
        np.testing.assert_array_equal(got[0], strichartz_lhs(basis, full[None], qs, flow,
                                                             n_time=48)[0])
        np.testing.assert_array_equal(got[1], strichartz_lhs(basis, system[None], qs, flow,
                                                             n_time=48)[0])
        if flow == "laplacian":
            for g, q in zip(got[0], qs):
                oracle = laplacian_slice_loop(basis, np.diag(full), np.eye(basis.size), q, 48)
                assert g == pytest.approx(oracle, rel=1e-13)

    def test_rejects_non_self_adjoint_and_non_stacks(self, basis_1d_half):
        basis = basis_1d_half
        gamma = operator(generate_system(basis, "haar_rotation", 3, seed=1))
        skew = gamma.copy()
        skew[0, 1] += 1e-3
        with pytest.raises(ValueError, match="self-adjoint"):
            strichartz_lhs(basis, np.stack([gamma, skew]), [1.5], n_time=16)
        for bad in (gamma, gamma[None, None], np.empty((0, basis.size, basis.size))):
            with pytest.raises(ValueError, match="stack of operators"):
                strichartz_lhs(basis, bad, [1.5], n_time=16)

    def test_report_fields(self, basis_1d_half):
        # d_eff = 2: q = 1.5 lies in the window q < 3
        [row] = run_inequality(basis_1d_half, [1.5], "basis_subset", [2], n_time=32)
        assert list(row) == ["d", "kappa", "n_degree", "flow", "q", "p", "system_kind",
                             "system_size", "seed", "lhs", "rhs", "ratio", "wall_time",
                             "admissible"]
        assert (row["kappa"], row["q"], row["system_size"], row["seed"]) == ("0.5", 1.5, 2, 0)
        assert row["ratio"] == pytest.approx(row["lhs"] / row["rhs"])
        assert row["admissible"] is True


    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_q_sequence_matches_one_q_calls(self, basis_1d_half, flow):
        # q = 1 gives p = inf; one propagation for all q changes no bit
        gamma = operator(generate_system(basis_1d_half, "haar_rotation", 4, seed=7))[None]
        qs = [1.0, 1.2, 1.5, 1.9]
        [got] = strichartz_lhs(basis_1d_half, gamma, np.array(qs), flow, n_time=48)
        assert got.shape == (4,)
        for g, q in zip(got, qs):
            [one] = strichartz_lhs(basis_1d_half, gamma, [q], flow, n_time=48)
            assert one.shape == (1,)
            assert g == one[0]

    def test_rejects_bad_q_and_flow(self, basis_1d_half):
        gamma = operator(generate_system(basis_1d_half, "basis_subset", 2))[None]
        for q in (0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="q must be finite and >= 1"):
                strichartz_lhs(basis_1d_half, gamma, [1.5, q], n_time=16)
        with pytest.raises(ValueError, match="unknown flow"):
            strichartz_lhs(basis_1d_half, gamma, [1.5], "heat", n_time=16)

    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_systems_match_single_system_calls(self, basis_1d_half, flow):
        # several systems propagated as one stack: each row is the system's
        # own call, bit for bit
        basis = basis_1d_half
        systems = [generate_system(basis, "haar_rotation", j, seed=6) for j in (1, 3, 8)]
        systems.append(generate_system(basis, "gaussian_orthogonalized", 2, seed=6))
        gammas = np.stack([operator(f) for f in systems])
        qs = [1.0, 1.3, 1.9]
        got = strichartz_lhs(basis, gammas, qs, flow, n_time=48)
        assert got.shape == (4, 3)
        np.testing.assert_array_equal(
            got, np.concatenate([strichartz_lhs(basis, gamma[None], qs, flow, n_time=48)
                                 for gamma in gammas]))

    def test_stacked_densities_are_not_copied(self, basis_1d_half):
        # the peak is a small multiple of the (S, T, K) densities: about 1.6
        # times at S = 8, T = 256; stacking per-system products would copy
        # them and pass 2
        systems = [generate_system(basis_1d_half, "haar_rotation", j, seed=5)
                   for j in range(1, 9)]
        gammas = np.stack([operator(f) for f in systems])
        tracemalloc.start()
        try:
            strichartz_lhs(basis_1d_half, gammas, np.linspace(1.1, 1.9, 9), n_time=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * len(systems) * 256 * basis_1d_half.grid.npoints * 8

    def test_time_exponent_below_one_is_named(self, basis_2d):
        # d_eff = 5: q = 1.9 lies on the scaling line at p = 0.84 < 1, the
        # error that ``sweep`` at such a config ends in
        with pytest.raises(ValueError, match=r"p must be >= 1 or inf, got 0\.844"):
            run_inequality(basis_2d, [1.1, 1.9], "haar_rotation", [1], n_time=8)

    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_run_inequality_sequence_matches_one_q_calls(self, basis_1d_half, flow):
        qs = [1.0, 1.2, 1.5, 1.9]
        rows = run_inequality(basis_1d_half, qs, "haar_rotation", [5], seeds=[3],
                              flow=flow, n_time=48)
        assert [r["q"] for r in rows] == qs
        assert len({r["wall_time"] for r in rows}) == 1
        for row, q in zip(rows, qs):
            [one] = run_inequality(basis_1d_half, [q], "haar_rotation", [5], seeds=[3],
                                   flow=flow, n_time=48)
            assert {**row, "wall_time": 0} == {**one, "wall_time": 0}

    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_run_inequality_j_counts_match_one_j_calls(self, basis_1d_half, flow):
        # every J of one seed in one call: the rows, q-major, each equal to
        # the one-J call's in every field but the shared wall_time
        qs = [1.0, 1.5, 1.9]
        j_counts = [1, 2, 4, 8]
        rows = run_inequality(basis_1d_half, qs, "haar_rotation", j_counts, seeds=[4],
                              flow=flow, n_time=48)
        assert [r["system_size"] for r in rows] == j_counts * 3
        assert len({r["wall_time"] for r in rows}) == 1
        per_j = [run_inequality(basis_1d_half, qs, "haar_rotation", [j_count], seeds=[4],
                                flow=flow, n_time=48) for j_count in j_counts]
        for row, one in zip(rows, [row for by_j in zip(*per_j) for row in by_j]):
            assert {**row, "wall_time": 0} == {**one, "wall_time": 0}

    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_run_inequality_seeds_match_one_seed_calls(self, basis_1d_half, flow):
        # every seed in one call, one stacked density per seed: the rows, by
        # q, then J, then seed, each equal to the one-seed call's in every
        # field but the shared wall_time
        qs = [1.0, 1.5, 1.9]
        j_counts = [1, 4]
        rows = run_inequality(basis_1d_half, qs, "haar_rotation", j_counts, seeds=[0, 1, 2],
                              flow=flow, n_time=48)
        assert [r["seed"] for r in rows] == [0, 1, 2] * 6
        assert len({r["wall_time"] for r in rows}) == 1
        per_seed = [run_inequality(basis_1d_half, qs, "haar_rotation", j_counts, seeds=[seed],
                                   flow=flow, n_time=48) for seed in range(3)]
        expected = [row for by_seed in zip(*per_seed) for row in by_seed]
        assert [{**r, "wall_time": 0} for r in rows] == [{**r, "wall_time": 0} for r in expected]


class TestDuhamel:
    def test_zero_interval(self, basis_1d_half):
        gam = duhamel_by_shells(basis_1d_half, np.eye(basis_1d_half.size), 0.3, 0.3)
        assert np.abs(gam).max() == 0.0

    def test_rank_one_closed_form(self, basis_1d_half):
        # R(s) = R0 constant: gamma(t)_{mu nu} =
        # R0_{mu nu} (e^{i (lam_mu - lam_nu)(t - t0)} - 1)/(i (lam_mu - lam_nu))
        basis = basis_1d_half
        rng = np.random.default_rng(5)
        u = rng.normal(size=basis.size)
        u /= np.linalg.norm(u)
        r0 = np.outer(u, u)
        t0, t = -0.2, 0.5
        gam = duhamel_by_shells(basis, r0, t0, t, n_time=401)
        lam = basis.eigenvalues
        dl = lam[:, None] - lam[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(
                np.abs(dl) < 1e-12,
                t - t0,
                (np.exp(1j * dl * (t - t0)) - 1.0) / (1j * np.where(dl == 0, 1.0, dl)),
            )
        expected = r0 * factor
        assert np.abs(gam - expected).max() < 1e-8

    def test_reversed_interval_antisymmetry(self, basis_1d_half):
        basis = basis_1d_half
        r0 = np.eye(basis.size)
        fwd = duhamel_by_shells(basis, r0, 0.0, 0.4, n_time=101)
        bwd = duhamel_by_shells(basis, r0, 0.4, 0.0, n_time=101)
        # diagonal source commutes with the phases: gamma(t) = (t - t0) R0
        np.testing.assert_allclose(fwd, 0.4 * r0, atol=1e-12)
        np.testing.assert_allclose(bwd, -0.4 * r0, atol=1e-12)

    @pytest.mark.parametrize("t0, t", [(-0.3, 0.8), (0.8, -0.3)])
    def test_time_dependent_source_oracle(self, basis_1d_half, t0, t):
        # oracle: the full M x M phase matrix at every Simpson node, on the
        # self-adjoint source R(s) = R0 + sin(s) R1, against the sum of the
        # solutions for R0 and for sin(s) R1
        basis = basis_1d_half
        rng = np.random.default_rng(21)
        m = basis.size
        z0, z1 = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for _ in range(2))
        r0, r1 = z0 + z0.conj().T, z1 + z1.conj().T

        def source(sv):
            return r0 + np.sin(sv) * r1

        gam = (duhamel_by_shells(basis, r0, t0, t, n_time=41)
               + duhamel_by_shells(basis, r1, t0, t, n_time=41, r_of_s=np.sin))
        sg, sw = time_grid(min(t0, t), max(t0, t), 41, kind="simpson")
        sign = 1.0 if t >= t0 else -1.0
        dl = basis.eigenvalues[:, None] - basis.eigenvalues[None, :]
        oracle = sum(
            sign * w * np.exp(1j * (t - sv) * dl) * source(sv) for sv, w in zip(sg, sw)
        )
        np.testing.assert_allclose(gam, oracle, rtol=0, atol=1e-12)
        assert np.abs(gam - gam.conj().T).max() < 1e-12


class TestInhomogeneous:
    def test_zero_source(self, basis_1d_half):
        z = np.zeros((basis_1d_half.size, basis_1d_half.size))
        lhs, rhs = inhomogeneous_check(
            basis_1d_half, z, 0.0, 1.5, n_time=9, n_source_time=9
        )
        assert lhs == 0.0 and rhs == 0.0

    def test_rank3_finite(self, basis_1d_half):
        basis = basis_1d_half
        rng = np.random.default_rng(9)
        c = rng.normal(size=(3, basis.size)) * np.exp(
            -0.1 * basis.multi_indices.sum(axis=1)
        )
        r0 = c.T @ c
        lhs, rhs = inhomogeneous_check(
            basis, r0, 0.0, 1.5, n_time=17, n_source_time=33, r_of_s=np.cos
        )
        assert np.isfinite(lhs) and lhs > 0
        assert np.isfinite(rhs) and rhs > 0

    def test_non_self_adjoint_rejected(self, basis_1d_half):
        basis = basis_1d_half
        r = np.zeros((basis.size, basis.size))
        r[0, 1] = 1.0
        r_of_s, calls = self.counted(np.ones_like)
        with pytest.raises(ValueError, match="self-adjoint"):
            inhomogeneous_check(basis, r, 0.0, 1.5, n_time=5, n_source_time=5,
                                r_of_s=r_of_s)
        assert calls == []

    @pytest.mark.parametrize("fixture", ["basis_1d_half", "basis_2d"])
    @pytest.mark.parametrize(
        "profile",
        [np.ones_like, np.cos, lambda s: 1.0 + 0.3 * np.sin(2.0 * s) + 0.3 * np.sin(4.0 * s)],
        ids=["one", "cos", "uneven"],
    )
    @pytest.mark.parametrize("t0", [0.0, "node", -1.3])
    def test_matches_node_loop(self, request, fixture, profile, t0):
        # the shell route against gamma(t), its density and |R(s)| node by
        # node; t0 on a node of the t-rule gives one zero interval.  A sign
        # slip in the phases of the rhs shell sums leaves the rhs unchanged
        # when |r(-t)| = |r(t + a)| for some shift a, as for 1 and cos s
        basis = request.getfixturevalue(fixture)
        if t0 == "node":
            t0 = time_grid(-np.pi, np.pi, 17)[0][5]
        rng = np.random.default_rng(13)
        m = basis.size
        z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) * np.exp(
            -0.1 * basis.multi_indices.sum(axis=1)
        )
        r0 = z + z.conj().T
        q = 1.2 if basis.structure.d == 2 else 1.5
        got = inhomogeneous_check(basis, r0, t0, q, n_time=17, n_source_time=33,
                                  r_of_s=profile)
        want = duhamel_oracle.inhomogeneous_check(
            basis, lambda s: profile(s) * r0, t0, q, n_time=17, n_source_time=33
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @staticmethod
    def counted(profile):
        calls = []

        def r_of_s(s):
            calls.append(s)
            return profile(s)

        return r_of_s, calls

    @pytest.mark.parametrize(
        "make", [lambda m: np.eye(m - 1), lambda m: np.eye(m)[None]], ids=["wrong-size", "stack"]
    )
    def test_wrong_shape_rejected_before_work(self, basis_1d_half, make):
        r_of_s, calls = self.counted(np.ones_like)
        r = make(basis_1d_half.size)
        with pytest.raises(ValueError, match="source operator"):
            inhomogeneous_check(basis_1d_half, r, 0.0, 1.5, n_time=5, n_source_time=5,
                                r_of_s=r_of_s)
        assert calls == []

    def test_time_exponent_below_one_rejected_before_work(self):
        # d_eff = 5: q = 1.9 lies on the scaling line at p = 0.84 < 1
        s = DunklStructure(2, (1.0, 0.5))
        basis = build_basis(s, 2, tensor_grid(s, 3))
        r_of_s, calls = self.counted(np.ones_like)
        with pytest.raises(ValueError, match="p must be >= 1"):
            inhomogeneous_check(basis, np.eye(basis.size), 0.0, 1.9, n_time=5,
                                n_source_time=5, r_of_s=r_of_s)
        assert calls == []

    @pytest.mark.parametrize(
        "profile",
        [
            lambda s: np.exp(1j * s),
            lambda s: np.cos(s) + 0j,
            lambda s: np.where(s > 0.5, np.nan, 1.0),
            lambda s: np.where(s > 0.5, -np.inf, 1.0),
            lambda s: np.ones(3),
        ],
        ids=["complex", "complex-zero-imaginary", "nan", "infinite", "wrong-shape"],
    )
    def test_bad_profile_rejected(self, basis_1d_half, profile):
        r0 = np.eye(basis_1d_half.size)
        with pytest.raises(ValueError, match="profile"):
            inhomogeneous_check(basis_1d_half, r0, 0.0, 1.5, n_time=5, n_source_time=5,
                                r_of_s=profile)
        with pytest.raises(ValueError, match="profile"):
            duhamel_by_shells(basis_1d_half, r0, 0.0, 1.0, n_time=5, r_of_s=profile)


class TestMhls:
    @staticmethod
    def beta_symmetric(n, b):
        m = np.full((n, n), b)
        np.fill_diagonal(m, 0.0)
        return m

    def test_two_factor_indicator_oracle(self):
        # f = g = 1 on [0, 1], weight |t - s|^{-beta}:
        # integral = 2 / ((1 - beta)(2 - beta))
        beta = 0.5
        r = 2.0 / (2.0 - beta)
        lhs, rhs = mhls_check(
            [lambda t: np.ones_like(t)] * 2,
            [(0.0, 1.0), (0.0, 1.0)],
            self.beta_symmetric(2, beta),
            [r, r],
            n_base=400,
        )
        exact = 2.0 / ((1.0 - beta) * (2.0 - beta))
        assert lhs == pytest.approx(exact, rel=2e-3)
        assert rhs == pytest.approx(1.0, rel=1e-12)

    def test_scalar_profile_is_its_array(self):
        # a profile may return one value for every node
        args = [[(0.0, 1.0)] * 2, self.beta_symmetric(2, 0.5), [4.0 / 3.0] * 2]
        assert mhls_check([lambda t: 1.0] * 2, *args) == mhls_check([np.ones_like] * 2, *args)

    def test_three_factor_finite_and_bounded_shape(self):
        beta = 0.4
        r = 1.0 / (1.0 - beta)
        lhs, rhs = mhls_check(
            [lambda t: np.exp(-(t**2))] * 3,
            [(-3.0, 3.0)] * 3,
            self.beta_symmetric(3, beta),
            [r, r, r],
            n_base=120,
        )
        assert np.isfinite(lhs) and lhs > 0
        assert np.isfinite(rhs) and rhs > 0

    def test_dilation_covariance(self):
        # t -> lam t maps lhs by lam^{N - sum beta_ij} and each norm by
        # lam^{1/r_k}; the ratio transforms by a known exact power
        beta = 0.5
        r = 2.0 / (2.0 - beta)
        prof = lambda t: np.exp(-(t**2))
        args = ([prof, prof], self.beta_symmetric(2, beta), [r, r])
        lhs1, rhs1 = mhls_check(args[0], [(-4.0, 4.0)] * 2, args[1], args[2], n_base=300)
        lam = 2.0
        prof_l = lambda t: np.exp(-((t / lam) ** 2))
        lhs2, rhs2 = mhls_check(
            [prof_l, prof_l], [(-4.0 * lam, 4.0 * lam)] * 2, args[1], args[2], n_base=300
        )
        power_lhs = 2.0 - beta
        power_rhs = 2.0 / r
        assert lhs2 / lhs1 == pytest.approx(lam**power_lhs, rel=1e-6)
        assert rhs2 / rhs1 == pytest.approx(lam**power_rhs, rel=1e-10)

    @pytest.mark.parametrize(
        "bad",
        [
            {"n": 4},                 # too many factors
            {"beta_val": 1.2},        # exponent outside [0, 1)
            {"r_val": 0.9},           # r <= 1
            {"mismatch": True},       # column sums off the 2(r-1)/r line
        ],
    )
    def test_validation(self, bad):
        n = bad.get("n", 2)
        beta_val = bad.get("beta_val", 0.5)
        r_val = bad.get("r_val", 2.0 / (2.0 - 0.5))
        if bad.get("mismatch"):
            r_val = 3.0
        profiles = [lambda t: np.ones_like(t)] * n
        supports = [(0.0, 1.0)] * n
        beta = self.beta_symmetric(n, beta_val) if n <= 3 else np.zeros((n, n))
        with pytest.raises(ValueError):
            mhls_check(profiles, supports, beta, [r_val] * n, n_base=20)
