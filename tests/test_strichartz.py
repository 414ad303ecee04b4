import numpy as np
import pytest

from dunklkit import (
    DunklStructure,
    ExponentPair,
    OrthonormalSystem,
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
from dunklkit.strichartz import duhamel_solution
from dunklkit.quadrature import time_grid, weighted_lp_norm

import duhamel_oracle


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
        assert schatten_rhs(np.ones(3), ExponentPair(1.0, 2.0)) == pytest.approx(3.0)
        assert schatten_rhs([1.0, 0.5j], ExponentPair(1.5, 2.0)) == pytest.approx(
            (1.0 + 0.5**1.2) ** (1.0 / 1.2))


class TestSystems:
    @pytest.mark.parametrize(
        "kind", ["basis_subset", "haar_rotation", "gaussian_orthogonalized"]
    )
    def test_orthonormal(self, basis_1d_half, kind):
        system = generate_system(basis_1d_half, kind, 6, seed=3)
        c = system.states
        gram = c.conj() @ c.T
        assert np.abs(gram - np.eye(6)).max() < 1e-12

    def test_deterministic(self, basis_1d_half):
        a = generate_system(basis_1d_half, "haar_rotation", 5, seed=11)
        b = generate_system(basis_1d_half, "haar_rotation", 5, seed=11)
        assert np.array_equal(a.states, b.states)

    def test_too_large_rejected(self, basis_1d_half):
        with pytest.raises(ValueError):
            generate_system(basis_1d_half, "basis_subset", basis_1d_half.size + 1)

    def test_unknown_kind(self, basis_1d_half):
        with pytest.raises(ValueError):
            generate_system(basis_1d_half, "random", 3)


class TestInequality:
    def test_q1_exact_regime(self, basis_1d_half):
        # q = 1, p = inf: lhs = sup_t || sum |f_j|^2 ||_1 = J by unitarity,
        # rhs = l^1 norm of the coefficients = J; ratio exactly 1
        for seed in range(3):
            [rep] = run_inequality(
                basis_1d_half, [1.0], "haar_rotation", 6, seed=seed, n_time=64
            )
            assert rep.ratio == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_closed_form(self, basis_1d_one):
        # single eigenstate: density is t-independent, lhs = || phi_0^2 ||_q
        basis = basis_1d_one
        q = 1.5
        [rep] = run_inequality(basis, [q], "basis_subset", 1, n_time=32)
        dens = np.abs(basis.eval_table[0]) ** 2
        tnorm = (2 * np.pi) ** (1.0 / rep.p)
        expected = tnorm * weighted_lp_norm(basis.grid, dens, q)
        assert rep.lhs == pytest.approx(expected, rel=1e-10)
        assert rep.rhs == pytest.approx(1.0)

    def test_rearrangement_invariance(self, basis_1d_half):
        # the lhs depends on the system only through the operator sum, which
        # a permutation of equal-coefficient vectors leaves unchanged
        sys_a = generate_system(basis_1d_half, "basis_subset", 4)
        lhs_a = strichartz_lhs(sys_a, 1.5, admissible_p(1.5, 2.0), n_time=64)
        sys_b = OrthonormalSystem(sys_a.basis, sys_a.states[::-1], sys_a.coeffs)
        lhs_b = strichartz_lhs(sys_b, 1.5, admissible_p(1.5, 2.0), n_time=64)
        assert lhs_a == pytest.approx(lhs_b, rel=1e-13)

    def test_hermite_vs_laplacian_scaling_line(self, basis_1d_half):
        # on the scaling line the free-flow value over the whole line equals
        # the quarter-window oscillator value (time-norm transport applied
        # to the system density); both are finite and comparable
        s = basis_1d_half.structure
        q = 1.2
        p = admissible_p(q, s.d_eff)
        system = generate_system(basis_1d_half, "haar_rotation", 4, seed=2)
        lap = strichartz_lhs(system, q, p, flow="laplacian", n_time=128)
        her = strichartz_lhs(system, q, p, flow="hermite", n_time=512)
        quarter = (0.25) ** (1.0 / p) * her  # (-pi,pi) vs (-pi/4,pi/4) scaling only
        # densities are pi/2-periodic in t for the oscillator flow, so the
        # full-window norm is exactly 4^{1/p} times the quarter-window norm
        assert lap == pytest.approx(quarter, rel=1e-3)

    @pytest.mark.parametrize("q, p", [(1.5, 2.0), (1.2, 7.0), (2.5, 1.3), (1.0, np.inf)])
    def test_laplacian_matches_per_slice_loop(self, basis_1d_half, q, p):
        # off the scaling line (d_eff = 2: p = 3, 6, 5/3 there) and at q = 1;
        # oracle: per slice, |sec 2t|^expo times the L^q norm of the summed
        # propagated densities, then the L^p_t sum (the max at p = inf)
        basis = basis_1d_half
        states = generate_system(basis, "gaussian_orthogonalized", 3, seed=4).states
        system = OrthonormalSystem(basis, states, [1.0, 0.6, 0.3])
        t, tau = time_grid(-np.pi / 4 + 1e-9, np.pi / 4 - 1e-9, 48)
        expo = 2.0 * (0.0 if np.isinf(p) else 1.0 / p) + basis.structure.d_eff * (1.0 / q - 1.0)
        inner = np.array([
            np.abs(1.0 / np.cos(2.0 * tv)) ** expo * weighted_lp_norm(
                basis.grid,
                sum(n.real * np.abs((np.exp(-1j * tv * basis.eigenvalues) * c)
                                    @ basis.eval_table) ** 2
                    for n, c in zip(system.coeffs, system.states)),
                q,
            )
            for tv in t
        ])
        oracle = inner.max() if np.isinf(p) else np.sum(tau * inner**p) ** (1.0 / p)
        got = strichartz_lhs(system, q, p, flow="laplacian", n_time=48)
        assert got == pytest.approx(oracle, rel=1e-13)

    def test_report_fields(self, basis_1d_half):
        [rep] = run_inequality(basis_1d_half, [1.5], "basis_subset", 2, n_time=32)
        d = rep.as_dict()
        assert d["q"] == 1.5
        assert d["system_size"] == 2
        assert d["ratio"] == pytest.approx(rep.lhs / rep.rhs)


    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_exponent_arrays_match_one_pair_calls(self, basis_1d_half, flow):
        # q = 1 gives p = inf; one propagation for all pairs changes no bit
        system = generate_system(basis_1d_half, "haar_rotation", 4, seed=7)
        qs = [1.0, 1.2, 1.5, 1.9]
        ps = [admissible_p(q, basis_1d_half.structure.d_eff) for q in qs]
        got = strichartz_lhs(system, np.array(qs), np.array(ps), flow, n_time=48)
        assert got.shape == (4,)
        for g, q, p in zip(got, qs, ps):
            one = strichartz_lhs(system, q, p, flow, n_time=48)
            assert isinstance(one, float)
            assert g == one

    def test_exponent_arrays_reject_bad_pairs(self, basis_1d_half):
        system = generate_system(basis_1d_half, "basis_subset", 2)
        with pytest.raises(ValueError):
            strichartz_lhs(system, np.array([1.5, 1.5]), np.array([2.0, 0.5]), n_time=16)
        with pytest.raises(ValueError):
            strichartz_lhs(system, np.array([1.5, 1.2]), np.array([2.0]), n_time=16)

    @pytest.mark.parametrize("flow", ["hermite", "laplacian"])
    def test_run_inequality_sequence_matches_one_q_calls(self, basis_1d_half, flow):
        qs = [1.0, 1.2, 1.5, 1.9]
        reps = run_inequality(basis_1d_half, qs, "haar_rotation", 5, seed=3,
                              flow=flow, n_time=48)
        assert [r.q for r in reps] == qs
        assert len({r.wall_time for r in reps}) == 1
        for rep, q in zip(reps, qs):
            [one] = run_inequality(basis_1d_half, [q], "haar_rotation", 5, seed=3,
                                   flow=flow, n_time=48)
            assert (rep.p, rep.lhs, rep.rhs, rep.ratio) == (one.p, one.lhs, one.rhs, one.ratio)


class TestDuhamel:
    def test_zero_interval(self, basis_1d_half):
        gam = duhamel_solution(basis_1d_half, np.eye(basis_1d_half.size), 0.3, 0.3)
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
        gam = duhamel_solution(basis, r0, t0, t, n_time=401)
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
        fwd = duhamel_solution(basis, r0, 0.0, 0.4, n_time=101)
        bwd = duhamel_solution(basis, r0, 0.4, 0.0, n_time=101)
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

        gam = (duhamel_solution(basis, r0, t0, t, n_time=41)
               + duhamel_solution(basis, r1, t0, t, n_time=41, r_of_s=np.sin))
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
            duhamel_solution(basis_1d_half, r0, 0.0, 1.0, n_time=5, r_of_s=profile)


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
