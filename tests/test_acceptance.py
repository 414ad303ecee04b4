"""End-to-end acceptance suite: one test per criterion, with a printed
pass/fail line and the measured figure of merit for each."""

import numpy as np

from dunklkit import (
    DunklStructure,
    HartreeConfig,
    admissible_p,
    build_basis,
    hamiltonian_matrix,
    hermite_functions_1d,
    inhomogeneous_check,
    kernel_Kit,
    kernel_Lit,
    kss_check,
    lens_relation_residual,
    mhls_check,
    multiplication_matrix,
    run_inequality,
    schatten_norm,
    solve_hartree,
    tensor_grid,
    time_grid,
)
from dunklkit.operators import flow_phases

from conftest import random_state
from duhamel_oracle import duhamel_by_shells
from shell_oracle import eval_table
from freeprop_oracle import free_evolve_via_lens, norm_transport_check
from kernel_oracle import kernel_quadrature, mehler_closed_form

CASES = [(1, (0.0,)), (1, (0.5,)), (1, (1.5,)), (2, (1.0, 0.5))]


def announce(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}  {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def lattice(d, half=2.0, side=5):
    pts = np.linspace(-half, half, side)
    if d == 1:
        return pts[:, None], pts[None, :]
    x = np.stack(np.meshgrid(pts, pts, indexing="ij"), axis=-1).reshape(-1, 1, d)
    return x, x.reshape(1, -1, d)


def test_criterion_01_basis_integrity():
    worst_gram = 0.0
    worst_eig = 0.0
    for d, kappa in CASES:
        s = DunklStructure(d, kappa)
        n = 48 if d == 1 else 12
        basis = build_basis(s, n, tensor_grid(s, n + 8))
        gram = multiplication_matrix(basis, np.ones(basis.grid.npoints))
        worst_gram = max(worst_gram, np.abs(gram - np.eye(basis.size)).max())
        h = hamiltonian_matrix(basis)
        interior = basis.multi_indices.max(axis=1) <= n - 1
        resid = h[:, interior] - np.eye(basis.size)[:, interior] * basis.eigenvalues[
            interior
        ]
        worst_eig = max(worst_eig, np.linalg.norm(resid, axis=0).max())
    ok = worst_gram < 1e-10 and worst_eig < 1e-8
    announce(1, "basis integrity", ok,
             f"gram {worst_gram:.2e} < 1e-10, eigen-residual {worst_eig:.2e} < 1e-8")


def test_criterion_02_mehler_formula():
    s = DunklStructure(1, (0.8,))
    x = np.linspace(-2, 2, 5)
    table = hermite_functions_1d(0.8, 100, x)
    worst = 0.0
    for w in (0.3, 0.5, 0.7):
        series = np.einsum("n,nx,ny->xy", w ** np.arange(101.0), table, table)
        closed = mehler_closed_form(s, w, x[:, None], x[None, :])
        worst = max(worst, float(np.abs(closed / series - 1.0).max()))
    announce(2, "Mehler closed form", worst < 1e-10, f"relative error {worst:.2e} < 1e-10")


def test_criterion_03_lens_relation():
    worst = 0.0
    for d, kappa in CASES:
        s = DunklStructure(d, kappa)
        x, y = lattice(d)
        for v in (0.1, 0.5, 1.0, 2.0, 10.0):
            t = 0.5 * np.arctan(v)
            scale = np.abs(kernel_Kit(s, t, x, y)).max()
            worst = max(worst, float(lens_relation_residual(s, v, x, y).max() / scale))
    announce(3, "lens kernel relation", worst < 1e-10, f"relative residual {worst:.2e} < 1e-10")


def test_criterion_04_kernel_symmetries_and_bound():
    worst_sym = 0.0
    bound_ok = True
    for d, kappa in CASES:
        s = DunklStructure(d, kappa)
        x, y = lattice(d)
        for t in (0.3, 0.7, 1.2):
            k = kernel_Kit(s, t, x, y)
            worst_sym = max(worst_sym, float(np.abs(k - kernel_Kit(s, t, y, x)).max()))
            worst_sym = max(
                worst_sym, float(np.abs(np.conj(k) - kernel_Kit(s, -t, x, y)).max())
            )
            bound = s.m_kappa * np.abs(1.0 / np.sin(2 * t)) ** (0.5 * s.d_eff)
            bound_ok = bound_ok and np.abs(k).max() <= bound * (1 + 1e-12)
    ok = worst_sym < 1e-12 and bound_ok
    announce(4, "kernel symmetries + magnitude bound", ok,
             f"symmetry residual {worst_sym:.2e} < 1e-12, bound satisfied: {bound_ok}")


def test_criterion_05_dual_method_propagation(basis_1d_half):
    # L2 discrepancy over |x| <= 5: the quadrature route's error does not
    # decay in x, and the grid weights grow like e^{x^2}, so the comparison
    # is windowed to where both routes resolve the (Gaussian-decaying) state
    basis = basis_1d_half
    s = basis.structure
    grid_x = basis.grid.nodes[:, 0]
    mask = np.abs(grid_x) <= 5.0
    bw = basis.grid.weights[mask]

    def l2_gap(diff):
        return float(np.sqrt(np.sum(bw * np.abs(diff[mask]) ** 2)))

    worst = 0.0
    for seed in range(3):
        u = random_state(basis, seed=seed, band=basis.per_dim_degree // 2)
        for t in (0.3, 0.7):
            spect = (np.exp(-1j * t * basis.eigenvalues) * u) @ eval_table(basis)
            direct = kernel_quadrature(
                basis, u, lambda x, y: kernel_Kit(s, t, x, y), grid_x, order_factor=10
            )
            worst = max(worst, l2_gap(direct - spect))
        for v in (0.4, 1.0):
            via_lens = free_evolve_via_lens(basis, u, v, grid_x[:, None])
            direct = kernel_quadrature(
                basis, u, lambda x, y: kernel_Lit(s, v / 2, x, y), grid_x, order_factor=10
            )
            worst = max(worst, l2_gap(direct - via_lens))
    announce(5, "dual-method propagation", worst < 1e-6,
             f"L2 discrepancy {worst:.2e} < 1e-6")


def test_criterion_06_norm_transport(basis_1d_half):
    s = basis_1d_half.structure
    worst_gap = 0.0
    worst_four = 0.0
    qs = (1.5, 2.0, 3.0)
    for seed in range(10):
        u = random_state(basis_1d_half, seed=seed, band=12)
        q = qs[seed % 3]
        p = admissible_p(q, s.d_eff)
        lhs, rhs, full, quarter4 = norm_transport_check(basis_1d_half, u, p, q, n_time=128)
        worst_gap = max(worst_gap, abs(rhs - lhs) / lhs)
        worst_four = max(worst_four, abs(quarter4 - full) / full)
    ok = worst_gap < 1e-4 and worst_four < 1e-4
    announce(6, "time-norm transport", ok,
             f"route gap {worst_gap:.2e} < 1e-4, factor-4 gap {worst_four:.2e} < 1e-4")


def test_criterion_07_q1_exact_regime(basis_1d_half):
    worst = 0.0
    for seed in range(20):
        j_count = 1 + (seed * 7) % 32
        [[rep]] = run_inequality(
            basis_1d_half, [1.0], "haar_rotation", [j_count], seed=seed, n_time=48
        )
        worst = max(worst, rep.ratio)
    announce(7, "q = 1 exact regime", worst <= 1 + 1e-8,
             f"max ratio {worst:.12f} <= 1 + 1e-8")


def test_criterion_08_boundedness_sweep(basis_1d_half, tmp_path):
    import csv

    basis = basis_1d_half  # d_eff = 2, window q < 3
    j_values = [1, 2, 4, 8, 16, 32]
    rows = []
    for j_count in j_values:
        for seed in range(5):
            # one system and one density per (J, seed) for all three q
            [reports] = run_inequality(
                basis, (1.2, 1.5, 1.8), "haar_rotation", [j_count], seed=seed, n_time=96
            )
            for rep in reports:
                rows.append(rep.as_dict())
    out = tmp_path / "acceptance_sweep.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    ratios = np.array([r["ratio"] for r in rows])
    spread = ratios.max() / ratios.min()
    # no monotone divergence: the largest-J ratios do not dominate
    by_j = {
        j: max(r["ratio"] for r in rows if r["system_size"] == j) for j in j_values
    }
    diverging = all(
        by_j[j_values[i + 1]] > by_j[j_values[i]] for i in range(len(j_values) - 1)
    ) and by_j[32] > 2.0 * by_j[1]
    ok = spread < 10.0 and not diverging
    announce(8, "orthonormal inequality sweep", ok,
             f"ratio spread {spread:.3f} < 10, divergence in J: {diverging} "
             f"({len(rows)} rows -> {out.name})")


def test_criterion_09_dual_functional(basis_1d_half):
    basis = basis_1d_half
    s = basis.structure
    x = basis.grid.nodes[:, 0]
    envelope = np.exp(-0.5 * x**2)

    # both rules integrate the harmonics of 1 + 0.3 cos 2t exactly; the
    # cos 110t term is one that 64 nodes alias (a 2.9e-5 shift) and 128 and
    # 256 agree on to round-off, so the grid-doubling gate can fail
    def samples(tn):
        t = tn[0]
        wave = 1.0 + 0.3 * np.cos(2.0 * t) + 0.1 * np.cos(110.0 * t)
        return envelope[None, :] * wave[:, None]

    def dual_functional(tn, qprime):
        t, tau = tn
        b = multiplication_matrix(basis, samples(tn), tau[:, None] * flow_phases(basis, -t))
        return schatten_norm(b, 2.0 * qprime)

    tn = time_grid(-np.pi, np.pi, 64)
    opnorm = dual_functional(tn, np.inf)
    l1linf = float(np.sum(tn[1] * np.abs(samples(tn)).max(axis=1)))
    triangle_ok = opnorm <= l1linf + 1e-8

    qprime = 1.0 + s.d_eff / 2.0
    v1 = dual_functional(tn, qprime)
    tn2 = time_grid(-np.pi, np.pi, 128)
    v2 = dual_functional(tn2, qprime)
    stable = abs(v2 - v1) / v2
    ok = triangle_ok and np.isfinite(v2) and stable < 1e-4
    announce(9, "dual Schatten functional", ok,
             f"triangle bound {opnorm:.4g} <= {l1linf:.4g}, "
             f"q'={qprime} value {v2:.6g}, grid-doubling shift {stable:.2e} < 1e-4")


def test_criterion_10_kss_bound(basis_1d_half, basis_1d_classical):
    f = lambda x: np.exp(-np.asarray(x).ravel() ** 2)
    g = lambda x: np.exp(-0.5 * np.asarray(x).ravel() ** 2)
    quadruples = [
        (1.0, 0.0, 0.0, 1.0),
        (2.0, 0.0, 0.0, 1.0),
        (0.5, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, 4.0),
        (1.0, 0.0, 0.0, 0.25),
        (1.0, 0.5, 0.2, 1.0),
        (1.0, 0.3, 0.0, 1.0),
        (1.0, 0.0, 0.4, 1.0),
        (1.5, 0.2, 0.1, 1.0),
        (0.8, 0.1, 0.3, 2.0),
    ]
    worst_ratio = 0.0
    for quad in quadruples:
        lhs, rhs = kss_check(basis_1d_half, f, g, *quad, r=2.0)
        worst_ratio = max(worst_ratio, lhs / rhs)
    ineq_ok = worst_ratio <= 1 + 1e-3

    # classical reduction: exact equality and the exact scaling slope
    lhs, rhs = kss_check(basis_1d_classical, f, g, 1.0, 0.0, 0.0, 1.0, 2.0)
    classical_gap = abs(lhs / rhs - 1.0)
    values = []
    dilations = [1.0, 2.0, 4.0]
    for dv in dilations:
        v, _ = kss_check(basis_1d_classical, f, g, 1.0, 0.0, 0.0, dv, 2.0)
        values.append(v)
    slopes = np.diff(np.log(values)) / np.diff(np.log(dilations))
    target = -0.5 * basis_1d_classical.structure.d_eff
    slope_err = np.abs(slopes / target - 1.0).max()
    ok = ineq_ok and classical_gap < 1e-3 and slope_err < 0.02
    announce(10, "mixed-operator Schatten bound", ok,
             f"max lhs/rhs {worst_ratio:.6f} <= 1+1e-3, classical gap "
             f"{classical_gap:.2e} < 1e-3, slope error {slope_err:.2%} < 2%")


def test_criterion_11_inhomogeneous(basis_1d_half):
    basis = basis_1d_half
    rng = np.random.default_rng(3)
    u = rng.normal(size=basis.size)
    u /= np.linalg.norm(u)
    r0 = np.outer(u, u)
    t0, t = 0.0, 0.6
    gam = duhamel_by_shells(basis, r0, t0, t, n_time=401)
    lam = basis.eigenvalues
    dl = lam[:, None] - lam[None, :]
    factor = np.where(
        np.abs(dl) < 1e-12,
        t - t0,
        (np.exp(1j * dl * (t - t0)) - 1.0) / (1j * np.where(dl == 0, 1.0, dl)),
    )
    oracle_err = float(np.abs(gam - r0 * factor).max())

    c = rng.normal(size=(3, basis.size)) * np.exp(
        -0.15 * basis.multi_indices.sum(axis=1)
    )
    lhs, rhs = inhomogeneous_check(
        basis, c.T @ c, 0.0, 1.5, n_time=17, n_source_time=33, r_of_s=np.cos
    )
    ok = oracle_err < 1e-8 and np.isfinite(lhs) and np.isfinite(rhs) and rhs > 0
    announce(11, "inhomogeneous (Duhamel) estimate", ok,
             f"closed-form error {oracle_err:.2e} < 1e-8, "
             f"rank-3 lhs={lhs:.4g} rhs={rhs:.4g} finite")


def test_criterion_12_multilinear_weights():
    beta = 0.5
    r2 = 2.0 / (2.0 - beta)
    b2 = [[0.0, beta], [beta, 0.0]]
    lhs2, rhs2 = mhls_check(
        [lambda t: np.ones_like(t)] * 2, [(0.0, 1.0)] * 2, b2, [r2, r2], n_base=400
    )
    exact = 2.0 / ((1 - beta) * (2 - beta))
    two_ok = np.isfinite(lhs2) and abs(lhs2 / exact - 1.0) < 5e-3

    beta3 = 0.4
    r3 = 1.0 / (1.0 - beta3)
    b3 = [[0.0, beta3, beta3], [beta3, 0.0, beta3], [beta3, beta3, 0.0]]
    prof = lambda t: np.exp(-(t**2))
    lhs3, rhs3 = mhls_check([prof] * 3, [(-4.0, 4.0)] * 3, b3, [r3] * 3, n_base=150)

    lam = 2.0
    prof_l = lambda t: np.exp(-((t / lam) ** 2))
    lhs3b, _ = mhls_check(
        [prof_l] * 3, [(-4.0 * lam, 4.0 * lam)] * 3, b3, [r3] * 3, n_base=150
    )
    power = 3.0 - 3 * beta3  # N - sum of the weight exponents
    cov_err = abs(lhs3b / (lhs3 * lam**power) - 1.0)
    ok = two_ok and np.isfinite(lhs3) and cov_err < 1e-6
    announce(12, "multilinear power-weight integral", ok,
             f"two-factor oracle gap {abs(lhs2 / exact - 1):.2e}, three-factor "
             f"finite, dilation covariance error {cov_err:.2e} < 1e-6")


def test_criterion_13_hartree(basis_1d_half):
    basis = basis_1d_half
    g0 = np.zeros((basis.size, basis.size))
    g0[0, 0] = 1.0

    free_cfg = HartreeConfig(
        basis=basis, gamma0=g0,
        width=1.0,
        coupling=0.0, horizon=0.1, steps=9,
    )
    _, _, free_diag = solve_hartree(free_cfg)
    zero_ok = free_diag["converged"] and free_diag["iterations"] == 1

    cfg = HartreeConfig(
        basis=basis, gamma0=g0,
        width=1.0,
        coupling=0.5, horizon=0.1, steps=17,
    )
    _, _, diag = solve_hartree(cfg)
    drift = max(abs(t - diag["traces"][0]) for t in diag["traces"])
    contraction = max(diag["contraction_factors"]) if diag["contraction_factors"] else 0.0
    ok = zero_ok and diag["converged"] and drift < 1e-8 and contraction < 1.0
    announce(13, "Hartree fixed point", ok,
             f"zero coupling in 1 iteration: {zero_ok}, trace drift "
             f"{drift:.2e} < 1e-8, contraction factor {contraction:.3e} < 1")
