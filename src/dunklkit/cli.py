"""Command-line harness: kernel identity verification, Strichartz-type
functionals, Schatten duals, the Hartree solver, and exponent sweeps.

Configuration is a flat key = value file (see ``load_config``); every report
embeds the configuration echo.  Exit codes: 0 all checks pass, 2 an identity
check failed, 64 configuration error.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from .hartree import HartreeConfig, solve_hartree
from .hermite import build_basis, kernel_Kit, mehler_closed_form
from .freeprop import kernel_Lit, lens_relation_residual
from .operators import OperatorMatrix, kss_check, schatten_norm, time_averaged_operator
from .quadrature import tensor_grid, time_grid
from .strichartz import (
    ExponentPair,
    inhomogeneous_check,
    mhls_check,
    run_inequality,
)
from .structure import DunklStructure

EXIT_OK = 0
EXIT_IDENTITY = 2
EXIT_CONFIG = 64

_DEFAULTS = {
    "d": 1,
    "kappa": (0.5,),
    "n_degree": 48,
    "grid_order": 56,
    "time_nodes": 256,
    "seed": 0,
    "output": "reports",
}


def load_config(path: str | None) -> dict:
    """Flat key = value file; '#' comments; kappa is a space/comma list."""
    cfg = dict(_DEFAULTS)
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise click.ClickException(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("d", "n_degree", "grid_order", "time_nodes", "seed"):
            cfg[key] = int(value)
        elif key == "kappa":
            cfg[key] = tuple(float(v) for v in value.replace(",", " ").split())
        elif key == "output":
            cfg[key] = value
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    return cfg


def _context(cfg: dict):
    s = DunklStructure(cfg["d"], cfg["kappa"])
    try:
        grid = tensor_grid(s, cfg["grid_order"])
    except ArithmeticError as exc:
        raise ValueError(f"grid_order {cfg['grid_order']} is not usable: {exc}") from exc
    basis = build_basis(s, cfg["n_degree"], grid)
    return s, grid, basis


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, rows: list[dict]):
    if not rows:
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_summary(path: Path, cfg: dict, payload: dict):
    payload = {"config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
               **payload}
    path.write_text(json.dumps(payload, indent=2, default=float) + "\n")


def _fail_identity(message: str):
    click.echo(f"IDENTITY FAILURE: {message}", err=True)
    sys.exit(EXIT_IDENTITY)


@click.group()
@click.option("--config", "-c", "config_path", type=str, default=None,
              help="key = value configuration file")
@click.pass_context
def main(ctx, config_path):
    """Spectral toolkit for weighted oscillator/free flows."""
    try:
        ctx.obj = load_config(config_path)
    except (ValueError, click.ClickException) as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


@main.command("verify-kernels")
@click.pass_obj
def verify_kernels(cfg):
    """Propagator-kernel identities on sample lattices (pass/fail)."""
    cases = [(1, (0.0,)), (1, (0.5,)), (1, (1.5,)), (2, (1.0, 0.5))]
    rows = []
    worst = 0.0
    for d, kappa in cases:
        s = DunklStructure(d, kappa)
        pts = np.linspace(-2.0, 2.0, 5)
        if d == 1:
            x = pts[:, None]
            y = pts[None, :]
        else:
            x = np.stack(np.meshgrid(pts, pts, indexing="ij"), axis=-1).reshape(-1, 1, d)
            y = x.reshape(1, -1, d)
        for v in (0.1, 0.5, 1.0, 2.0, 10.0):
            t = 0.5 * np.arctan(v)
            mag = np.abs(kernel_Kit(s, t, x, y)).max()
            res = float((lens_relation_residual(s, v, x, y) / mag).max())
            rows.append({"d": d, "kappa": " ".join(map(str, kappa)), "check": "lens",
                         "parameter": v, "residual": res})
            worst = max(worst, res)
        for t in (0.3, 0.7, 1.2):
            k = kernel_Kit(s, t, x, y)
            sym = float(np.abs(k - kernel_Kit(s, t, y, x)).max())
            conj = float(np.abs(np.conj(k) - kernel_Kit(s, -t, x, y)).max())
            bound = s.m_kappa * np.abs(1.0 / np.sin(2.0 * t)) ** (s.d_eff / 2.0)
            mag = float(np.abs(k).max())
            rows.append({"d": d, "kappa": " ".join(map(str, kappa)), "check": "symmetry",
                         "parameter": t, "residual": max(sym, conj)})
            rows.append({"d": d, "kappa": " ".join(map(str, kappa)), "check": "magnitude",
                         "parameter": t, "residual": max(mag - bound, 0.0)})
            worst = max(worst, sym, conj, max(mag - bound, 0.0) / bound)
    out = _outdir(cfg)
    _write_csv(out / "verify_kernels.csv", rows)
    _write_summary(out / "verify_kernels.json", cfg,
                   {"worst_residual": worst, "passed": worst < 1e-10})
    click.echo(f"worst relative residual {worst:.3e}")
    if worst >= 1e-10:
        _fail_identity(f"kernel identity residual {worst:.3e} >= 1e-10")


@main.command()
@click.option("--q", type=float, default=1.5, show_default=True)
@click.option("--group", type=click.Choice(["basis_subset", "haar_rotation",
                                            "gaussian_orthogonalized"]),
              default="haar_rotation", show_default=True)
@click.option("--kappa", type=str, default=None, help="override multiplicities")
@click.option("--j", "j_count", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--flow", type=click.Choice(["hermite", "laplacian"]),
              default="hermite", show_default=True)
@click.pass_obj
def strichartz(cfg, q, group, kappa, j_count, seed, flow):
    """One orthonormal-system inequality evaluation."""
    if kappa is not None:
        cfg = {**cfg, "kappa": tuple(float(v) for v in kappa.replace(",", " ").split())}
    if seed is None:
        seed = cfg["seed"]
    try:
        s, grid, basis = _context(cfg)
        report = run_inequality(basis, q, group, j_count, seed, flow, cfg["time_nodes"])
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = _outdir(cfg)
    _write_csv(out / "strichartz.csv", [report.as_dict()])
    _write_summary(out / "strichartz.json", cfg, {"report": report.as_dict()})
    click.echo(f"q={q} p={report.p:.4g} lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
               f"ratio={report.ratio:.6g}")
    if q == 1.0 and report.ratio > 1.0 + 1e-8:
        _fail_identity(f"q=1 ratio {report.ratio} exceeds 1")


@main.command("dual-schatten")
@click.option("--qprime", type=float, default=None,
              help="defaults to the admissible corner 1 + d_eff/2")
@click.pass_obj
def dual_schatten(cfg, qprime):
    """Schatten norm of the time-averaged conjugated potential."""
    try:
        s, grid, basis = _context(cfg)
        tn = time_grid(-np.pi, np.pi, cfg["time_nodes"])
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if qprime is None:
        qprime = 1.0 + s.d_eff / 2.0
    rng = np.random.default_rng(cfg["seed"])
    envelope = np.exp(-0.5 * (grid.nodes**2).sum(axis=-1))
    v = np.stack([envelope * (1.0 + 0.3 * np.cos(k * tn[0][i]))
                  for i, k in enumerate(rng.integers(1, 4, tn[0].size))])
    b = time_averaged_operator(basis, tn, v)
    value = schatten_norm(b, 2.0 * qprime)
    opnorm = schatten_norm(b, np.inf)
    l1linf = float(np.sum(tn[1] * np.abs(v).max(axis=1)))
    out = _outdir(cfg)
    rows = [{"qprime": qprime, "value": value, "operator_norm": opnorm,
             "l1_linf_bound": l1linf}]
    _write_csv(out / "dual_schatten.csv", rows)
    _write_summary(out / "dual_schatten.json", cfg, {"rows": rows})
    click.echo(f"q'={qprime:.4g}: Schatten-2q' value {value:.6g}; "
               f"operator norm {opnorm:.6g} <= {l1linf:.6g}")
    if opnorm > l1linf + 1e-8:
        _fail_identity("triangle bound violated for the dual functional")


@main.command()
@click.option("--q", type=float, default=1.5, show_default=True)
@click.option("--t0", type=float, default=0.0, show_default=True)
@click.option("--rank", type=int, default=3, show_default=True)
@click.pass_obj
def inhomogeneous(cfg, q, t0, rank):
    """Source-term (Duhamel) density inequality."""
    try:
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        if not np.isfinite(t0):
            raise ValueError(f"t0 must be finite, got {t0}")
        s, grid, basis = _context(cfg)
        rng = np.random.default_rng(cfg["seed"])
        span = min(basis.size, 12)
        vecs = rng.normal(size=(rank, basis.size)) + 1j * rng.normal(size=(rank, basis.size))
        vecs[:, span:] = 0.0
        r0 = sum(np.outer(v, v.conj()) for v in vecs) / rank
        lhs, rhs = inhomogeneous_check(basis, lambda sv: r0, t0, q,
                                       n_time=min(cfg["time_nodes"], 96))
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = _outdir(cfg)
    rows = [{"q": q, "t0": t0, "rank": rank, "lhs": lhs, "rhs": rhs,
             "ratio": lhs / rhs}]
    _write_csv(out / "inhomogeneous.csv", rows)
    _write_summary(out / "inhomogeneous.json", cfg, {"rows": rows})
    click.echo(f"lhs={lhs:.6g} rhs={rhs:.6g} ratio={lhs / rhs:.6g}")
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        _fail_identity(f"non-finite Duhamel figures lhs={lhs} rhs={rhs}")


@main.command()
@click.option("--r", type=float, default=2.0, show_default=True)
@click.option("--params", type=str, default="1 0.5 0.2 1", show_default=True,
              help="alpha beta gamma delta")
@click.pass_obj
def kss(cfg, r, params):
    """Schatten bound for products of mixed position-momentum operators."""
    try:
        quad = tuple(float(v) for v in params.replace(",", " ").split())
        if len(quad) != 4:
            raise ValueError("params needs four reals: alpha beta gamma delta")
        s, grid, basis = _context(cfg)
        if s.d != 1:
            raise ValueError("mixed-operator checks are one-dimensional")
        f = lambda x: np.exp(-np.asarray(x)[..., 0] ** 2)
        g = lambda x: np.exp(-0.5 * np.asarray(x)[..., 0] ** 2)
        lhs, rhs = kss_check(basis, f, g, *quad, np.inf if np.isinf(r) else r)
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = _outdir(cfg)
    rows = [{"r": r, "alpha": quad[0], "beta": quad[1], "gamma": quad[2],
             "delta": quad[3], "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}]
    _write_csv(out / "kss.csv", rows)
    _write_summary(out / "kss.json", cfg, {"rows": rows})
    click.echo(f"lhs={lhs:.6g} rhs={rhs:.6g} ratio={lhs / rhs:.6g}")
    if lhs > rhs * (1.0 + 1e-3):
        _fail_identity(f"Schatten product bound violated: ratio {lhs / rhs}")


@main.command()
@click.option("--n", "n_factors", type=click.Choice(["2", "3"]), default="2",
              show_default=True)
@click.option("--beta", type=float, default=0.5, show_default=True)
@click.pass_obj
def mhls(cfg, n_factors, beta):
    """Multilinear singular integral with pairwise power weights."""
    n = int(n_factors)
    try:
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if n == 2:
            r = 2.0 / (2.0 - beta)
            profiles = [lambda t: np.ones_like(t)] * 2
            supports = [(0.0, 1.0)] * 2
            bmat = [[0.0, beta], [beta, 0.0]]
            rs = [r, r]
        else:
            r = 1.0 / (1.0 - beta)
            profiles = [lambda t: np.exp(-(t**2))] * 3
            supports = [(-4.0, 4.0)] * 3
            bmat = [[0.0, beta, beta], [beta, 0.0, beta], [beta, beta, 0.0]]
            rs = [r, r, r]
        lhs, rhs = mhls_check(profiles, supports, bmat, rs)
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = _outdir(cfg)
    rows = [{"n": n, "beta": beta, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}]
    _write_csv(out / "mhls.csv", rows)
    _write_summary(out / "mhls.json", cfg, {"rows": rows})
    click.echo(f"lhs={lhs:.6g} rhs={rhs:.6g} empirical constant {lhs / rhs:.6g}")
    if not np.isfinite(lhs):
        _fail_identity("singular integral diverged")


@main.command()
@click.option("--q-min", type=float, default=1.1, show_default=True)
@click.option("--q-max", type=float, default=1.9, show_default=True)
@click.option("--steps", type=int, default=5, show_default=True)
@click.option("--j-values", type=str, default="1 2 4 8", show_default=True)
@click.option("--seeds", type=int, default=3, show_default=True)
@click.pass_obj
def sweep(cfg, q_min, q_max, steps, j_values, seeds):
    """Ratio-vs-exponent sweep over system sizes and seeds."""
    try:
        if not 1.0 <= q_min <= q_max:
            raise ValueError(f"need 1 <= q_min <= q_max, got {q_min}, {q_max}")
        s, grid, basis = _context(cfg)
        j_list = [int(v) for v in j_values.replace(",", " ").split()]
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    rows = []
    start = time.perf_counter()
    for q in np.linspace(q_min, q_max, steps):
        pair = ExponentPair(float(q), s.d_eff)
        for j_count in j_list:
            for seed in range(seeds):
                rep = run_inequality(basis, float(q), "haar_rotation", j_count,
                                     seed, "hermite", cfg["time_nodes"])
                row = rep.as_dict()
                row["admissible"] = pair.admissible
                rows.append(row)
    out = _outdir(cfg)
    _write_csv(out / "sweep.csv", rows)
    curve = {}
    for row in rows:
        curve.setdefault(row["q"], []).append(row["ratio"])
    with (out / "ratio_vs_q.dat").open("w") as fh:
        for q in sorted(curve):
            fh.write(f"{q:.6f} {max(curve[q]):.8f}\n")
    _write_summary(out / "sweep.json", cfg, {
        "rows": len(rows),
        "max_ratio": max(r["ratio"] for r in rows),
        "min_ratio": min(r["ratio"] for r in rows),
        "wall_time": time.perf_counter() - start,
    })
    click.echo(f"{len(rows)} evaluations; ratio range "
               f"[{min(r['ratio'] for r in rows):.4g}, "
               f"{max(r['ratio'] for r in rows):.4g}]")


@main.command()
@click.option("--coupling", type=float, default=0.3, show_default=True)
@click.option("--horizon", type=float, default=0.1, show_default=True)
@click.option("--steps", type=int, default=17, show_default=True)
@click.option("--width", type=float, default=1.0, show_default=True,
              help="interaction profile Gaussian width")
@click.pass_obj
def hartree(cfg, coupling, horizon, steps, width):
    """Fixed-point solve of the oscillator Hartree flow (d = 1)."""
    try:
        local = {**cfg, "d": 1, "kappa": cfg["kappa"][:1]}
        s, grid, basis = _context(local)
        g0 = np.zeros((basis.size, basis.size))
        g0[0, 0] = 1.0
        config = HartreeConfig(
            OperatorMatrix(basis, g0),
            lambda x: np.exp(-(x / width) ** 2),
            coupling=coupling,
            horizon=horizon,
            steps=steps,
        )
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    times, traj, diag = solve_hartree(config)
    out = _outdir(cfg)
    rows = [{"iteration": i, "residual": r} for i, r in enumerate(diag["residuals"])]
    _write_csv(out / "hartree.csv", rows)
    _write_summary(out / "hartree.json", cfg, {
        "converged": diag["converged"],
        "iterations": diag["iterations"],
        "trace_drift": max(abs(t - diag["traces"][0]) for t in diag["traces"]),
        "contraction_factors": diag["contraction_factors"],
    })
    drift = max(abs(t - diag["traces"][0]) for t in diag["traces"])
    click.echo(f"converged={diag['converged']} iterations={diag['iterations']} "
               f"trace drift={drift:.3e}")
    if diag["converged"] and drift > 1e-8:
        _fail_identity(f"trace drift {drift:.3e} exceeds 1e-8")


if __name__ == "__main__":
    main()
