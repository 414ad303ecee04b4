"""Command-line harness: kernel identity verification, Strichartz-type
functionals, Schatten duals, the Hartree solver, and exponent sweeps.

Configuration is a flat key = value file (see ``load_config``); every report
embeds the configuration echo.  Exit codes: 0 all checks pass, 64 a
configuration error (a ValueError in a command's ``_config_errors`` block),
2 an identity failure.  Every command ends in one ``_finish`` call: it writes
the report, prints the command's line, then exits 2 if a reported figure is
inf or NaN, or else if the command's own gate failed (an identity check, or
a Hartree solve that did not converge).  ``sweep`` writes ``ratio_vs_q.dat``
after ``_finish`` returns, so a sweep that exits 2 leaves no ``.dat`` file.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .hartree import HartreeConfig, solve_hartree
from .hermite import build_basis, kernel_Kit
from .freeprop import lens_relation_residual
from .operators import flow_phases, kss_check, multiplication_matrix, parity_blocks, schatten_norm
from .quadrature import mixed_norm, tensor_grid, time_grid
from .strichartz import (
    ExponentPair,
    inhomogeneous_check,
    mhls_check,
    quarter_period,
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
    try:
        text = "" if path is None else Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("d", "n_degree", "grid_order", "time_nodes", "seed"):
            cfg[key] = int(value)
            if key == "seed" and cfg[key] < 0:
                raise ValueError(f"line {lineno}: seed must be non-negative, got {value}")
        elif key == "kappa":
            cfg[key] = tuple(float(v) for v in value.replace(",", " ").split())
        elif key == "output":
            cfg[key] = value
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    # the report is written after all the work: its directory must be creatable
    output = Path(cfg["output"])
    existing = next(p for p in (output, *output.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"output {cfg['output']!r}: {existing} is not a directory")
    return cfg


def _context(cfg: dict):
    s = DunklStructure(cfg["d"], cfg["kappa"])
    try:
        grid = tensor_grid(s, cfg["grid_order"])
    except ArithmeticError as exc:
        raise ValueError(f"grid_order {cfg['grid_order']} is not usable: {exc}") from exc
    basis = build_basis(s, cfg["n_degree"], grid)
    return s, grid, basis


@contextmanager
def _config_errors():
    """A ValueError raised in the block is a configuration error: exit 64."""
    try:
        yield
    except ValueError as exc:
        click.echo(f"CONFIG ERROR: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _finish(cfg: dict, name: str, rows: list[dict], line: str, summary: dict | None = None,
            finite: dict | None = None, failure: str | None = None) -> Path:
    """Write ``<name>.csv`` (the rows, if any) and ``<name>.json`` (the
    configuration echo plus ``summary``, by default the rows) to the output
    directory and print ``line``; then exit 2 if a figure of ``finite`` (a
    value or a list of them) is inf or NaN, or else with ``failure`` if the
    command's gate gave one.  Return the output directory."""
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    if rows:
        with (out / f"{name}.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    payload = {"config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
               **({"rows": rows} if summary is None else summary)}
    (out / f"{name}.json").write_text(json.dumps(payload, indent=2, default=float) + "\n")
    click.echo(line)
    bad = [key for key, value in (finite or {}).items() if not np.isfinite(value).all()]
    if bad:
        failure = f"non-finite {', '.join(bad)}"
    if failure is not None:
        click.echo(f"IDENTITY FAILURE: {failure}", err=True)
        sys.exit(EXIT_IDENTITY)
    return out


@click.group()
@click.option("--config", "-c", "config_path", type=str, default=None,
              help="key = value configuration file")
@click.pass_context
def main(ctx, config_path):
    """Spectral toolkit for weighted oscillator/free flows."""
    with _config_errors():
        ctx.obj = load_config(config_path)


@main.command("verify-kernels")
@click.pass_obj
def verify_kernels(cfg):
    """Propagator-kernel identities on sample lattices (pass/fail)."""
    cases = [(1, (0.0,)), (1, (0.5,)), (1, (1.5,)), (2, (1.0, 0.5))]
    rows, residuals = [], []
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
            residuals.append(res)
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
            residuals += [sym, conj, max(mag - bound, 0.0) / bound]
    worst = float(np.max(residuals))  # NaN if any residual is
    _finish(cfg, "verify_kernels", rows, f"worst relative residual {worst:.3e}",
            {"worst_residual": worst, "passed": worst < 1e-10},
            finite={"worst_residual": worst},
            failure=f"kernel identity residual {worst:.3e} >= 1e-10" if worst >= 1e-10 else None)


@main.command()
@click.option("--q", type=float, default=1.5, show_default=True)
@click.option("--group", type=click.Choice(["basis_subset", "haar_rotation",
                                            "gaussian_orthogonalized"]),
              default="haar_rotation", show_default=True)
@click.option("--j", "j_count", type=int, default=8, show_default=True)
@click.option("--flow", type=click.Choice(["hermite", "laplacian"]),
              default="hermite", show_default=True)
@click.pass_obj
def strichartz(cfg, q, group, j_count, flow):
    """One orthonormal-system inequality evaluation."""
    with _config_errors():
        s, grid, basis = _context(cfg)
        [[report]] = run_inequality(basis, [q], group, [j_count], cfg["seed"], flow,
                                    cfg["time_nodes"])
    _finish(cfg, "strichartz", [report.as_dict()],
            f"q={q} p={report.p:.4g} lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
            f"ratio={report.ratio:.6g}", {"report": report.as_dict()},
            finite={"lhs": report.lhs, "rhs": report.rhs, "ratio": report.ratio},
            failure=(f"q=1 ratio {report.ratio} exceeds 1"
                     if q == 1.0 and report.ratio > 1.0 + 1e-8 else None))


@main.command("dual-schatten")
@click.option("--qprime", type=float, default=None,
              help="defaults to the admissible corner 1 + d_eff/2")
@click.pass_obj
def dual_schatten(cfg, qprime):
    """Schatten norm of the time-averaged conjugated potential."""
    with _config_errors():
        s, grid, basis = _context(cfg)
        t, tau = time_grid(-np.pi, np.pi, cfg["time_nodes"])
        if qprime is None:
            qprime = 1.0 + s.d_eff / 2.0
        if not 0.5 <= qprime < np.inf:
            raise ValueError(f"q' must be finite and >= 1/2, got {qprime}")
    rng = np.random.default_rng(cfg["seed"])
    envelope = np.exp(-0.5 * (grid.nodes**2).sum(axis=-1))
    v = envelope * (1.0 + 0.3 * np.cos(rng.integers(1, 4, t.size) * t))[:, None]
    b = multiplication_matrix(basis, v, tau[:, None] * flow_phases(basis, -t))
    # V is even in every x_j, so B commutes with the reflections
    value, opnorm = schatten_norm(b, [2.0 * qprime, np.inf], parity_blocks(basis)).tolist()
    l1linf = mixed_norm((t, tau), grid, v, 1.0, np.inf)
    figures = {"value": value, "operator_norm": opnorm, "l1_linf_bound": l1linf}
    _finish(cfg, "dual_schatten", [{"qprime": qprime, **figures}],
            f"q'={qprime:.4g}: Schatten-2q' value {value:.6g}; "
            f"operator norm {opnorm:.6g} <= {l1linf:.6g}", finite=figures,
            failure=("triangle bound violated for the dual functional"
                     if opnorm > l1linf + 1e-8 else None))


@main.command()
@click.option("--q", type=float, default=1.5, show_default=True)
@click.option("--t0", type=float, default=0.0, show_default=True)
@click.option("--rank", type=int, default=3, show_default=True)
@click.pass_obj
def inhomogeneous(cfg, q, t0, rank):
    """Source-term (Duhamel) density inequality."""
    with _config_errors():
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
        lhs, rhs = inhomogeneous_check(basis, r0, t0, q,
                                       n_time=min(cfg["time_nodes"], 96))
    figures = {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}
    _finish(cfg, "inhomogeneous", [{"q": q, "t0": t0, "rank": rank, **figures}],
            f"lhs={lhs:.6g} rhs={rhs:.6g} ratio={lhs / rhs:.6g}", finite=figures)


def _gaussian(a: float):
    """The profile x -> e^{-a x_0^2}; a square that overflows gives the
    limit e^{-inf} = 0."""
    def f(x):
        with np.errstate(over="ignore"):
            return np.exp(-a * np.asarray(x)[..., 0] ** 2)
    return f


@main.command()
@click.option("--r", type=float, default=2.0, show_default=True)
@click.option("--params", type=str, default="1 0.5 0.2 1", show_default=True,
              help="alpha beta gamma delta")
@click.pass_obj
def kss(cfg, r, params):
    """Schatten bound for products of mixed position-momentum operators."""
    with _config_errors():
        quad = tuple(float(v) for v in params.replace(",", " ").split())
        if len(quad) != 4 or not np.isfinite(quad).all():
            raise ValueError(
                f"--params needs four finite reals alpha beta gamma delta, got {params!r}"
            )
        s, grid, basis = _context(cfg)
        if s.d != 1:
            raise ValueError("mixed-operator checks are one-dimensional")
        lhs, rhs = kss_check(basis, _gaussian(1.0), _gaussian(0.5), *quad, r)
    figures = {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}
    _finish(cfg, "kss", [{"r": r, "alpha": quad[0], "beta": quad[1], "gamma": quad[2],
                          "delta": quad[3], **figures}],
            f"lhs={lhs:.6g} rhs={rhs:.6g} ratio={lhs / rhs:.6g}", finite=figures,
            failure=(f"Schatten product bound violated: ratio {lhs / rhs}"
                     if lhs > rhs * (1.0 + 1e-3) else None))


@main.command()
@click.option("--n", "n_factors", type=click.Choice(["2", "3"]), default="2",
              show_default=True)
@click.option("--beta", type=float, default=0.5, show_default=True)
@click.pass_obj
def mhls(cfg, n_factors, beta):
    """Multilinear singular integral with pairwise power weights."""
    n = int(n_factors)
    with _config_errors():
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
    figures = {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}
    _finish(cfg, "mhls", [{"n": n, "beta": beta, **figures}],
            f"lhs={lhs:.6g} rhs={rhs:.6g} empirical constant {lhs / rhs:.6g}", finite=figures)


@main.command()
@click.option("--q-min", type=float, default=1.1, show_default=True)
@click.option("--q-max", type=float, default=1.9, show_default=True)
@click.option("--steps", type=int, default=5, show_default=True)
@click.option("--j-values", type=str, default="1 2 4 8", show_default=True)
@click.option("--seeds", type=int, default=3, show_default=True)
@click.pass_obj
def sweep(cfg, q_min, q_max, steps, j_values, seeds):
    """Ratio-vs-exponent sweep over system sizes and seeds."""
    with _config_errors():
        if not 1.0 <= q_min <= q_max < np.inf:
            raise ValueError(f"need 1 <= q_min <= q_max < inf, got {q_min}, {q_max}")
        if steps < 1 or seeds < 1:
            raise ValueError(f"steps and seeds must be at least 1, got {steps}, {seeds}")
        s, grid, basis = _context(cfg)
        quarter_period(cfg["time_nodes"])  # the rule each evaluation builds
        j_list = [int(v) for v in j_values.replace(",", " ").split()]
        if not j_list or not all(1 <= j <= basis.size for j in j_list):
            raise ValueError(f"j values must lie in [1, {basis.size}], got {j_values!r}")
    qs = np.linspace(q_min, q_max, steps).tolist()
    start = time.perf_counter()
    # one stacked propagation per seed for every J and q; rows stay q-major,
    # then J, then seed
    per_seed = [run_inequality(basis, qs, "haar_rotation", j_list, seed,
                               "hermite", cfg["time_nodes"])
                for seed in range(seeds)]
    per_system = [reports for by_seed in zip(*per_seed) for reports in by_seed]
    rows = []
    for i, q in enumerate(qs):
        admissible = ExponentPair(q, s.d_eff).admissible
        for reports in per_system:
            rows.append({**reports[i].as_dict(), "admissible": admissible})
    lo, hi = min(r["ratio"] for r in rows), max(r["ratio"] for r in rows)
    out = _finish(cfg, "sweep", rows, f"{len(rows)} evaluations; ratio range [{lo:.4g}, {hi:.4g}]",
                  {"rows": len(rows), "max_ratio": hi, "min_ratio": lo,
                   "wall_time": time.perf_counter() - start},
                  finite={key: [r[key] for r in rows] for key in ("lhs", "rhs", "ratio")})
    curve = {}
    for row in rows:
        curve.setdefault(row["q"], []).append(row["ratio"])
    with (out / "ratio_vs_q.dat").open("w") as fh:
        for q in sorted(curve):
            fh.write(f"{q:.6f} {max(curve[q]):.8f}\n")


@main.command()
@click.option("--coupling", type=float, default=0.3, show_default=True)
@click.option("--horizon", type=float, default=0.1, show_default=True)
@click.option("--steps", type=int, default=17, show_default=True)
@click.option("--width", type=float, default=1.0, show_default=True,
              help="interaction profile Gaussian width")
@click.pass_obj
def hartree(cfg, coupling, horizon, steps, width):
    """Fixed-point solve of the oscillator Hartree flow."""
    with _config_errors():
        _, _, basis = _context(cfg)
        g0 = np.zeros((basis.size, basis.size))
        g0[0, 0] = 1.0
        config = HartreeConfig(
            basis,
            g0,
            width=width,
            coupling=coupling,
            horizon=horizon,
            steps=steps,
        )
    times, traj, diag = solve_hartree(config)
    drift = max(abs(t - diag["traces"][0]) for t in diag["traces"])
    rows = [{"iteration": i, "residual": r} for i, r in enumerate(diag["residuals"])]
    _finish(cfg, "hartree", rows,
            f"converged={diag['converged']} iterations={diag['iterations']} "
            f"trace drift={drift:.3e}", {
                "converged": diag["converged"],
                "iterations": diag["iterations"],
                "trace_drift": drift,
                "contraction_factors": diag["contraction_factors"],
                "blocks": diag["blocks"],
            },
            failure=(f"Hartree solve did not converge in {diag['iterations']} iterations"
                     if not diag["converged"] else
                     f"trace drift {drift:.3e} exceeds 1e-8" if drift > 1e-8 else None))


if __name__ == "__main__":
    main()
