"""Correctness checks for each workload, run after the wall clock stops.

Every check compares the program's outputs against a computation made here,
apart from the program (Gauss-Lobatto rules, closed-form solutions and the
discrete divergence operator are rebuilt with numpy), or against a property
the method must have. None compares against stored output of the program.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np

# --- verdicts ----------------------------------------------------------------


def at_most(name: str, value: float, limit: float) -> dict:
    return {"name": name, "value": float(value), "limit": f"<= {limit:g}",
            "ok": bool(value <= limit)}


def equal(name: str, value, expected) -> dict:
    return {"name": name, "value": value, "limit": f"== {expected}",
            "ok": bool(value == expected)}


def within(name: str, value: float, lo: float, hi: float) -> dict:
    return {"name": name, "value": float(value), "limit": f"in [{lo:g}, {hi:g}]",
            "ok": bool(lo <= value <= hi)}


# --- independent discretisation pieces ---------------------------------------


def gl_rule(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes and weights of degree K on [0, 1]."""
    P = np.polynomial.legendre.Legendre.basis(K)
    x = np.concatenate([[-1.0], np.sort(P.deriv().roots().real), [1.0]])
    w = 2.0 / (K * (K + 1) * P(x) ** 2)
    return 0.5 * (x + 1.0), 0.5 * w


def gl_line(K: int, N: int):
    """Nodes and assembled (diagonal) mass of N equal cells on [0, 1]."""
    t, w = gl_rule(K)
    h = 1.0 / N
    nodes = np.append(np.concatenate([(i + t[:-1]) * h for i in range(N)]), 1.0)
    mass = np.zeros(K * N + 1)
    for i in range(N):
        mass[i * K:i * K + K + 1] += w * h
    return nodes, mass


def weak_derivative(K: int, N: int) -> np.ndarray:
    """Assembled (phi_p, phi_q') on a line, by barycentric differentiation."""
    t, w = gl_rule(K)
    lam = np.array([1.0 / np.prod([t[j] - t[k] for k in range(K + 1) if k != j])
                    for j in range(K + 1)])
    d = np.zeros((K + 1, K + 1))
    for p in range(K + 1):
        for q in range(K + 1):
            if p != q:
                d[p, q] = lam[q] / lam[p] / (t[p] - t[q])
        d[p, p] = -d[p].sum()
    n = K * N + 1
    D = np.zeros((n, n))
    for i in range(N):
        s = slice(i * K, i * K + K + 1)
        D[s, s] += w[:, None] * d
    return D


def prefix_integral(K: int, N: int, h: float) -> np.ndarray:
    """Line integral from the line start to each node of the nodal interpolant."""
    t, _ = gl_rule(K)
    C = np.linalg.inv(np.vander(t, increasing=True))       # phi_q = sum_j C[j, q] s^j
    powers = np.arange(1, K + 2)
    iloc = h * np.array([[np.sum(C[:, q] * tp ** powers / powers) for q in range(K + 1)]
                         for tp in t])
    n = K * N + 1
    I = np.zeros((n, n))
    for i in range(N):
        rows = slice(i * K, i * K + K + 1)
        I[rows] = 0.0                     # the first row was written by cell i-1
        for j in range(i):                # whole earlier cells
            I[rows, j * K:j * K + K + 1] += iloc[-1]
        I[rows, i * K:i * K + K + 1] += iloc
    return I


def vortex_velocity(X, Y):
    hh = 20.0 * np.exp(-100.0 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    return -hh * (Y - 0.5), hh * (X - 0.5)


def translating_solution(X, Y, t, b, p0, a=(-0.1, 0.1), centre=(0.65, 0.39)):
    xs = X - a[0] * t - centre[0]
    ys = Y - a[1] * t - centre[1]
    g = np.exp(-100.0 * (xs ** 2 + ys ** 2))
    gx, gy = -200.0 * xs * g, -200.0 * ys * g
    return b * gx, b * gy, p0 + b * (a[0] * gx + a[1] * gy)


# --- reading the program's outputs --------------------------------------------


def read_dump(path: str) -> np.ndarray:
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, ndmin=2)


def read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, map(float, line.split(",")))) for line in fh if line.strip()]


# --- per-workload checks -------------------------------------------------------


def residuals_per_step(calls: int, steps: int, M: int, kappa: int,
                       time_dependent: bool) -> dict:
    """1 + kappa*M residuals per step; on autonomous problems the first sweep's
    M stage residuals equal the start residual and may be reused."""
    value = calls / steps
    full = 1 + kappa * M
    if time_dependent:
        return equal("residuals_per_step", value, full)
    return within("residuals_per_step", value, 1 + (kappa - 1) * M, full)


def dec_parameters(kappa: int, M: int, K: int) -> dict:
    """Order K+1 in time needs K+1 correction sweeps over the smallest M with
    2M >= K+1 Gauss-Lobatto sub-intervals."""
    return equal("dec_sweeps_and_subintervals", [kappa, M], [K + 1, (K + 2) // 2])


def drift(q0: tuple, qT: tuple) -> float:
    """max|q(T) - q(0)| / max|q(0)| over all three components."""
    return (max(float(np.abs(b - a).max()) for a, b in zip(q0, qT))
            / max(float(np.abs(a).max()) for a in q0))


def expected_samples(steps: int, every: int) -> int:
    return steps // every + 1 + (steps % every != 0)


def check_stationary(inputs: dict, out_dir: str, rec, dec) -> list[dict]:
    run = rec.runs[0]
    q0 = run["q0"].arrays()
    qT = tuple(read_dump(os.path.join(out_dir, f"final_{c}.txt")) for c in "uvp")
    series = read_csv(os.path.join(out_dir, "divergence.csv"))
    every = int(inputs["fixed"]["output.sample_every"])
    t_end = float(inputs["fixed"]["time.t_end"])
    return [
        at_most("relative_drift", drift(q0, qT), 1e-10),
        at_most("max_gf_divergence", max(r["div_norm"] for r in series), 1e-10),
        equal("divergence_samples", len(series), expected_samples(run["steps"], every)),
        at_most("final_time_error", abs(series[-1]["t"] - t_end), 1e-12),
        residuals_per_step(rec.residual_calls, rec.steps, dec.M, dec.kappa, False),
    ]


# Bounds on the L2 errors of (u, p) per unit source amplitude b, for
# standard+OSS at K=4 and T=0.1. The scheme is linear and p0 is a discrete
# steady state, so error/b does not depend on the drawn b and p0; the bounds
# sit about 3x above the measured 1.6e-4, 1.8e-4 (20x20) and 5.6e-6, 7.3e-6 (40x40).
TRANSLATING_ERR_PER_B = {20: (5e-4, 5e-4), 40: (2e-5, 2.5e-5)}


def translating_errors(run, K: int, N: int, b: float, p0: float) -> tuple[float, float]:
    """L2 errors of u and p at the final time, against the closed form, with
    the Gauss-Lobatto quadrature rebuilt here."""
    out, t = run["out"]
    nodes, mass = gl_line(K, N)
    grid_nodes = out.grid.xline
    if grid_nodes.shape != nodes.shape or np.abs(grid_nodes - nodes).max() > 1e-14:
        raise ValueError("program grid nodes differ from the Gauss-Lobatto nodes")
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    ue, _, pe = translating_solution(X, Y, t, b, p0)
    w = np.outer(mass, mass)
    return (math.sqrt(np.sum(w * (out.u.values - ue) ** 2)),
            math.sqrt(np.sum(w * (out.p.values - pe) ** 2)))


def observed_order(e_coarse: float, e_fine: float, n_coarse: int, n_fine: int) -> float:
    return math.log(e_coarse / e_fine) / math.log(n_fine / n_coarse)


def check_translating(inputs: dict, out_dir: str, rec, dec) -> list[dict]:
    K = int(inputs["fixed"]["grid.k"])
    b, p0 = inputs["drawn"]["problem.b"], inputs["drawn"]["problem.p0"]
    meshes = [int(m.split("x")[0]) for m in inputs["fixed"]["grid.meshes"].split()]
    rows = read_csv(os.path.join(out_dir, "convergence.csv"))
    out = []
    errs = []
    for N, run, row in zip(meshes, rec.runs, rows):
        eu, ep = translating_errors(run, K, N, b, p0)
        errs.append((eu, ep))
        bu, bp = TRANSLATING_ERR_PER_B[N]
        out += [at_most(f"err_u_{N}", eu, bu * b), at_most(f"err_p_{N}", ep, bp * b),
                at_most(f"csv_err_u_{N}_mismatch", abs(row["err_u"] - eu) / eu, 1e-8),
                at_most(f"csv_err_p_{N}_mismatch", abs(row["err_p"] - ep) / ep, 1e-8),
                equal(f"blown_{N}", row["blown"], 0.0)]
    out.append(equal("meshes_run", len(rec.runs), len(meshes)))
    for i, comp in enumerate("up"):
        out.append(within(f"order_{comp}", observed_order(errs[0][i], errs[1][i], *meshes),
                          K + 0.4, K + 1.2))
    out.append(residuals_per_step(rec.residual_calls, rec.steps, dec.M, dec.kappa, True))
    return out


def kernel_residual(u: np.ndarray, v: np.ndarray, K: int, N: int) -> float:
    """Interior max of (Dx (x) Dy)(U + V), U = u integrated along y and V = v
    along x: the GF divergence of a source-free state."""
    D = weak_derivative(K, N)
    I = prefix_integral(K, N, 1.0 / N)
    R = D @ (u @ I.T + I @ v) @ D.T
    return float(np.abs(R[1:-1, 1:-1]).max())


def velocity_deviation(u: np.ndarray, v: np.ndarray, K: int, N: int) -> float:
    """Mass-weighted L2 distance of (u, v) from the interpolated vortex."""
    nodes, mass = gl_line(K, N)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    ue, ve = vortex_velocity(X, Y)
    w = np.outer(mass, mass)
    return math.sqrt(np.sum(w * ((u - ue) ** 2 + (v - ve) ** 2)))


def check_perturb(inputs: dict, out_dir: str, rec, dec) -> list[dict]:
    from gfsem.config import load_config
    from gfsem.experiments import ExperimentConfig, build_case
    from gfsem.wellprep import line_by_line_projection

    cfg = ExperimentConfig.from_mapping(load_config(inputs["config"]))
    (N, _), K = cfg.meshes[0], cfg.K
    kkt_state, report = rec.projections[0]
    problem, grid, ops_x, ops_y, _ = build_case(cfg, cfg.meshes[0])
    lbl_state, _ = line_by_line_projection(problem, grid, ops_x, ops_y, lam=cfg.init_lambda)
    nx, ny = grid.shape
    u, v = kkt_state.u.values, kkt_state.v.values

    snaps = sorted(glob.glob(os.path.join(out_dir, "vel_diff_*.txt")))
    fields = [read_dump(p) for p in snaps]
    steps = rec.runs[0]["steps"]
    return [
        at_most("kkt_kernel_residual", kernel_residual(u, v, K, N), 1e-10),
        at_most("kkt_reported_kernel_residual", report.kernel_residual, 1e-10),
        equal("rank_deficiency", report.rank_deficiency, nx + ny - 1),
        at_most("kkt_minus_lbl_deviation",
                velocity_deviation(u, v, K, N)
                - velocity_deviation(lbl_state.u.values, lbl_state.v.values, K, N), 0.0),
        equal("snapshots", len(fields), expected_samples(steps, cfg.sample_every)),
        equal("step0_velocity_difference", float(np.abs(fields[0]).max()), 0.0),
        equal("snapshots_finite", all(np.isfinite(f).all() for f in fields), True),
        residuals_per_step(rec.residual_calls, rec.steps, dec.M, dec.kappa, False),
    ]


CHECKS = {
    "stationary_vortex_gf_su_k2": check_stationary,
    "translating_std_oss_k4": check_translating,
    "perturb_optimize_k3": check_perturb,
}


def run(inputs: dict, out_dir: str, rec) -> list[dict]:
    from gfsem.config import load_config
    from gfsem.dec import DeCConfig

    K = int(load_config(inputs["config"])["grid.k"])
    dec = DeCConfig.for_degree(K)
    try:
        return [dec_parameters(dec.kappa, dec.M, K),
                *CHECKS[inputs["workload"]](inputs, out_dir, rec, dec)]
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [{"name": "outputs_readable", "value": f"{type(exc).__name__}: {exc}",
                 "limit": "outputs present and well formed", "ok": False}]
