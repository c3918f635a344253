"""Shared test utilities: dense Kronecker oracles, the dense 1D operator
assembly, the dense KKT projection, the residual by prefix integration,
random kernel states, a DeC step of a plain ODE, the benchmark tracer's
layers, and small grid and CSV conveniences."""

import importlib.util
import os

import numpy as np
import scipy.linalg

from gfsem.basis import OperatorSet1D, diff_matrix, gauss_lobatto_rule, integral_block
from gfsem.dec import DeCConfig, DeCWorkspace, dec_sweeps
from gfsem.gf import SourceArrays
from gfsem.grid import Field, Grid2D, State, apply_xy, l2_norm
from gfsem.problems import SourceEval, exact_state
from gfsem.wellprep import _pressure_from_sources, _report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def kron_apply(ax: np.ndarray, ay: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense (ax (x) ay) vec(q) reference, reshaped back to grid layout."""
    n = values.shape
    return (np.kron(ax, ay) @ values.ravel()).reshape(ax.shape[0], ay.shape[0])


def dense_operator_family(K: int, N: int, delta: float, periodic: bool = False,
                          neumann: bool = False) -> dict:
    """Dense n x n reference for M, D, Dt, DD, Z and, on a plain line, the
    prefix integration I: element blocks added through np.ix_, Z by a dense
    product, the Neumann closure as row surgery on the dense arrays, and row
    r of I as the full-cell integrals of the cells before node r plus the
    partial one of its own cell."""
    rule = gauss_lobatto_rule(K)
    w, d = rule.weights, diff_matrix(rule)
    mass_loc = delta * np.diag(w)
    d_loc = w[:, None] * d
    dd_loc = (d.T * w) @ d / delta
    n = K * N if periodic else K * N + 1
    mass, D, DD = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for i in range(N):
        idx = (i * K + np.arange(K + 1)) % n
        mass[np.ix_(idx, idx)] += mass_loc
        D[np.ix_(idx, idx)] += d_loc
        DD[np.ix_(idx, idx)] += dd_loc
    md = np.diag(mass).copy()
    Dt = D.T.copy()
    if neumann:
        for row in (0, -1):
            D[row, :] = 0.0
            Dt[row, :] = 0.0
            DD[row, :] *= 2.0
            md[row] *= 2.0
    Z = DD - Dt @ (D / md[:, None])
    ref = {"M": np.diag(md), "D": D, "Dt": Dt, "DD": DD, "Z": Z}
    if not periodic:
        iloc = delta * integral_block(rule)
        ref["I"] = np.zeros((n, n))
        for r in range(1, n):
            cell, p = (r - 1) // K, (r - 1) % K + 1
            for c in range(cell):
                ref["I"][r, c * K + np.arange(K + 1)] += iloc[K]
            ref["I"][r, cell * K + np.arange(K + 1)] += iloc[p]
    return ref


def scipy_operator_family(K: int, N: int, delta: float, periodic: bool = False,
                          neumann: bool = False) -> dict:
    """D, Dt, DD, Z and, on a plain line, E, F and G as scipy.sparse
    assembles them, as dense arrays: COO to CSR summing duplicates, Z and G
    by sparse products, the Neumann closure by diagonal row scalings."""
    import scipy.sparse as sp
    rule = gauss_lobatto_rule(K)
    w, d = rule.weights, diff_matrix(rule)
    d_loc, dd_loc = w[:, None] * d, (d.T * w) @ d / delta
    i_loc = delta * integral_block(rule)
    n = K * N if periodic else K * N + 1
    cells = (np.arange(N)[:, None] * K + np.arange(K + 1)) % n
    shape = (N, K + 1, K + 1)
    rows = np.broadcast_to(cells[:, :, None], shape).ravel()
    cols = np.broadcast_to(cells[:, None, :], shape).ravel()

    def assemble(block):
        vals = np.broadcast_to(block, shape).ravel()
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    D, DD = assemble(d_loc), assemble(dd_loc)
    Dt = D.T.tocsr()
    E, F = (None, None) if periodic else (assemble(d_loc @ i_loc), assemble(dd_loc @ i_loc))
    md = np.bincount(cells.ravel(), weights=np.tile(delta * w, N), minlength=n)
    if neumann:
        cancel = np.ones(n)
        cancel[[0, -1]] = 0.0
        C, T = sp.diags(cancel), sp.diags(2.0 - cancel)
        D, Dt, DD, E, F, md = C @ D, C @ Dt, T @ DD, C @ E, T @ F, (2.0 - cancel) * md
    minv = sp.diags(1.0 / md)
    ops = {"D": D, "Dt": Dt, "DD": DD, "Z": DD - Dt @ (minv @ D)}
    if E is not None:
        ops.update(E=E, F=F, G=F - Dt @ (minv @ E))
    return {name: A.toarray() for name, A in ops.items()}


def dense_kkt_projection(problem, grid: Grid2D, ops_x: OperatorSet1D,
                         ops_y: OperatorSet1D, lam: float = 0.5):
    """Dense reference for wellprep.optimization_projection.

    Builds the Kronecker constraint matrices, picks an independent row subset
    by pivoted QR of the full constraint, and solves the Gram system on it
    densely: O(n^3) time and O(n^2) memory in the node count n. The report's
    rank_deficiency is the QR rank count.
    """
    st0 = exact_state(problem, grid)
    se = SourceEval(problem, grid)
    sp = se.sp_static

    nx, ny = grid.shape
    n = nx * ny
    Dx = ops_x.D.toarray()
    Dy = ops_y.D.toarray()
    Ix = ops_x.I.toarray()
    Iy = ops_y.I.toarray()
    # constraint rows: (Dx (x) Dy)[(1 (x) Iy) u + (Ix (x) 1) v] = (Dx Ix (x) Dy Iy) sp
    Au = np.kron(Dx, Dy @ Iy)
    Av = np.kron(Dx @ Ix, Dy)
    b = (Dx @ Ix @ sp @ (Dy @ Iy).T).ravel()

    winv_u = 1.0 / np.outer(ops_x.mass_diag, ops_y.mass_diag).ravel()
    q0 = np.concatenate([st0.u.values.ravel(), st0.v.values.ravel()])
    r = b - Au @ q0[:n] - Av @ q0[n:]

    G = (Au * winv_u) @ Au.T + (Av * winv_u) @ Av.T
    Afull = np.hstack([Au, Av])
    _, R, piv = scipy.linalg.qr(Afull.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(Afull.shape) * np.finfo(float).eps))
    keep = piv[:rank]
    mu = np.zeros(Afull.shape[0])
    mu[keep] = scipy.linalg.solve(G[np.ix_(keep, keep)], r[keep], assume_a="sym")

    u = (q0[:n] + winv_u * (Au.T @ mu)).reshape(nx, ny)
    v = (q0[n:] + winv_u * (Av.T @ mu)).reshape(nx, ny)
    state = State(grid, np.stack((u, v, np.zeros(grid.shape))))
    state.q[2] = _pressure_from_sources(problem, grid, ops_x, ops_y, se, state, lam)
    report = _report("optimize", se, ops_x, ops_y, state, st0, lam,
                     rank_deficiency=Afull.shape[0] - rank)
    return state, report


def reference_residual(state: State, sources: SourceArrays, ops_x: OperatorSet1D,
                       ops_y: OperatorSet1D, cfg) -> tuple:
    """The spatial residual written term by term: the global-flux variables
    U, V, Ku, Kv, Kp by prefix integration, then the Galerkin part and the
    SU or OSS space part as separate Kronecker products. Reference for the
    banded term table of gfsem.schemes."""
    u, v, p = state.arrays()
    ah, M = cfg.ah, (ops_x.M, ops_y.M)
    su = cfg.stabilization == "su"
    Lx, Ly = (ops_x.DD, ops_y.DD) if su else (ops_x.Z, ops_y.Z)
    if cfg.formulation == "gf":
        ix, iy = ops_x.I, ops_y.I
        gp = iy.apply_y(u) + ix.apply_x(v) - ix.apply_x(iy.apply_y(sources.sp))
        pa, pb = p - ix.apply_x(sources.su), p - iy.apply_y(sources.sv)
        ru = apply_xy(ops_x.D, M[1], pa) + ah * apply_xy(Lx, ops_y.D, gp)
        rv = apply_xy(M[0], ops_y.D, pb) + ah * apply_xy(ops_x.D, Ly, gp)
        rp = (apply_xy(ops_x.D, ops_y.D, gp)
              + ah * (apply_xy(Lx, M[1], pa) + apply_xy(M[0], Ly, pb)))
        return ru, rv, rp
    mm = lambda q: apply_xy(M[0], M[1], q)
    ru = apply_xy(ops_x.D, M[1], p) - mm(sources.su)
    rv = apply_xy(M[0], ops_y.D, p) - mm(sources.sv)
    rp = apply_xy(ops_x.D, M[1], u) + apply_xy(M[0], ops_y.D, v) - mm(sources.sp)
    if su:
        ru = ru + ah * (apply_xy(ops_x.DD, M[1], u) + apply_xy(ops_x.Dt, ops_y.D, v)
                        - apply_xy(ops_x.Dt, M[1], sources.sp))
        rv = rv + ah * (apply_xy(ops_x.D, ops_y.Dt, u) + apply_xy(M[0], ops_y.DD, v)
                        - apply_xy(M[0], ops_y.Dt, sources.sp))
        rp = rp + ah * (apply_xy(ops_x.DD, M[1], p) - apply_xy(ops_x.Dt, M[1], sources.su)
                        + apply_xy(M[0], ops_y.DD, p) - apply_xy(M[0], ops_y.Dt, sources.sv))
    else:
        ru = ru + ah * apply_xy(ops_x.Z, M[1], u)
        rv = rv + ah * apply_xy(M[0], ops_y.Z, v)
        rp = rp + ah * (apply_xy(ops_x.Z, M[1], p) + apply_xy(M[0], ops_y.Z, p))
    return ru, rv, rp


def smooth_random(grid: Grid2D, rng, terms: int = 3) -> np.ndarray:
    X, Y = grid.meshgrid()
    out = np.zeros(grid.shape)
    for _ in range(terms):
        a, b = rng.uniform(0.5, 3.0, 2)
        c, d = rng.uniform(-1.0, 1.0, 2)
        out += c * np.sin(a * np.pi * X + d) * np.cos(b * np.pi * Y - d)
    return out


def smooth_profile(coords: np.ndarray, rng) -> np.ndarray:
    a = rng.uniform(0.5, 2.5)
    c1, c2, c3 = rng.uniform(-1.0, 1.0, 3)
    return c1 * np.sin(a * np.pi * coords) + c2 * coords + c3


def prefix_invert(ops: OperatorSet1D, target: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Solve (prefix I along axis 0) s = target for s, given s on the first node.

    target must vanish on the starting line; per cell the LobattoIIIA block
    rows 1..K are inverted with the interface value carried over.
    """
    K, N = ops.K, ops.N
    iloc = ops.i_loc
    body = np.linalg.inv(iloc[1:, 1:])
    s = np.zeros_like(target)
    s[0] = first
    for i in range(N):
        sl = slice(i * K, (i + 1) * K + 1)
        t_loc = target[sl] - target[i * K]
        s[i * K + 1:(i + 1) * K + 1] = body @ (t_loc[1:] - np.outer(iloc[1:, 0], s[i * K]))
    return s


def random_kernel_data(grid: Grid2D, ox: OperatorSet1D, oy: OperatorSet1D,
                       rng) -> tuple[State, SourceArrays]:
    """State and source arrays exactly in the discrete global-flux kernel.

    Construction mirrors the discrete steady-state characterization: the
    velocities are marched from random boundary traces with slopes whose sum
    matches S_p nodally, the pressure is a random y-profile plus the
    x-integral of a random S_u, and S_v is recovered by inverting the
    y-prefix so that p minus its y-integral is a pure function of x.
    """
    a = smooth_random(grid, rng)
    sp = smooth_random(grid, rng)
    slope_u, slope_v = a, sp - a
    u = smooth_profile(grid.yline, rng)[None, :] + ox.I.apply_x(slope_u)
    v = smooth_profile(grid.xline, rng)[:, None] + oy.I.apply_y(slope_v)

    su = smooth_random(grid, rng)
    p = smooth_profile(grid.yline, rng)[None, :] + ox.I.apply_x(su)
    target = p - p[:, 0:1]
    sv = prefix_invert(oy, target.T, smooth_profile(grid.xline, rng)).T

    state = State(grid, np.stack((u, v, p)))
    return state, SourceArrays(su=su, sv=sv, sp=sp)


def residual_max(triple, interior=True) -> float:
    vals = []
    for r in triple:
        vals.append(np.abs(r[1:-1, 1:-1] if interior else r).max())
    return max(vals)


def ode_step(F, q0, t: float, dt: float, cfg: DeCConfig) -> np.ndarray:
    """One DeC step of q' + F(q, t) = 0 for a plain ODE, through the solver's
    own sweeps."""
    q0 = np.asarray(q0, dtype=float)
    flat = q0.reshape(1, -1)

    def residual(q, s, out):
        out[...] = np.asarray(F(q.reshape(q0.shape), s), dtype=float).reshape(1, -1)

    sub_t = [t + b * dt for b in cfg.beta]
    q = dec_sweeps(residual, DeCWorkspace(flat.shape, cfg.M), flat, sub_t, cfg, dt)
    return q.reshape(q0.shape)


def zero_state(grid: Grid2D) -> State:
    return State(grid, np.zeros((3, *grid.shape)))


def l2_error(q: Field, exact, weights: np.ndarray, t: float = 0.0) -> float:
    X, Y = q.grid.meshgrid()
    return l2_norm(q.values - exact(X, Y, t), weights)


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, rows


def tracer_layers() -> list[tuple[str, str]]:
    """(module, attribute) of every layer gfbench/tracer.py wraps, read from
    the file without importing the benchmark as a package."""
    spec = importlib.util.spec_from_file_location(
        "gfbench_tracer", os.path.join(ROOT, "gfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.LAYERS]
