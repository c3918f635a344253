"""Shared test utilities: dense Kronecker oracles, the dense 1D operator
assembly, the dense KKT projection, the residual by prefix integration,
random kernel states, and interpolant evaluation for quadrature
cross-checks."""

import numpy as np
import scipy.linalg

from gfsem.basis import (OperatorSet1D, diff_matrix, gauss_lobatto_rule, lagrange_deriv,
                         lagrange_eval)
from gfsem.gf import SourceArrays
from gfsem.grid import Field, Grid2D, State, apply_xy
from gfsem.problems import SourceEval, exact_state
from gfsem.wellprep import _pressure_from_sources, _report


def kron_apply(ax: np.ndarray, ay: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense (ax (x) ay) vec(q) reference, reshaped back to grid layout."""
    n = values.shape
    return (np.kron(ax, ay) @ values.ravel()).reshape(ax.shape[0], ay.shape[0])


def dense_operator_family(K: int, N: int, delta: float, periodic: bool = False,
                          neumann: bool = False) -> dict:
    """Dense n x n reference for M, D, Dt, DD and Z: element blocks added
    through np.ix_, Z by a dense product, and the Neumann closure as row
    surgery on the dense arrays."""
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
    return {"M": np.diag(md), "D": D, "Dt": Dt, "DD": DD, "Z": Z}


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
    state = State(Field(grid, u), Field(grid, v), Field(grid, np.zeros(grid.shape)))
    state.p.values[:] = _pressure_from_sources(problem, grid, ops_x, ops_y, se, state, lam)
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

    state = State(Field(grid, u), Field(grid, v), Field(grid, p))
    return state, SourceArrays(su=su, sv=sv, sp=sp)


def eval_cell(field_vals: np.ndarray, ox: OperatorSet1D, oy: OperatorSet1D,
              cell: tuple[int, int], xs: np.ndarray, ys: np.ndarray,
              dx: int = 0, dy: int = 0) -> np.ndarray:
    """Evaluate the tensor interpolant (or a derivative) of one cell at the
    physical points xs (x) ys."""
    i, j = cell
    K = ox.K
    loc = field_vals[i * K:(i + 1) * K + 1, j * K:(j + 1) * K + 1]
    tx = (xs - ox.nodes[i * K]) / ox.delta
    ty = (ys - oy.nodes[j * K]) / oy.delta
    fx = lagrange_deriv if dx else lagrange_eval
    fy = lagrange_deriv if dy else lagrange_eval
    bx = np.array([fx(ox.rule, p, tx) for p in range(K + 1)]).T  # (npts, K+1)
    by = np.array([fy(oy.rule, q, ty) for q in range(K + 1)]).T
    vals = bx @ loc @ by.T
    if dx:
        vals /= ox.delta
    if dy:
        vals /= oy.delta
    return vals


def residual_max(triple, interior=True) -> float:
    vals = []
    for r in triple:
        vals.append(np.abs(r[1:-1, 1:-1] if interior else r).max())
    return max(vals)
