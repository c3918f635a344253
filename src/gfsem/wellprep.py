"""Well-prepared discrete initial data.

Two projections of an exact steady state onto the discrete kernel of the
global-flux operators: a line-by-line march driven by the LobattoIIIA
integration tables, and an equality-constrained least-squares fit of the
velocities solved through its KKT system. The KKT Gram matrix is a two-term
Kronecker sum of 1D matrices, so it is solved exactly by fast
diagonalization (Lynch, Rice & Thomas 1964) on grid-shaped arrays, with its
kernel, known in closed form from the 1D kernels, left out. Both projections
rebuild the pressure from a corner-anchored blend of the two source-integral
paths, with the sources evaluated on the *discrete* velocities, which keeps
constant-coefficient problems in the kernel to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import OperatorSet1D
from .gf import gf_divergence
from .grid import Field, Grid2D, State, max_norm
from .problems import Problem, SourceEval, exact_state
from .schemes import SchemeConfig, default_alpha, spatial_residual


@dataclass
class ProjectionReport:
    method: str
    kernel_residual: float      # recomputed post hoc, interior max-norm
    deviation_l2: float         # distance from the nodal exact data
    lam: float
    rank_deficiency: int = 0


def _require_steady(problem: Problem) -> None:
    if not problem.steady or problem.exact is None:
        raise ValueError(
            f"projection needs a steady problem with an exact solution, got {problem.name!r}")


def _pressure_from_sources(problem: Problem, grid: Grid2D,
                           ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                           src_eval: SourceEval, state: State, lam: float) -> np.ndarray:
    """Corner-anchored lambda-blend of the two pressure integration paths.

    Source arrays are taken from the discrete velocities so that the result
    sits in the kernel of the velocity operators whenever the Coriolis
    coefficient is constant.
    """
    src = src_eval.arrays(state, 0.0)
    B = ops_x.I.apply_x(src.su)          # int_x0^x S_u(., y)
    A = ops_y.I.apply_y(src.sv)          # int_y0^y S_v(x, .)
    p00 = float(np.asarray(problem.exact(np.array(grid.box[0]),
                                         np.array(grid.box[2]), 0.0)[2]))
    return p00 + lam * (A[0:1, :] + B) + (1.0 - lam) * (B[:, 0:1] + A)


def line_by_line_projection(problem: Problem, grid: Grid2D,
                            ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                            lam: float = 0.5) -> tuple[State, ProjectionReport]:
    """March u along x and v along y from exact boundary traces.

    The march integrates the nodally sampled steady slopes -(dv_e/dy - S_p)
    and -(du_e/dx - S_p); since the sampled constraint holds exactly at the
    nodes, the resulting velocities satisfy the discrete divergence balance
    identically.
    """
    _require_steady(problem)
    if problem.du_dx is None or problem.dv_dy is None:
        raise ValueError(f"problem {problem.name!r} lacks analytic steady derivatives")
    st0 = exact_state(problem, grid)
    se = SourceEval(problem, grid)
    X, Y = grid.meshgrid()
    slope_u = -(problem.dv_dy(X, Y) - se.sp_static)
    slope_v = -(problem.du_dx(X, Y) - se.sp_static)

    u = st0.u.values[0:1, :] + ops_x.I.apply_x(slope_u)
    v = st0.v.values[:, 0:1] + ops_y.I.apply_y(slope_v)

    state = State(Field(grid, u), Field(grid, v), Field(grid, np.zeros(grid.shape)))
    state.p.values[:] = _pressure_from_sources(problem, grid, ops_x, ops_y, se, state, lam)
    report = _report("line_by_line", se, ops_x, ops_y, state, st0, lam)
    return state, report


def _left_kernel_split(d: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the complement of the left kernel of the square
    1D matrix d (d^T z = 0), and the kernel dimension, from an SVD."""
    lsv, s, _ = np.linalg.svd(d)
    dim = int(np.sum(s <= s[0] * d.shape[0] * np.finfo(float).eps))
    return lsv[:, :d.shape[0] - dim], dim


def _pencil_eigenbasis(a: np.ndarray, b: np.ndarray,
                       q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a x = lam b x restricted to range(q), b SPD there.

    Returns lam and the b-orthonormal eigenvectors lifted back by q, so that
    V^T a V = diag(lam) and V^T b V = I.
    """
    lam, x = scipy.linalg.eigh(q.T @ a @ q, q.T @ b @ q)
    return lam, q @ x


def optimization_projection(problem: Problem, grid: Grid2D,
                            ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                            lam: float = 0.5) -> tuple[State, ProjectionReport]:
    """Minimal mass-weighted correction of the interpolated velocities onto
    the discrete divergence constraint, then pressure rebuilt from sources.

    The constraint is Dx U Ey^T + Ex V Dy^T = Ex S_p Ey^T with E = D I per
    direction. With W the tensor mass weights, the correction is
    dU = (Dx^T mu Ey) / W, dV = (Ex^T mu Dy) / W, where mu solves the
    Gram system A1 mu B1 + A2 mu B2 = R, A1 = Dx Mx^-1 Dx^T,
    A2 = Ex Mx^-1 Ex^T, B1 = Ey My^-1 Ey^T, B2 = Dy My^-1 Dy^T, and R the
    constraint residual of the nodal data. A1 and A2 share the left kernel
    of Dx, B1 and B2 that of Dy; on the complements the pencils (A1, A2)
    and (B2, B1) diagonalize simultaneously, and the system is solved
    exactly as mu = Vx [(Vx^T R Vy) / (lam_i + sig_j)] Vy^T. Working memory
    is O(nx^2 + ny^2 + nx ny).
    """
    _require_steady(problem)
    st0 = exact_state(problem, grid)
    se = SourceEval(problem, grid)

    Dx, Dy = ops_x.D.toarray(), ops_y.D.toarray()
    Ex, Ey = ops_x.E.toarray(), ops_y.E.toarray()
    mx, my = ops_x.mass_diag, ops_y.mass_diag
    qx, kx = _left_kernel_split(Dx)
    qy, ky = _left_kernel_split(Dy)
    lam_x, vx = _pencil_eigenbasis((Dx / mx) @ Dx.T, (Ex / mx) @ Ex.T, qx)
    sig_y, vy = _pencil_eigenbasis((Dy / my) @ Dy.T, (Ey / my) @ Ey.T, qy)

    u0, v0 = st0.u.values, st0.v.values
    R = (Ex @ se.sp_static - Dx @ u0) @ Ey.T - Ex @ v0 @ Dy.T
    mu = vx @ ((vx.T @ R @ vy) / (lam_x[:, None] + sig_y[None, :])) @ vy.T
    w = np.outer(mx, my)
    u = u0 + (Dx.T @ mu @ Ey) / w
    v = v0 + (Ex.T @ mu @ Dy) / w

    nx, ny = grid.shape
    state = State(Field(grid, u), Field(grid, v), Field(grid, np.zeros(grid.shape)))
    state.p.values[:] = _pressure_from_sources(problem, grid, ops_x, ops_y, se, state, lam)
    report = _report("optimize", se, ops_x, ops_y, state, st0, lam,
                     rank_deficiency=nx * ky + ny * kx - kx * ky)
    return state, report


def _report(method: str, src_eval: SourceEval,
            ops_x: OperatorSet1D, ops_y: OperatorSet1D, state: State, st0: State,
            lam: float, rank_deficiency: int = 0) -> ProjectionReport:
    div = gf_divergence(state, src_eval.arrays(state, 0.0), ops_x, ops_y)
    kres = max_norm(div, interior_only=True)
    w = np.outer(ops_x.mass_diag, ops_y.mass_diag)
    dev = np.sqrt(sum(np.sum(w * (a - b) ** 2)
                      for a, b in zip(state.arrays(), st0.arrays())))
    return ProjectionReport(method=method, kernel_residual=float(kres),
                            deviation_l2=float(dev), lam=lam,
                            rank_deficiency=rank_deficiency)


def projection_residual(problem: Problem, grid: Grid2D,
                        ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                        state: State, stabilization: str = "su",
                        alpha: float | None = None) -> float:
    """Interior max-norm of the full GF spatial residual on a candidate state."""
    cfg = SchemeConfig("gf", stabilization,
                       default_alpha(stabilization, grid.K) if alpha is None else alpha,
                       grid.h)
    src = SourceEval(problem, grid).arrays(state, 0.0)
    ru, rv, rp = spatial_residual(state, src, ops_x, ops_y, cfg)
    return max(max_norm(r, interior_only=True) for r in (ru, rv, rp))
