"""Spatial residual operators: central Galerkin in standard and global-flux
quadrature form, plus the SU and OSS stabilizations for both.

All functions return weak-form residual triples (ru, rv, rp) as plain arrays
in grid layout; the time loop divides by the diagonal tensor mass matrix.
SU carries a time part that multiplies sub-step increments and is exposed
separately so the corrector can insert (q^m - q^0) for the time derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import OperatorSet1D
from .gf import GFVars, SourceArrays, compute_gf_vars
from .grid import State, apply_xy

Triple = tuple[np.ndarray, np.ndarray, np.ndarray]

FORMULATIONS = ("standard", "gf")
STABILIZATIONS = ("su", "oss")


def default_alpha(stabilization: str, K: int) -> float:
    """Stabilization coefficients used throughout the experiments."""
    if stabilization == "su":
        return 0.05 if K <= 5 else 0.02
    return 0.01 if K <= 2 else 0.04


@dataclass(frozen=True)
class SchemeConfig:
    formulation: str          # 'standard' | 'gf'
    stabilization: str        # 'su' | 'oss'
    alpha: float
    h: float                  # min(dx, dy)

    def __post_init__(self):
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.stabilization not in STABILIZATIONS:
            raise ValueError(f"unknown stabilization {self.stabilization!r}")
        if self.alpha < 0:
            raise ValueError("stabilization coefficient must be >= 0")

    @property
    def ah(self) -> float:
        return self.alpha * self.h


def galerkin_standard(state: State, sources: SourceArrays,
                      ops_x: OperatorSet1D, ops_y: OperatorSet1D) -> Triple:
    u, v, p = state.arrays()
    mxmy = lambda q: apply_xy(ops_x.M, ops_y.M, q)
    ru = apply_xy(ops_x.D, ops_y.M, p) - mxmy(sources.su)
    rv = apply_xy(ops_x.M, ops_y.D, p) - mxmy(sources.sv)
    rp = apply_xy(ops_x.D, ops_y.M, u) + apply_xy(ops_x.M, ops_y.D, v) - mxmy(sources.sp)
    return ru, rv, rp


def galerkin_gf(state: State, sources: SourceArrays,
                ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                gf: GFVars | None = None) -> Triple:
    if gf is None:
        gf = compute_gf_vars(state, sources, ops_x, ops_y)
    p = state.p.values
    ru = apply_xy(ops_x.D, ops_y.M, p - gf.Ku)
    rv = apply_xy(ops_x.M, ops_y.D, p - gf.Kv)
    rp = apply_xy(ops_x.D, ops_y.D, gf.gp)
    return ru, rv, rp


def stab_su_space(state: State, sources: SourceArrays,
                  ops_x: OperatorSet1D, ops_y: OperatorSet1D, cfg: SchemeConfig,
                  gf: GFVars | None = None) -> Triple:
    ah = cfg.ah
    if cfg.formulation == "gf":
        return _stab_gf(state, sources, ops_x, ops_y, ah, gf, ops_x.DD, ops_y.DD)
    u, v, p = state.arrays()
    ru = ah * (apply_xy(ops_x.DD, ops_y.M, u) + apply_xy(ops_x.Dt, ops_y.D, v)
               - apply_xy(ops_x.Dt, ops_y.M, sources.sp))
    rv = ah * (apply_xy(ops_x.D, ops_y.Dt, u) + apply_xy(ops_x.M, ops_y.DD, v)
               - apply_xy(ops_x.M, ops_y.Dt, sources.sp))
    rp = ah * (apply_xy(ops_x.DD, ops_y.M, p) - apply_xy(ops_x.Dt, ops_y.M, sources.su)
               + apply_xy(ops_x.M, ops_y.DD, p) - apply_xy(ops_x.M, ops_y.Dt, sources.sv))
    return ru, rv, rp


def stab_su_time(du: np.ndarray, dv: np.ndarray, dp: np.ndarray,
                 ops_x: OperatorSet1D, ops_y: OperatorSet1D, cfg: SchemeConfig) -> Triple:
    """SU terms multiplying the time increment; identical in both formulations."""
    ah = cfg.ah
    ru = ah * apply_xy(ops_x.Dt, ops_y.M, dp)
    rv = ah * apply_xy(ops_x.M, ops_y.Dt, dp)
    rp = ah * (apply_xy(ops_x.Dt, ops_y.M, du) + apply_xy(ops_x.M, ops_y.Dt, dv))
    return ru, rv, rp


def stab_oss(state: State, sources: SourceArrays,
             ops_x: OperatorSet1D, ops_y: OperatorSet1D, cfg: SchemeConfig,
             gf: GFVars | None = None) -> Triple:
    ah = cfg.ah
    if cfg.formulation == "gf":
        return _stab_gf(state, sources, ops_x, ops_y, ah, gf, ops_x.Z, ops_y.Z)
    u, v, p = state.arrays()
    ru = ah * apply_xy(ops_x.Z, ops_y.M, u)
    rv = ah * apply_xy(ops_x.M, ops_y.Z, v)
    rp = ah * (apply_xy(ops_x.Z, ops_y.M, p) + apply_xy(ops_x.M, ops_y.Z, p))
    return ru, rv, rp


def _stab_gf(state: State, sources: SourceArrays,
             ops_x: OperatorSet1D, ops_y: OperatorSet1D, ah: float,
             gf: GFVars | None, Lx, Ly) -> Triple:
    """GF space stabilization with second-derivative operators Lx, Ly:
    DD for SU, Z for OSS."""
    if gf is None:
        gf = compute_gf_vars(state, sources, ops_x, ops_y)
    p, gp = state.p.values, gf.gp
    ru = ah * apply_xy(Lx, ops_y.D, gp)
    rv = ah * apply_xy(ops_x.D, Ly, gp)
    rp = ah * (apply_xy(Lx, ops_y.M, p - gf.Ku) + apply_xy(ops_x.M, Ly, p - gf.Kv))
    return ru, rv, rp


def spatial_residual(state: State, sources: SourceArrays,
                     ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                     cfg: SchemeConfig) -> Triple:
    """Galerkin plus stabilization space part, sharing one GF evaluation."""
    if cfg.formulation == "gf":
        gf = compute_gf_vars(state, sources, ops_x, ops_y)
        ru, rv, rp = galerkin_gf(state, sources, ops_x, ops_y, gf=gf)
    else:
        gf = None
        ru, rv, rp = galerkin_standard(state, sources, ops_x, ops_y)
    if cfg.stabilization == "su":
        su, sv_, sp_ = stab_su_space(state, sources, ops_x, ops_y, cfg, gf=gf)
    else:
        su, sv_, sp_ = stab_oss(state, sources, ops_x, ops_y, cfg, gf=gf)
    return ru + su, rv + sv_, rp + sp_


def boundary_values(grid, exact, t: float) -> Triple:
    """Exact (u, v, p) on the boundary ring at time t, evaluated on the four
    boundary lines only: x = x0, x = xe (all y), then y = y0, y = ye (all x)."""
    x, y = grid.xline, grid.yline
    X = np.concatenate([np.full(y.size, x[0]), np.full(y.size, x[-1]), x, x])
    Y = np.concatenate([y, y, np.full(x.size, y[0]), np.full(x.size, y[-1])])
    return tuple(np.broadcast_to(np.asarray(q, dtype=float), X.shape)
                 for q in exact(X, Y, t))


def pin_dirichlet(state: State, exact, t: float, ring: Triple | None = None) -> None:
    """Overwrite boundary nodes with the exact solution at time t, in place.

    `ring` is boundary_values(state.grid, exact, t) when already evaluated.
    """
    if ring is None:
        ring = boundary_values(state.grid, exact, t)
    nx, ny = state.grid.shape
    for q, qe in zip(state.arrays(), ring):
        q[0, :] = qe[:ny]
        q[-1, :] = qe[ny:2 * ny]
        q[:, 0] = qe[2 * ny:2 * ny + nx]
        q[:, -1] = qe[2 * ny + nx:]


def cell_derivative_fields(state: State, ops_x: OperatorSet1D, ops_y: OperatorSet1D):
    """Element-wise nodal derivatives (du/dx, dv/dy, dp/dx, dp/dy).

    Returned as (Nx*Ny, K+1, K+1) stacks: interface nodes carry one value per
    adjacent element, which is what element-wise quadrature wants.
    """
    K = ops_x.K
    dmx = ops_x.d_loc / (ops_x.delta * ops_x.rule.weights)[:, None]  # = diff matrix / dx
    dmy = ops_y.d_loc / (ops_y.delta * ops_y.rule.weights)[:, None]
    out = []
    for q, op in ((state.u.values, "x"), (state.v.values, "y"),
                  (state.p.values, "x"), (state.p.values, "y")):
        segs = _cells(q, ops_x.N, ops_y.N, K)
        if op == "x":
            out.append(np.einsum("pq,cqt->cpt", dmx, segs))
        else:
            out.append(np.einsum("tq,cpq->cpt", dmy, segs))
    return out


def _cells(values: np.ndarray, Nx: int, Ny: int, K: int) -> np.ndarray:
    # index modulo the line length so periodic lines wrap onto node 0
    ii = (np.arange(Nx)[:, None] * K + np.arange(K + 1)[None, :]) % values.shape[0]
    jj = (np.arange(Ny)[:, None] * K + np.arange(K + 1)[None, :]) % values.shape[1]
    segs = values[ii][:, :, jj]               # (Nx, K+1, Ny, K+1)
    return segs.transpose(0, 2, 1, 3).reshape(Nx * Ny, K + 1, K + 1)


def energy(state: State, ops_x: OperatorSet1D, ops_y: OperatorSet1D,
           cfg: SchemeConfig) -> float:
    """Quadratic energy diagnostic.

    For SU this is the streamline-upwind energy 1/2(||q||^2 + tau^2(||div v||^2
    + ||grad p||^2)) with tau = alpha*h; for OSS the plain 1/2||q||^2. All
    norms are element-wise Gauss-Lobatto quadratures.
    """
    wcell = np.outer(ops_x.delta * ops_x.rule.weights, ops_y.delta * ops_y.rule.weights)
    u, v, p = state.arrays()
    e = 0.0
    for q in (u, v, p):
        segs = _cells(q, ops_x.N, ops_y.N, ops_x.K)
        e += np.sum(wcell * segs * segs)
    if cfg.stabilization == "su":
        ux, vy, px, py = cell_derivative_fields(state, ops_x, ops_y)
        div = ux + vy
        tau2 = cfg.ah ** 2
        e += tau2 * np.sum(wcell * (div * div + px * px + py * py))
    return 0.5 * float(e)
