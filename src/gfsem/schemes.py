"""Spatial residual operators: central Galerkin in standard and global-flux
quadrature form, plus the SU and OSS stabilizations for both.

Every term is a Kronecker product (Ax (x) Ay) of assembled 1D operators on
one input. The GF variables only enter differentiated, through the banded
E = D I, F = DD I and G = Z I, so no prefix integral runs. With P = E (GF)
or M (standard), L = DD (SU) or Z (OSS), and Q = F, G (GF+SU, GF+OSS), Dt
(standard+SU) or absent (standard+OSS):

    ru = (Dx My) p - (Px My) S_u + ah [(Lx Py) u + (Qx Dy) v - (Qx Py) S_p]
    rv = (Mx Dy) p - (Mx Py) S_v + ah [(Dx Qy) u + (Px Ly) v - (Px Qy) S_p]
    rp = (Dx Py) u + (Px Dy) v - (Px Py) S_p
         + ah [(Lx My) p - (Qx My) S_u + (Mx Ly) p - (Mx Qy) S_v]

Residuals are (3, nx, ny) arrays in grid layout, divided by the diagonal
mass in the time loop. The SU time part, on sub-step increments, is its own
table so the corrector can insert (q^m - q^0) for the time derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from .basis import LineOperator, OperatorSet1D
from .gf import SourceArrays
from .grid import State

Triple = tuple[np.ndarray, np.ndarray, np.ndarray]

FORMULATIONS = ("standard", "gf")
STABILIZATIONS = ("su", "oss")

# Per-tile group intermediate of KronTerms.apply. With a 2 MB L2 per core,
# DeC steps at 80^2 K=2 and 40^2 K=4 ran ~10% faster than with 128 KB.
_TILE_BYTES = 512 * 1024


def default_alpha(stabilization: str, K: int) -> float:
    """Stabilization coefficients used throughout the experiments."""
    if stabilization == "su":
        return 0.05 if K <= 4 else 0.02
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


def residual_terms(cfg: SchemeConfig, parts=("galerkin", "stab")) -> list[tuple]:
    """The residual as (output, input, x-operator, y-operator, coefficient)
    terms; outputs index (ru, rv, rp), inputs (u, v, p, S_u, S_v, S_p) and
    operators are OperatorSet1D field names."""
    gf, su, ah = cfg.formulation == "gf", cfg.stabilization == "su", cfg.ah
    P, L = ("E" if gf else "M"), ("DD" if su else "Z")
    Q = ("F" if su else "G") if gf else ("Dt" if su else None)
    terms = []
    if "galerkin" in parts:
        terms += [(0, 2, "D", "M", 1.0), (0, 3, P, "M", -1.0),
                  (1, 2, "M", "D", 1.0), (1, 4, "M", P, -1.0),
                  (2, 0, "D", P, 1.0), (2, 1, P, "D", 1.0), (2, 5, P, P, -1.0)]
    if "stab" in parts:
        terms += [(0, 0, L, P, ah), (1, 1, P, L, ah), (2, 2, L, "M", ah), (2, 2, "M", L, ah)]
        if Q is not None:
            terms += [(0, 1, Q, "D", ah), (0, 5, Q, P, -ah), (1, 0, "D", Q, ah),
                      (1, 5, P, Q, -ah), (2, 3, Q, "M", -ah), (2, 4, "M", Q, -ah)]
    return terms


def _su_time_terms(ah: float) -> list[tuple]:
    """SU terms on the increments (du, dv, dp); the same in both formulations."""
    return [(0, 2, "Dt", "M", ah), (1, 2, "M", "Dt", ah),
            (2, 0, "Dt", "M", ah), (2, 1, "M", "Dt", ah)]


def _csr(ops: OperatorSet1D, name: str):
    return sp.diags(ops.mass_diag, format="csr") if name == "M" else getattr(ops, name)._csr


def _assemble(triplets, shape):
    """Canonical CSR matrix summing a list of (rows, cols, values) COO triplets."""
    rows, cols, vals = (np.concatenate(x) for x in zip(*triplets))
    return LineOperator(sp.coo_matrix((vals, (rows, cols)), shape=shape))._csr


def _merge_rows(parts, shape):
    """CSR matrix summing the column-shifted CSR matrices (A, shift) of
    `parts`; row i lists the entries of row i of each A in turn, which is
    the order the kernel sums them in."""
    n = shape[0]
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(A.indptr)) for A, _ in parts])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([A.indices + shift for A, shift in parts])[order]
    vals = np.concatenate([A.data for A, _ in parts])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


class KronTerms:
    """A sum of Kronecker terms out[o] += c (Ax (x) Ay) x[s] on (nx, ny) fields.

    Inputs 0-2 are the state q = (u, v, p), passed stacked as one
    (3, nx, ny) array; inputs 3-5 are the sources (S_u, S_v, S_p), passed
    as separate fields. Terms sharing (output, Ay) form a group. The scaled
    x-factors of all groups stack into one CSR matrix over the stacked
    state, whose rows list their entries input by input in term order, and
    one matrix per source; one block CSR matrix applies the y-factors and
    sums the groups of each output. Tiles of x-rows, sized so the group
    intermediate fits _TILE_BYTES, cost one scipy CSR kernel call for the
    state and one per source on a row range, one transpose copy and one
    call for the y-factors, which act within an x-row: no entry depends on
    the tile height.
    """

    def __init__(self, terms, ops_x: OperatorSet1D, ops_y: OperatorSet1D):
        n_out, nx, ny = 3, ops_x.n_nodes, ops_y.n_nodes
        groups = list(dict.fromkeys((o, ay) for o, _, _, ay, _ in terms))
        G = len(groups)
        # COO triplets; x-factor rows in (x-row, group) order, so that a tile
        # is one contiguous row range of each input's matrix
        cx = {n: _csr(ops_x, n).tocoo() for n in dict.fromkeys(t[2] for t in terms)}
        cy = {n: _csr(ops_y, n).tocoo() for n in dict.fromkeys(t[3] for t in terms)}
        xs: dict[int, list] = {}
        for o, s, ax, ay, c in terms:
            A = cx[ax]
            xs.setdefault(s, []).append((A.row * G + groups.index((o, ay)), A.col, c * A.data))
        ys = [(o * ny + cy[ay].row, g * ny + cy[ay].col, cy[ay].data)
              for g, (o, ay) in enumerate(groups)]
        self.inputs = tuple(xs)  # the inputs the terms read, in term order
        X = {s: _assemble(t, (nx * G, nx)) for s, t in xs.items()}
        self.Xq = _merge_rows([(X[s], s * nx) for s in self.inputs if s < 3]
                              or [(sp.csr_matrix((nx * G, nx)), 0)], (nx * G, 3 * nx))
        self.Xs = {s: A for s, A in X.items() if s >= 3}
        self.Y = _assemble(ys, (n_out * ny, G * ny))
        h = -(-nx // min(nx, max(1, -(-8 * G * nx * ny // _TILE_BYTES))))  # ceil divisions
        self.tiles = [(i, min(i + h, nx)) for i in range(0, nx, h)]
        self.shape, self.G = (n_out, nx, ny), G
        self.work = np.empty((2 * G + n_out) * ny * h)  # w, wt and r of one tile

    def apply(self, q, sources=(), out=None) -> np.ndarray:
        """The terms on the stacked state q and on `sources` = (S_u, S_v,
        S_p), written to `out`, a new array if not given, and returned.
        Sources that no term reads may be None or left out."""
        (n_out, nx, ny), G, Xq, Y = self.shape, self.G, self.Xq, self.Y
        q = np.ascontiguousarray(q, dtype=float)
        fields = {s: np.ascontiguousarray(sources[s - 3], dtype=float).ravel() for s in self.Xs}
        if q.shape != self.shape or any(f.size != nx * ny for f in fields.values()):
            raise ValueError(f"input fields must have {nx} x {ny} nodes")
        q = q.ravel()
        if out is None:
            out = np.empty(self.shape)
        for i0, i1 in self.tiles:
            h = i1 - i0
            n, k = G * h * ny, n_out * ny * h
            w, wt, r = self.work[:n], self.work[n:2 * n], self.work[2 * n:2 * n + k]
            w.fill(0.0)
            csr_matvecs(G * h, 3 * nx, ny, Xq.indptr[G * i0:G * i1 + 1], Xq.indices, Xq.data,
                        q, w)
            for s, X in self.Xs.items():
                csr_matvecs(G * h, nx, ny, X.indptr[G * i0:G * i1 + 1], X.indices, X.data,
                            fields[s], w)
            wt.reshape(G, ny, h)[...] = w.reshape(h, G, ny).transpose(1, 2, 0)
            r.fill(0.0)
            csr_matvecs(n_out * ny, G * ny, h, Y.indptr, Y.indices, Y.data, wt, r)
            out[:, i0:i1, :] = r.reshape(n_out, ny, h).transpose(0, 2, 1)  # in grid layout
        return out


class ResidualTable:
    """One scheme's residual as term tables, built once per Stepper: `state`
    on (u, v, p, S_u, S_v, S_p) and `time` on the SU increments (None for
    OSS). Terms on the `absent` inputs, sources known to be zero, are dropped."""

    def __init__(self, ops_x: OperatorSet1D, ops_y: OperatorSet1D, cfg: SchemeConfig,
                 parts=("galerkin", "stab"), absent=()):
        terms = [t for t in residual_terms(cfg, parts) if t[1] not in absent]
        self.state = KronTerms(terms, ops_x, ops_y)
        self.time = (KronTerms(_su_time_terms(cfg.ah), ops_x, ops_y)
                     if cfg.stabilization == "su" else None)
        if self.time is not None:  # never applied at once: share one scratch buffer
            self.state.work = self.time.work = max(self.state.work, self.time.work, key=len)


def _view(part: str, **fixed):
    """The residual function of one part ('galerkin' or 'stab') of the term
    table, with the given SchemeConfig fields fixed."""
    def view(state, sources, ops_x, ops_y, cfg=SchemeConfig("gf", "su", 0.0, 0.0)):
        table = ResidualTable(ops_x, ops_y, replace(cfg, **fixed), (part,))
        return table.state.apply(state.q, (sources.su, sources.sv, sources.sp))
    return view


galerkin_standard = _view("galerkin", formulation="standard")
galerkin_gf = _view("galerkin", formulation="gf")
stab_su_space = _view("stab", stabilization="su")
stab_oss = _view("stab", stabilization="oss")


def stab_su_time(du, dv, dp, ops_x, ops_y, cfg: SchemeConfig) -> np.ndarray:
    """SU terms multiplying the time increment; identical in both formulations."""
    return KronTerms(_su_time_terms(cfg.ah), ops_x, ops_y).apply(np.stack((du, dv, dp)))


def spatial_residual(state: State, sources: SourceArrays,
                     ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                     cfg: SchemeConfig, table: ResidualTable | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Galerkin plus stabilization space part, a (3, nx, ny) array written
    to `out` when given. `table` is the prebuilt ResidualTable(ops_x, ops_y,
    cfg) when the caller keeps one."""
    return (table or ResidualTable(ops_x, ops_y, cfg)).state.apply(
        state.q, (sources.su, sources.sv, sources.sp), out)


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
    dmx = ops_x.d_loc / (ops_x.delta * ops_x.rule.weights)[:, None]  # = diff matrix / dx
    dmy = ops_y.d_loc / (ops_y.delta * ops_y.rule.weights)[:, None]
    u, v, p = (_cells(q, ops_x.N, ops_y.N, ops_x.K) for q in state.arrays())
    return [np.einsum("pq,cqt->cpt", dmx, u), np.einsum("tq,cpq->cpt", dmy, v),
            np.einsum("pq,cqt->cpt", dmx, p), np.einsum("tq,cpq->cpt", dmy, p)]


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
    e = 0.0
    for q in state.q:
        segs = _cells(q, ops_x.N, ops_y.N, ops_x.K)
        e += np.sum(wcell * segs * segs)
    if cfg.stabilization == "su":
        ux, vy, px, py = cell_derivative_fields(state, ops_x, ops_y)
        e += cfg.ah ** 2 * np.sum(wcell * ((ux + vy) ** 2 + px * px + py * py))
    return 0.5 * float(e)
