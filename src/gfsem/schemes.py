"""Spatial residual operators: central Galerkin in standard and global-flux
quadrature form, plus the SU and OSS stabilizations for both.

Every term is a Kronecker product (Ax (x) Ay) of assembled 1D operators on
one input. The GF variables only enter differentiated, through the banded
E = D I, F = DD I and G = Z I, so no prefix integral runs. With P = E (GF)
or M (standard), L = DD (SU) or Z (OSS), and Q = F, G (GF+SU, GF+OSS), Dt
(standard+SU) or absent (standard+OSS), the paper form is

    ru = (Dx My) p - (Px My) S_u + ah [(Lx Py) u + (Qx Dy) v - (Qx Py) S_p]
    rv = (Mx Dy) p - (Mx Py) S_v + ah [(Dx Qy) u + (Px Ly) v - (Px Qy) S_p]
    rp = (Dx Py) u + (Px Dy) v - (Px Py) S_p
         + ah [(Lx My) p - (Qx My) S_u + (Mx Ly) p - (Mx Qy) S_v]

A Stepper's residual is affine, R(q, t) = L q - b(t): S_u = c v - f u + tau_u
and S_v = -c u - f v + tau_v are linear in the state, and a coefficient of x
alone or of y alone folds into the factors, (Ax (x) Ay)(c v) =
(Ax diag c_x (x) Ay diag c_y) v, so its table reads (u, v, p, tau_u, tau_v, S_p).

Residuals are (3, nx, ny) arrays in grid layout, scaled by the inverse
diagonal mass in a Stepper's tables. The SU time part, on sub-step increments,
is its own table so the corrector can insert (q^m - q^0) for the time derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import CSR, OperatorSet1D, csr_matvecs
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


def _factor(ops: OperatorSet1D, spec: str, weights: dict, axis: int, scale=None):
    """The CSR matrix of a Kronecker factor, 'name' or 'name*key': that OperatorSet1D
    operator times diag(weights[key][axis]), and diag(scale[axis]) times that if given."""
    name, _, key = spec.partition("*")
    A = getattr(ops, name)._csr
    A = A @ CSR.diag(weights[key][axis]) if key else A
    return A if scale is None else CSR.diag(scale[axis]) @ A


def _assemble(triplets, shape):
    """Canonical CSR matrix summing a list of (rows, cols, values) COO triplets."""
    return CSR.from_coo(*(np.concatenate(x) for x in zip(*triplets)), shape)


def _merge_rows(parts, shape):
    """CSR matrix summing the column-shifted CSR matrices (A, shift) of
    `parts`; row i lists the entries of row i of each A in turn, which is
    the order the kernel sums them in."""
    rows = np.concatenate([A.row for A, _ in parts])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([A.indices + shift for A, shift in parts])[order]
    vals = np.concatenate([A.data for A, _ in parts])[order]
    indptr = np.cumsum(np.bincount(rows + 1, minlength=shape[0] + 1), dtype=np.int32)
    return CSR(indptr, cols.astype(np.int32), vals, shape)


def _group_by_output_and_y(terms, cx: dict, cy: dict, nx: int, ny: int) -> bool:
    """Whether KronTerms should group the terms by (output, Ay), each group
    summing the scaled x-factors of its terms, rather than by (input, Ax),
    each group summing the scaled y-factors: the cheaper of the two by the
    multiply-adds of both kernels plus three passes over each group's
    intermediate (zeroing and the transpose copy)."""
    by_y = dict.fromkeys((t[0], t[3]) for t in terms)
    by_x = dict.fromkeys((t[1], t[2]) for t in terms)
    cost_y = (sum(cx[t[2]].nnz for t in terms) * ny + sum(cy[n].nnz for _, n in by_y) * nx
              + 3 * len(by_y) * nx * ny)
    cost_x = (sum(cx[n].nnz for _, n in by_x) * ny + sum(cy[t[3]].nnz for t in terms) * nx
              + 3 * len(by_x) * nx * ny)
    return cost_y <= cost_x


class KronTerms:
    """A sum of Kronecker terms out[o] += c (Ax (x) Ay) x[s] on (nx, ny) fields.

    Inputs 0-2 are the state q = (u, v, p), passed stacked as one
    (3, nx, ny) array; inputs 3-5 are sources, passed as separate fields.
    A factor is an OperatorSet1D field name, or 'name*key' for that operator
    times diag(weights[key][0]) in x, diag(weights[key][1]) in y; `scale` = (sx, sy)
    left-multiplies each x-factor by diag(sx), each y-factor by diag(sy). The terms
    form groups that share (output, Ay) or (input, Ax), whichever grouping
    `_group_by_output_and_y` finds cheaper. The x-factors of all groups stack
    into one CSR matrix over the stacked state, whose rows list their entries
    input by input in term order, and one matrix per source; one block CSR
    matrix applies the y-factors and sums the groups of each output. Tiles of
    x-rows, sized so the group intermediate fits _TILE_BYTES, cost one scipy
    CSR kernel call for the state and one per source on a row range, one
    transpose copy and one call for the y-factors, which act within an
    x-row: no entry depends on the tile height.
    """

    def __init__(self, terms, ops_x: OperatorSet1D, ops_y: OperatorSet1D, weights=None,
                 scale=None):
        n_out, nx, ny = 3, ops_x.n_nodes, ops_y.n_nodes
        cx = {n: _factor(ops_x, n, weights, 0, scale) for n in dict.fromkeys(t[2] for t in terms)}
        cy = {n: _factor(ops_y, n, weights, 1, scale) for n in dict.fromkeys(t[3] for t in terms)}
        by_y = _group_by_output_and_y(terms, cx, cy, nx, ny)
        key = (lambda t: (t[0], t[3])) if by_y else (lambda t: (t[1], t[2]))
        groups = list(dict.fromkeys(map(key, terms)))
        G = len(groups)
        # COO triplets; x-factor rows in (x-row, group) order, so that a tile
        # is one contiguous row range of each input's matrix. The terms of a
        # group sum their scaled factors on one axis and share one on the other.
        xs: dict[int, list] = {}
        ys = []
        for t in terms:
            (o, s, ax, ay, c), g = t, groups.index(key(t))
            if by_y:
                xs.setdefault(s, []).append((cx[ax].row * G + g, cx[ax].col, c * cx[ax].data))
            else:
                ys.append((o * ny + cy[ay].row, g * ny + cy[ay].col, c * cy[ay].data))
        for g, (a, n) in enumerate(groups):
            if by_y:
                ys.append((a * ny + cy[n].row, g * ny + cy[n].col, cy[n].data))
            else:
                xs.setdefault(a, []).append((cx[n].row * G + g, cx[n].col, cx[n].data))
        self.inputs = tuple(xs)  # the inputs the terms read, in term order
        X = {s: _assemble(t, (nx * G, nx)) for s, t in xs.items()}
        self.Xq = _merge_rows([(X[s], s * nx) for s in self.inputs if s < 3]
                              or [(CSR.from_coo([], [], [], (nx * G, nx)), 0)], (nx * G, 3 * nx))
        self.Xs = tuple((s, A) for s, A in X.items() if s >= 3)
        self.Y = _assemble(ys, (n_out * ny, G * ny))
        h = -(-nx // min(nx, max(1, -(-8 * G * nx * ny // _TILE_BYTES))))  # ceil divisions
        self.tiles = [(i, min(i + h, nx)) for i in range(0, nx, h)]
        self.shape, self.G = (n_out, nx, ny), G
        self.work = np.empty((2 * G + n_out) * ny * h)  # w, r and wt of one tile

    def apply(self, q, sources=(), out=None) -> np.ndarray:
        """The terms on the stacked state q and on `sources`, the fields of
        inputs 3-5, written to `out`, a new array if not given, and returned.
        Sources that no term reads may be None or left out."""
        (n_out, nx, ny), G, Xq, Y = self.shape, self.G, self.Xq, self.Y
        q = np.ascontiguousarray(q, dtype=float)
        fits, fields = q.shape == self.shape, []
        for s, _ in self.Xs:
            f = np.ascontiguousarray(sources[s - 3], dtype=float).ravel()
            fits = fits and f.size == nx * ny
            fields.append(f)
        if not fits:
            raise ValueError(f"input fields must have {nx} x {ny} nodes")
        q = q.ravel()
        if out is None:
            out = np.empty(self.shape)
        for i0, i1 in self.tiles:
            h = i1 - i0
            n, k = G * h * ny, n_out * ny * h
            self.work[:n + k].fill(0.0)  # the accumulators w and r
            w, r, wt = self.work[:n], self.work[n:n + k], self.work[n + k:2 * n + k]
            csr_matvecs(G * h, 3 * nx, ny, Xq.indptr[G * i0:G * i1 + 1], Xq.indices, Xq.data,
                        q, w)
            for (_, X), f in zip(self.Xs, fields):
                csr_matvecs(G * h, nx, ny, X.indptr[G * i0:G * i1 + 1], X.indices, X.data, f, w)
            wt.reshape(G, ny, h)[...] = w.reshape(h, G, ny).transpose(1, 2, 0)
            csr_matvecs(n_out * ny, G * ny, h, Y.indptr, Y.indices, Y.data, wt, r)
            out[:, i0:i1, :] = r.reshape(n_out, ny, h).transpose(0, 2, 1)  # in grid layout
        return out


# (input, coefficient, sign): S_u = c v - f u + tau_u and S_v = -c u - f v + tau_v
_STATE_PARTS = {3: ((1, "c", 1.0), (0, "f", -1.0)), 4: ((0, "c", -1.0), (1, "f", -1.0))}


def _separable(name: str, sample, shape: tuple[int, int]) -> tuple:
    """(s, x, y) with sample = s * outer(x, y) on a grid of `shape`; x or y is
    None where the sample is constant along that direction."""
    a = np.broadcast_to(np.asarray(sample, dtype=float), shape)
    x = None if (a == a[:1]).all() else a[:, 0]
    y = None if (a == a[:, :1]).all() else a[0]
    if x is not None and y is not None:
        raise ValueError(f"the {name} coefficient varies along both x and y; only a constant "
                         "or a function of x alone or of y alone folds into the residual table")
    return (float(a[0, 0]), None, None) if x is None and y is None else (1.0, x, y)


class ResidualTable:
    """One scheme's residual as term tables, built once per Stepper: `state`
    and `time` on the SU increments (None for OSS). Without coefficients
    `state` is the paper form on (u, v, p, S_u, S_v, S_p); the `coriolis` and
    `friction` samples on the open grid fold into the factors of its terms
    on S_u and S_v, which then read tau_u and tau_v. Terms on the `absent`
    inputs, sources known to be zero, are dropped. `scale` scales both as in
    KronTerms: a Stepper's by the inverse lumped mass, to M^-1 R and M^-1 T."""

    def __init__(self, ops_x: OperatorSet1D, ops_y: OperatorSet1D, cfg: SchemeConfig,
                 parts=("galerkin", "stab"), coriolis=None, friction=None, absent=(), scale=None):
        coefs = {key: _separable(name, a, (ops_x.n_nodes, ops_y.n_nodes)) for key, name, a in
                 (("c", "coriolis", coriolis), ("f", "friction", friction)) if a is not None}
        terms = []
        for o, s, ax, ay, k in residual_terms(cfg, parts):
            for s_q, key, sign in _STATE_PARTS.get(s, ()):
                if key in coefs:
                    c0, x, y = coefs[key]
                    terms.append((o, s_q, ax if x is None else f"{ax}*{key}",
                                  ay if y is None else f"{ay}*{key}", sign * c0 * k))
            if s not in absent:
                terms.append((o, s, ax, ay, k))
        self.state = KronTerms(terms, ops_x, ops_y, {k: (x, y) for k, (_, x, y) in coefs.items()},
                               scale)
        self.time = (KronTerms(_su_time_terms(cfg.ah), ops_x, ops_y, scale=scale)
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
    to `out` when given. `table` is a prebuilt ResidualTable for cfg when the
    caller keeps one (a Stepper's yields M^-1 R), else the paper form is built.
    `sources` are the inputs of its terms: (S_u, S_v, S_p) for the paper form,
    (tau_u, tau_v, S_p) for a table with the Coriolis and friction folded in."""
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
