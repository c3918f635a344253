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
diagonal mass in a Stepper's tables, where each M factor is the identity. The SU
time part, on sub-step increments, is its own table so the corrector can insert
(q^m - q^0) for the time derivative. KronTerms applies a table by sum
factorization (Orszag 1980): an x-pass per group of terms sharing (input, Ax),
then one y-pass.
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
    operator times diag(weights[key][axis]), and diag(scale[axis]) times that if given.
    None for 'M' scaled by the inverse lumped mass: the identity, recognized by name,
    since the product (1/m) m is not exactly 1.0 on some nodes."""
    name, _, key = spec.partition("*")
    if spec == "M" and scale is not None and np.array_equal(scale[axis], 1 / ops.mass_diag):
        return None
    A = getattr(ops, name)._csr
    A = A @ CSR.diag(weights[key][axis]) if key else A
    return A if scale is None else CSR.diag(scale[axis]) @ A


def _assemble(triplets, shape):
    """Canonical CSR matrix summing a list of (rows, cols, values) COO triplets."""
    return CSR.from_coo(*(np.concatenate(x) for x in zip(*triplets)), shape)


def _per_input(parts, n_rows: int, nx: int) -> tuple:
    """(s, CSR) pairs summing the (input, rows, cols, values) triplets of `parts`:
    s = None for the state, one matrix over its three stacked fields with columns
    (input, x-row), and s = 3-5 for each source."""
    by: dict = {}
    for s, r, c, v in parts:
        by.setdefault(None if s < 3 else s, []).append((r, c + (nx * s if s < 3 else 0), v))
    return tuple((s, _assemble(t, (n_rows, 3 * nx if s is None else nx))) for s, t in by.items())


class KronTerms:
    """A sum of Kronecker terms out[o] += c (Ax (x) Ay) x[s] on (nx, ny) fields.

    Inputs 0-2 are the state q = (u, v, p), passed stacked as one
    (3, nx, ny) array; inputs 3-5 are sources, passed as separate fields.
    A factor is an OperatorSet1D field name, or 'name*key' for that operator
    times diag(weights[key][0]) in x, diag(weights[key][1]) in y; `scale` = (sx, sy)
    left-multiplies each x-factor by diag(sx), each y-factor by diag(sy), which
    makes 'M' the identity when (sx, sy) is the inverse lumped mass.

    Terms apply by sum factorization, one direction at a time. Each term with
    a y-factor belongs to the group of its (input, Ax), and a term whose
    y-factor is the identity joins the group that makes its x-pass: route
    "xy". The groups' x-factors make one CSR matrix per input (the state's
    spans its three fields), rows (x-row, group); a group whose Ax is the
    identity comes last, and its x-pass is its input, transposed. One block CSR
    matrix applies the y-factors to the transposed group intermediates and sums
    them by output. The other terms, route "x", sum into one CSR matrix per
    input, rows (output, x-row), applied straight into `out`. Tiles of x-rows,
    sized so those blocks fit _TILE_BYTES, cost one kernel call per grouped
    input on a row range, one transpose copy per block and one call for the
    y-factors, which act within an x-row: no entry depends on the tile height.
    """

    def __init__(self, terms, ops_x: OperatorSet1D, ops_y: OperatorSet1D, weights=None,
                 scale=None):
        n_out, nx, ny = 3, ops_x.n_nodes, ops_y.n_nodes
        cx = {n: _factor(ops_x, n, weights, 0, scale) for n in dict.fromkeys(t[2] for t in terms)}
        cy = {n: _factor(ops_y, n, weights, 1, scale) for n in dict.fromkeys(t[3] for t in terms)}
        # the (input, Ax) of the terms with a y-factor, in term order, identity Ax last
        groups = sorted(dict.fromkeys(t[1:3] for t in terms if cy[t[3]] is not None),
                        key=lambda g: cx[g[1]] is None)
        self.routes = tuple("xy" if t[1:3] in groups else "x" for t in terms)
        route = lambda r: [t for t, k in zip(terms, self.routes) if k == r]
        self.inputs = tuple(dict.fromkeys(t[1] for t in terms))  # in term order
        G, B = sum(cx[a] is not None for _, a in groups), len(groups)
        self.transposed = tuple(s for s, _ in groups[G:])
        cx = {n: A or CSR.diag(np.ones(nx)) for n, A in cx.items()}
        cy = {n: A or CSR.diag(np.ones(ny)) for n, A in cy.items()}
        self.direct = _per_input([(s, o * nx + cx[ax].row, cx[ax].col, c * cx[ax].data)
                                  for o, s, ax, _, c in route("x")], n_out * nx, nx)
        grouped = route("xy")
        outs = [t[0] for t in grouped]
        lo = min(outs, default=0)  # the y-pass writes outputs lo..hi-1
        hi = max(outs, default=-1) + 1
        # COO triplets; x-factor rows in (x-row, group) order, so that a tile
        # is one contiguous row range of each input's matrix. The terms of a
        # group sum their scaled y-factors in its block of the y-pass.
        self.X = _per_input([(s, cx[a].row * G + g, cx[a].col, cx[a].data)
                             for g, (s, a) in enumerate(groups[:G])], nx * G, nx)
        self.Y = _assemble([((o - lo) * ny + cy[ay].row, groups.index((s, ax)) * ny + cy[ay].col,
                             c * cy[ay].data) for o, s, ax, ay, c in grouped],
                           ((hi - lo) * ny, B * ny)) if B else None
        h = -(-nx // min(nx, max(1, -(-8 * B * nx * ny // _TILE_BYTES))))  # ceil divisions
        self.tiles = [(i, min(i + h, nx)) for i in range(0, nx, h)] if B else []
        self.shape, self.G, self.B, self.rows = (n_out, nx, ny), G, B, slice(lo, hi)
        self.zeroed = [o for o in range(n_out) if not lo <= o < hi]  # outputs of the x-pass alone
        self.work = np.empty((G + B + hi - lo) * ny * h if B else 0)  # w, r and wt of a tile

    def apply(self, q, sources=(), out=None) -> np.ndarray:
        """The terms on the stacked state q and on `sources`, the fields of
        inputs 3-5, written to `out`, a new array if not given, and returned.
        Sources that no term reads may be None or left out."""
        (n_out, nx, ny), G, B, Y, rows = self.shape, self.G, self.B, self.Y, self.rows
        m = rows.stop - rows.start  # outputs of the y-pass
        q = np.ascontiguousarray(q, dtype=float)
        fields = {s: np.ascontiguousarray(sources[s - 3], dtype=float) for s in self.inputs if s > 2}
        if q.shape != self.shape or any(f.size != nx * ny for f in fields.values()):
            raise ValueError(f"input fields must have {nx} x {ny} nodes")
        if out is None:
            out = np.empty(self.shape)
        elif not (isinstance(out, np.ndarray) and out.shape == self.shape and out.dtype == float
                  and out.flags.c_contiguous):  # the kernel writes through its buffer
            raise ValueError(f"out must be a C-contiguous float64 array of shape {self.shape}")
        planes = [q[s] if s < 3 else fields[s].reshape(nx, ny) for s in self.transposed]
        fields[None] = q
        for i0, i1 in self.tiles:
            h = i1 - i0
            n, k = G * h * ny, m * ny * h
            self.work[:n + k].fill(0.0)  # the accumulators w and r
            w, r, wt = self.work[:n], self.work[n:n + k], self.work[n + k:n + k + B * ny * h]
            for s, X in self.X:
                csr_matvecs(G * h, X.shape[1], ny, X.indptr[G * i0:G * i1 + 1], X.indices,
                            X.data, fields[s], w)
            blocks = wt.reshape(B, ny, h)
            if G:
                blocks[:G] = w.reshape(h, G, ny).transpose(1, 2, 0)
            for b, f in enumerate(planes, G):
                blocks[b] = f[i0:i1].T
            csr_matvecs(m * ny, B * ny, h, Y.indptr, Y.indices, Y.data, wt, r)
            out[rows, i0:i1, :] = r.reshape(-1, ny, h).transpose(0, 2, 1)  # in grid layout
        for o in self.zeroed:
            out[o].fill(0.0)
        for s, A in self.direct:
            csr_matvecs(n_out * nx, A.shape[1], ny, A.indptr, A.indices, A.data, fields[s], out)
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


def dirichlet_ring(grid) -> Triple:
    """The boundary ring of a stacked (3, nx, ny) state: its flat indices,
    field by field, and the x and y coordinates of its 2nx + 2ny - 4 nodes,
    in row-major order, each corner once."""
    on = np.ones(grid.shape, bool)
    on[1:-1, 1:-1] = False
    i, j = np.nonzero(on)
    return np.flatnonzero(np.broadcast_to(on, (3, *on.shape))), grid.xline[i], grid.yline[j]


def pin_dirichlet(q: np.ndarray, ring: np.ndarray, values: np.ndarray) -> None:
    """Overwrite the boundary ring of the contiguous stacked state q in place:
    `values`, the exact (u, v, p) on the ring concatenated, go to the flat
    indices `ring` of dirichlet_ring."""
    q.reshape(-1)[ring] = values


def energy(state: State, ops_x: OperatorSet1D, ops_y: OperatorSet1D,
           cfg: SchemeConfig) -> float:
    """Quadratic energy diagnostic: for SU the streamline-upwind energy
    1/2(||q||^2 + tau^2(||div v||^2 + ||grad p||^2)), tau = alpha*h; for OSS
    1/2||q||^2. Each norm is the element-wise Gauss-Lobatto quadrature, as a
    quadratic form of the assembled operators: ||du/dx||^2 = u.(DDx My)u, and
    ||div v||^2 has the cross term 2 sum (Dx u)(Dy v), as D = (phi_p, phi_q')
    carries its weights. The operator sets are those make_grid returns; on a
    Neumann closure D and DD have other boundary rows."""
    q, mx, my = state.q, ops_x.mass_diag[:, None], ops_y.mass_diag
    e = np.vdot(q, q * (mx * my))
    if cfg.stabilization == "su":
        u, v, p = q
        ddx, ddy = ops_x.DD.apply_x, ops_y.DD.apply_y
        grad = (np.vdot(my * u, ddx(u)) + np.vdot(my * p, ddx(p))
                + np.vdot(mx * v, ddy(v)) + np.vdot(mx * p, ddy(p)))
        cross = np.vdot(ops_x.D.apply_x(u), ops_y.D.apply_y(v))
        e += cfg.ah ** 2 * (grad + 2.0 * cross)
    return 0.5 * float(e)
