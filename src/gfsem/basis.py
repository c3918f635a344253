"""One-dimensional Gauss-Lobatto bases and the per-direction operator matrices.

Everything lives on the reference element [0, 1]. A grid line with N cells of
width `delta` carries K*N+1 nodes (interface nodes shared between neighbouring
cells); all matrices are assembled from per-cell blocks on that line. Every
integral is evaluated with the Gauss-Lobatto collocation rule of the basis
itself, so the mass matrix is diagonal (and inexact); the prefix-integration
blocks are exact integrals of the cardinal polynomials.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

_KERNEL = "scipy.sparse._sparsetools"


def load_sparsetools(scipy_dir: str | None = None):
    """scipy's compiled sparse kernels from `scipy_dir`/sparse (by default the installed
    scipy's), without the package code of scipy or scipy.sparse; ImportError names the place."""
    if not scipy_dir and (spec := importlib.util.find_spec("scipy")) is None:
        raise ImportError(f"scipy, for {_KERNEL}, is not on sys.path {sys.path}")
    where = os.path.join(scipy_dir or spec.submodule_search_locations[0], "sparse")
    spec = importlib.machinery.PathFinder.find_spec(_KERNEL, [where])
    if spec is None:
        raise ImportError(f"scipy's compiled CSR kernel {_KERNEL} was not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if _KERNEL not in sys.modules:  # so that a later `import scipy.sparse` uses this very module
    sys.modules[_KERNEL] = load_sparsetools()
csr_matvecs = sys.modules[_KERNEL].csr_matvecs


class InvalidDegreeError(ValueError):
    pass


@dataclass(frozen=True)
class GaussLobattoRule:
    """Gauss-Lobatto nodes/weights of degree K on [0, 1].

    nodes[0] = 0, nodes[K] = 1, strictly increasing, symmetric about 1/2;
    weights positive and summing to 1; exact for polynomials of degree
    <= 2K-1.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_lobatto_rule(K: int) -> GaussLobattoRule:
    """Gauss-Lobatto rule of degree K (K+1 points) on [0, 1].

    Interior nodes are the roots of P_K', from numpy's Legendre companion
    matrix, polished by Newton steps to round-off on [-1, 1] before mapping.
    """
    if K < 1:
        raise InvalidDegreeError(f"polynomial degree must be >= 1, got {K}")
    P = np.polynomial.legendre.Legendre.basis(K)
    d1, d2 = P.deriv(1), P.deriv(2)
    x = np.sort(d1.roots().real)
    for _ in range(3):
        x = x - d1(x) / d2(x)
    x = np.concatenate(([-1.0], x, [1.0]))
    w = 2.0 / (K * (K + 1) * P(x) ** 2)
    # map [-1,1] -> [0,1]; symmetrize to kill the last rounding bit
    t = 0.5 * (x + 1.0)
    t = 0.5 * (t + (1.0 - t[::-1]))
    t[0], t[K] = 0.0, 1.0
    w = 0.5 * w
    w = 0.5 * (w + w[::-1])
    return GaussLobattoRule(degree=K, nodes=t, weights=w)


def lagrange_eval(rule: GaussLobattoRule, p: int, x) -> np.ndarray | float:
    """Value of the p-th cardinal polynomial of the rule at x (scalar or array)."""
    t = rule.nodes
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for m in range(len(t)):
        if m == p:
            continue
        out = out * (x - t[m]) / (t[p] - t[m])
    return out if out.ndim else float(out)


def lagrange_deriv(rule: GaussLobattoRule, p: int, x) -> np.ndarray | float:
    """Derivative of the p-th cardinal polynomial at x (scalar or array)."""
    t = rule.nodes
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(len(t)):
        if k == p:
            continue
        term = np.ones_like(x) / (t[p] - t[k])
        for m in range(len(t)):
            if m == p or m == k:
                continue
            term = term * (x - t[m]) / (t[p] - t[m])
        out = out + term
    return out if out.ndim else float(out)


def diff_matrix(rule: GaussLobattoRule) -> np.ndarray:
    """Nodal differentiation matrix d[p, q] = phi_q'(node_p)."""
    Kp1 = len(rule.nodes)
    d = np.empty((Kp1, Kp1))
    for q in range(Kp1):
        d[:, q] = lagrange_deriv(rule, q, rule.nodes)
    return d


def integral_block(rule: GaussLobattoRule) -> np.ndarray:
    """Exact prefix integrals Iloc[p, q] = int_0^{node_p} phi_q(t) dt.

    First row is zero; the last row equals the quadrature weights. This is
    the Butcher tableau of the LobattoIIIA collocation family.
    """
    Kp1 = len(rule.nodes)
    ng = Kp1 // 2 + 2  # Gauss-Legendre order, exact for degree K integrands
    gx, gw = np.polynomial.legendre.leggauss(ng)
    iloc = np.zeros((Kp1, Kp1))
    for p in range(1, Kp1):
        a = rule.nodes[p]
        pts = 0.5 * a * (gx + 1.0)
        wts = 0.5 * a * gw
        for q in range(Kp1):
            iloc[p, q] = np.dot(wts, lagrange_eval(rule, q, pts))
    return iloc


class CSR:
    """CSR arrays with int32 indices, and the entries as COO (row, col, data). `from_coo`,
    so every product, difference and diagonal, is canonical (sorted columns, no stored zeros)
    and sums as scipy.sparse: from zero, duplicates as they come, products by inner index."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape
        self.row, self.col = np.repeat(np.arange(shape[0]), np.diff(indptr)), indices
        self.nnz = data.size

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CSR":
        key = np.asarray(rows, dtype=np.int64) * shape[1] + cols
        order = np.argsort(key, kind="stable")
        first = np.diff(key[order], prepend=-1) != 0
        # bincount adds in order of appearance, from zero
        sums = np.bincount(np.cumsum(first) - 1, weights=np.asarray(vals, dtype=float)[order])
        r, c = np.divmod(key[order][first][sums != 0], shape[1])
        indptr = np.cumsum(np.bincount(r + 1, minlength=shape[0] + 1), dtype=np.int32)
        return cls(indptr, c.astype(np.int32), sums[sums != 0], shape)

    @classmethod
    def diag(cls, d: np.ndarray) -> "CSR":
        return cls.from_coo(np.arange(d.size), np.arange(d.size), d, (d.size, d.size))

    def __sub__(self, other: "CSR") -> "CSR":
        return CSR.from_coo(*(np.concatenate(x) for x in zip(
            (self.row, self.col, self.data), (other.row, other.col, -other.data))), self.shape)

    def __matmul__(self, other: "CSR") -> "CSR":
        n = np.diff(other.indptr)[self.col]
        # each A[i, j] meets the entries of B's row j, in storage order
        pos = np.repeat(other.indptr[self.col] - np.cumsum(n) + n, n) + np.arange(n.sum())
        return CSR.from_coo(np.repeat(self.row, n), other.col[pos], np.repeat(self.data, n)
                            * other.data[pos], (self.shape[0], other.shape[1]))


class LineOperator:
    """Assembled operator on one grid line, applied along either field axis.

    Stored once, as a canonical CSR matrix: sorted column indices (which fix
    the summation order of every product) and no stored zeros.
    """

    def __init__(self, mat: CSR):  # canonical, as every CSR that from_coo builds
        self._csr = mat

    def apply_x(self, values: np.ndarray) -> np.ndarray:
        A, x = self._csr, np.ascontiguousarray(values, dtype=float)
        out = np.zeros(A.shape[:1] + x.shape[1:])
        csr_matvecs(*A.shape, x[0].size, A.indptr, A.indices, A.data, x.ravel(), out.ravel())
        return out

    def apply_y(self, values: np.ndarray) -> np.ndarray:
        return self.apply_x(values.T).T

    def toarray(self) -> np.ndarray:
        return self.apply_x(np.eye(self._csr.shape[1]))


class PrefixIntegral:
    """Cumulative line integration: per-cell LobattoIIIA block plus running sum.

    Applied along a line of N cells; the value at the line start is zero and
    interface values accumulate across cells.
    """

    def __init__(self, iloc: np.ndarray, K: int, N: int):
        self.iloc = np.asarray(iloc, dtype=float)
        self.K = K
        self.N = N
        self.n = K * N + 1
        self._idx = np.arange(N)[:, None] * K + np.arange(K + 1)[None, :]

    def apply_x(self, values: np.ndarray) -> np.ndarray:
        one_d = values.ndim == 1
        v = values[:, None] if one_d else values
        segs = v[self._idx]                      # (N, K+1, m)
        blocks = np.matmul(self.iloc, segs)      # (N, K+1, m)
        carry = np.zeros((self.N, v.shape[1]))
        if self.N > 1:
            np.cumsum(blocks[:-1, -1, :], axis=0, out=carry[1:])
        blocks = blocks + carry[:, None, :]
        out = np.empty_like(v)
        out[self._idx.reshape(-1)] = blocks.reshape(-1, v.shape[1])
        return out[:, 0] if one_d else out

    def apply_y(self, values: np.ndarray) -> np.ndarray:
        return self.apply_x(values.T).T

    def toarray(self) -> np.ndarray:
        return self.apply_x(np.eye(self.n))


@dataclass
class OperatorSet1D:
    """The per-direction matrix family on a line of N cells.

    M is the diagonal (collocation) mass matrix, D = (phi, phi'),
    Dt = (phi', phi) = D^T, DD = (phi', phi'), Z = DD - Dt M^-1 D, and
    I the global prefix-integration operator. E = D I, F = DD I, G = Z I
    are banded (half-bandwidths K, K, 2K; None on periodic lines, like I):
    D and DD annihilate constants, so the carry of I drops out and E, F
    assemble from the blocks d_loc i_loc, dd_loc i_loc like D. Each is
    stored once, assembled; element-wise quadratures are quadratic forms of
    M, D and DD, and of the element blocks only I keeps its prefix block.
    """

    K: int
    N: int
    periodic: bool
    nodes: np.ndarray          # physical line coordinates, length K*N+1 (+periodic wrap node)
    mass_diag: np.ndarray
    M: LineOperator
    D: LineOperator
    Dt: LineOperator
    DD: LineOperator
    Z: LineOperator
    I: PrefixIntegral | None
    E: LineOperator | None
    F: LineOperator | None
    G: LineOperator | None

    @property
    def n_nodes(self) -> int:
        return self.K * self.N if self.periodic else self.K * self.N + 1


def _operator_family(D, Dt, DD, mass_diag: np.ndarray, E=None, F=None) -> dict:
    """OperatorSet1D fields M, D, Dt, DD, Z = DD - Dt M^-1 D, E, F and
    G = Z I = F - Dt M^-1 E from CSR D, Dt, DD, E = D I, F = DD I and the
    lumped mass."""
    minv = CSR.diag(1.0 / mass_diag)
    wrap = lambda A: None if A is None else LineOperator(A)
    return dict(mass_diag=mass_diag, M=LineOperator(CSR.diag(mass_diag)),
                D=LineOperator(D), Dt=LineOperator(Dt), DD=LineOperator(DD),
                Z=LineOperator(DD - Dt @ (minv @ D)), E=wrap(E), F=wrap(F),
                G=None if E is None else LineOperator(F - Dt @ (minv @ E)))


def neumann_closure(ops: OperatorSet1D) -> OperatorSet1D:
    """Operator family closed by an even (mirror) extension at both line ends.

    Assembling against the reflected ghost cell cancels the first-derivative
    boundary rows of D and Dt, doubles the boundary mass and DD rows, and is
    the homogeneous-Neumann counterpart of periodic wraparound: boundary
    values evolve, no rows are pinned, and discrete equilibria are untouched
    (the modified rows still annihilate kernel states). Interior rows are
    identical to the plain assembly.
    """
    if ops.periodic:
        return ops
    cancel = np.ones(ops.n_nodes)
    cancel[[0, -1]] = 0.0
    double = 2.0 - cancel
    C, T = CSR.diag(cancel), CSR.diag(double)
    return replace(ops, **_operator_family(C @ ops.D._csr, C @ ops.Dt._csr,
                                           T @ ops.DD._csr, double * ops.mass_diag,
                                           C @ ops.E._csr, T @ ops.F._csr))


def build_operator_set(K: int, N: int, delta: float, x0: float = 0.0,
                       periodic: bool = False) -> OperatorSet1D:
    """Assemble the global 1D operators for N cells of width delta.

    Interface nodes are shared; with `periodic` the last node wraps onto the
    first and the prefix operator is not available (the line integral of a
    periodic function is not single valued). Element blocks are scattered as
    COO triplets through the (N, K+1) node-index table; CSR conversion sums
    the contributions of shared nodes.
    """
    if K < 1:
        raise InvalidDegreeError(f"polynomial degree must be >= 1, got {K}")
    if N < 1:
        raise ValueError(f"cell count must be >= 1, got {N}")
    if delta <= 0:
        raise ValueError(f"cell width must be positive, got {delta}")
    rule = gauss_lobatto_rule(K)
    w = rule.weights
    d = diff_matrix(rule)

    d_loc = w[:, None] * d                       # (phi_p, phi_q'), exact
    dd_loc = (d.T * w) @ d / delta               # (phi_p', phi_q'), exact
    i_loc = delta * integral_block(rule)

    n = K * N if periodic else K * N + 1
    cells = (np.arange(N)[:, None] * K + np.arange(K + 1)) % n
    shape = (N, K + 1, K + 1)
    rows = np.broadcast_to(cells[:, :, None], shape).ravel()
    cols = np.broadcast_to(cells[:, None, :], shape).ravel()

    def assemble(block, rows=rows, cols=cols):
        return CSR.from_coo(rows, cols, np.broadcast_to(block, shape).ravel(), (n, n))

    D = assemble(d_loc)
    banded = {} if periodic else dict(E=assemble(d_loc @ i_loc), F=assemble(dd_loc @ i_loc))
    mdiag = np.bincount(cells.ravel(), weights=np.tile(delta * w, N), minlength=n)

    ref = np.concatenate([x0 + (i + rule.nodes[:-1]) * delta for i in range(N)])
    nodes = ref if periodic else np.append(ref, x0 + N * delta)

    return OperatorSet1D(
        K=K, N=N, periodic=periodic, nodes=nodes,
        I=None if periodic else PrefixIntegral(i_loc, K, N),
        **_operator_family(D, assemble(d_loc, cols, rows), assemble(dd_loc), mdiag, **banded),
    )
