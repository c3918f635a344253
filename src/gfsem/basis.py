"""One-dimensional Gauss-Lobatto bases and the per-direction operator matrices.

Everything lives on the reference element [0, 1]. A grid line with N cells of
width `delta` carries K*N+1 nodes (interface nodes shared between neighbouring
cells); all matrices are assembled from per-cell blocks on that line. Every
integral is evaluated with the Gauss-Lobatto collocation rule of the basis
itself, so the mass matrix is diagonal (and inexact); the prefix-integration
blocks are exact integrals of the cardinal polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


class InvalidDegreeError(ValueError):
    pass


def _legendre_deriv_pair(n: int, x: float) -> tuple[float, float]:
    """Return (P_n'(x), P_n''(x)) via the Legendre three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    # p1 = P_n, p0 = P_{n-1}
    if abs(1.0 - x * x) < 1e-30:
        raise ZeroDivisionError("derivative recurrence evaluated at +-1")
    d1 = n * (x * p1 - p0) / (x * x - 1.0)
    d2 = (2.0 * x * d1 - n * (n + 1) * p1) / (1.0 - x * x)
    return d1, d2


def _legendre(n: int, x: float) -> float:
    p0, p1 = 1.0, x
    if n == 0:
        return 1.0
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1


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

    Interior nodes are the roots of P_K' found by Newton iteration with a
    bisection fallback, converged to ~1e-15 on [-1, 1] before mapping.
    """
    if K < 1:
        raise InvalidDegreeError(f"polynomial degree must be >= 1, got {K}")
    x = np.empty(K + 1)
    x[0], x[K] = -1.0, 1.0
    for j in range(1, K):
        # Chebyshev-Lobatto point is a good starting guess; bracket between
        # the neighbouring Chebyshev points keeps the fallback safe.
        lo = np.cos(np.pi * (j + 0.5) / K)
        hi = np.cos(np.pi * (j - 0.5) / K)
        xi = np.cos(np.pi * j / K)
        for _ in range(_NEWTON_MAXIT):
            d1, d2 = _legendre_deriv_pair(K, xi)
            if d2 == 0.0:
                break
            step = d1 / d2
            xn = xi - step
            if not (lo < xn < hi):
                # bisection fallback on the sign change of P_K'
                flo, _ = _legendre_deriv_pair(K, lo)
                xn = 0.5 * (lo + hi)
                fx, _ = _legendre_deriv_pair(K, xn)
                if flo * fx <= 0:
                    hi = xn
                else:
                    lo = xn
            if abs(xn - xi) <= _NEWTON_TOL * max(1.0, abs(xn)):
                xi = xn
                break
            xi = xn
        x[K - j] = xi  # cos ordering is decreasing in j
    x.sort()
    w = np.empty(K + 1)
    for j in range(K + 1):
        w[j] = 2.0 / (K * (K + 1) * _legendre(K, x[j]) ** 2)
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


class LineOperator:
    """Assembled operator on one grid line, applied along either field axis.

    Stored once, as a canonical CSR matrix: sorted column indices (which fix
    the summation order of every product) and no stored zeros.
    """

    def __init__(self, mat):
        self._csr = sp.csr_matrix(mat, dtype=float, copy=True)
        self._csr.sum_duplicates()
        self._csr.eliminate_zeros()

    def apply_x(self, values: np.ndarray) -> np.ndarray:
        return self._csr @ values

    def apply_y(self, values: np.ndarray) -> np.ndarray:
        return (self._csr @ values.T).T

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()


class DiagonalOperator:
    """Diagonal operator on one grid line (the lumped mass), applied by
    broadcasting instead of a sparse product."""

    def __init__(self, diag: np.ndarray):
        self.diag = np.asarray(diag, dtype=float)

    def apply_x(self, values: np.ndarray) -> np.ndarray:
        return (self.diag if values.ndim == 1 else self.diag[:, None]) * values

    def apply_y(self, values: np.ndarray) -> np.ndarray:
        return values * self.diag

    def toarray(self) -> np.ndarray:
        return np.diag(self.diag)


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
    """The per-direction matrix family on a line of N cells of width delta.

    M is the diagonal (collocation) mass matrix, D = (phi, phi'),
    Dt = (phi', phi) = D^T, DD = (phi', phi'), Z = DD - Dt M^-1 D, and
    I the global prefix-integration operator. Each is stored once, in
    assembled form; of the element blocks only d_loc = (phi_p, phi_q') and
    the prefix block i_loc are kept, for element-wise evaluation.
    """

    K: int
    N: int
    delta: float
    periodic: bool
    rule: GaussLobattoRule
    nodes: np.ndarray          # physical line coordinates, length K*N+1 (+periodic wrap node)
    mass_diag: np.ndarray
    M: DiagonalOperator
    D: LineOperator
    Dt: LineOperator
    DD: LineOperator
    Z: LineOperator
    I: PrefixIntegral | None
    d_loc: np.ndarray = field(repr=False)
    i_loc: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.K * self.N if self.periodic else self.K * self.N + 1


def _operator_family(D, Dt, DD, mass_diag: np.ndarray) -> dict:
    """OperatorSet1D fields M, D, Dt, DD and Z = DD - Dt M^-1 D from sparse
    D, Dt, DD and the lumped mass."""
    Z = DD - Dt @ (sp.diags(1.0 / mass_diag) @ D)
    return dict(mass_diag=mass_diag, M=DiagonalOperator(mass_diag),
                D=LineOperator(D), Dt=LineOperator(Dt), DD=LineOperator(DD),
                Z=LineOperator(Z))


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
    C, T = sp.diags(cancel), sp.diags(double)
    return replace(ops, **_operator_family(C @ ops.D._csr, C @ ops.Dt._csr,
                                           T @ ops.DD._csr, double * ops.mass_diag))


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

    def assemble(block):
        vals = np.broadcast_to(block, shape).ravel()
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    D = assemble(d_loc)
    mdiag = np.bincount(cells.ravel(), weights=np.tile(delta * w, N), minlength=n)

    ref = np.concatenate([x0 + (i + rule.nodes[:-1]) * delta for i in range(N)])
    nodes = ref if periodic else np.append(ref, x0 + N * delta)

    return OperatorSet1D(
        K=K, N=N, delta=delta, periodic=periodic, rule=rule, nodes=nodes,
        I=None if periodic else PrefixIntegral(i_loc, K, N),
        d_loc=d_loc, i_loc=i_loc,
        **_operator_family(D, D.T, assemble(dd_loc), mdiag),
    )
