import re

import numpy as np
import pytest

from gfsem import basis
from gfsem.basis import (CSR, InvalidDegreeError, LineOperator, build_operator_set,
                         gauss_lobatto_rule, lagrange_deriv, lagrange_eval,
                         load_sparsetools, neumann_closure)
from helpers import dense_operator_family, prefix_block, scipy_operator_family


def test_degree_one_rule_is_endpoints():
    r = gauss_lobatto_rule(1)
    assert np.allclose(r.nodes, [0.0, 1.0])
    assert np.allclose(r.weights, [0.5, 0.5])


def test_degree_two_rule_against_exactness_oracle():
    # independent oracle: with symmetric nodes {0, 1/2, 1} fixed, solve the
    # Vandermonde moment system for weights exact on t^0..t^3
    nodes = np.array([0.0, 0.5, 1.0])
    V = np.vander(nodes, 3, increasing=True).T
    w_oracle = np.linalg.solve(V, np.array([1.0, 1 / 2, 1 / 3]))
    r = gauss_lobatto_rule(2)
    assert np.allclose(r.nodes, nodes, atol=1e-15)
    assert np.allclose(r.weights, w_oracle, atol=1e-15)
    assert abs(np.dot(r.weights, r.nodes ** 3) - 1 / 4) < 1e-15


def test_degree_three_interior_nodes_by_bisection_oracle():
    # roots of d/dx P_3 on (-1,1) via bisection on numpy's Legendre series
    dP3 = np.polynomial.legendre.Legendre([0, 0, 0, 1]).deriv()

    def bisect(lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dP3(lo) * dP3(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    roots01 = sorted((bisect(-0.9, -0.1) + 1) / 2 for _ in [0]) + [(bisect(0.1, 0.9) + 1) / 2]
    r = gauss_lobatto_rule(3)
    assert np.allclose(r.nodes[1:3], roots01, atol=1e-14)
    assert np.allclose(r.nodes[1:3], [(1 - 1 / np.sqrt(5)) / 2, (1 + 1 / np.sqrt(5)) / 2],
                       atol=1e-15)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_rule_invariants(K):
    r = gauss_lobatto_rule(K)
    assert r.nodes[0] == 0.0 and r.nodes[-1] == 1.0
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all(r.weights > 0)
    assert abs(r.weights.sum() - 1.0) < 1e-14
    assert np.allclose(r.nodes, 1 - r.nodes[::-1], atol=1e-15)
    for j in range(2 * K):  # exact through degree 2K-1
        assert abs(np.dot(r.weights, r.nodes ** j) - 1 / (j + 1)) < 1e-13


def test_rule_rejects_bad_degree():
    with pytest.raises(InvalidDegreeError):
        gauss_lobatto_rule(0)


@pytest.mark.parametrize("K", [1, 2, 4])
def test_lagrange_cardinal_and_partition(K):
    r = gauss_lobatto_rule(K)
    rng = np.random.default_rng(3)
    for p in range(K + 1):
        vals = [lagrange_eval(r, p, x) for x in r.nodes]
        assert np.allclose(vals, np.eye(K + 1)[p], atol=1e-13)
    xs = rng.uniform(-0.2, 1.2, 7)  # extrapolation allowed
    ones = sum(lagrange_eval(r, p, xs) for p in range(K + 1))
    zeros = sum(lagrange_deriv(r, p, xs) for p in range(K + 1))
    assert np.allclose(ones, 1.0, atol=1e-12)
    assert np.allclose(zeros, 0.0, atol=1e-11)


def test_lagrange_deriv_exact_on_cardinal_polynomial():
    r = gauss_lobatto_rule(3)
    xs = np.linspace(0, 1, 9)
    h = 1e-6
    for p in range(4):
        fd = (lagrange_eval(r, p, xs + h) - lagrange_eval(r, p, xs - h)) / (2 * h)
        assert np.allclose(lagrange_deriv(r, p, xs), fd, atol=1e-7)


def test_k1_operator_stencils_match_reference():
    ops = build_operator_set(1, 3, 1.0)
    assert np.allclose(ops.I.iloc, [[0.0, 0.0], [0.5, 0.5]], atol=1e-15)
    D = ops.D.toarray()
    assert np.allclose(D[1], [-0.5, 0.0, 0.5, 0.0], atol=1e-15)
    assert np.allclose(ops.mass_diag, [0.5, 1.0, 1.0, 0.5], atol=1e-15)
    DI = D @ ops.I.toarray()
    assert np.allclose(DI[1], [0.25, 0.5, 0.25, 0.0], atol=1e-14)
    DDI = ops.DD.toarray() @ ops.I.toarray()
    assert np.allclose(DDI[1], [0.5, 0.0, -0.5, 0.0], atol=1e-14)


def test_k2_operators_against_direct_quadrature_oracle():
    K, N, delta = 2, 3, 0.4
    ops = build_operator_set(K, N, delta)
    r = gauss_lobatto_rule(K)
    n = K * N + 1

    # dense assembly by direct collocation sums over each element
    M = np.zeros((n, n))
    D = np.zeros((n, n))
    DD = np.zeros((n, n))
    for i in range(N):
        idx = i * K + np.arange(K + 1)
        for a in range(K + 1):
            for b in range(K + 1):
                phi_a = np.array([lagrange_eval(r, a, t) for t in r.nodes])
                phi_b = np.array([lagrange_eval(r, b, t) for t in r.nodes])
                dphi_a = np.array([lagrange_deriv(r, a, t) for t in r.nodes])
                dphi_b = np.array([lagrange_deriv(r, b, t) for t in r.nodes])
                M[idx[a], idx[b]] += delta * np.sum(r.weights * phi_a * phi_b)
                D[idx[a], idx[b]] += np.sum(r.weights * phi_a * dphi_b)
                DD[idx[a], idx[b]] += np.sum(r.weights * dphi_a * dphi_b) / delta
    assert np.abs(ops.M.toarray() - M).max() < 1e-13
    assert np.abs(ops.D.toarray() - D).max() < 1e-13
    assert np.abs(ops.DD.toarray() - DD).max() < 1e-13

    # prefix blocks against scipy quadrature
    from scipy.integrate import quad
    for p in range(K + 1):
        for q in range(K + 1):
            val, _ = quad(lambda t: lagrange_eval(r, q, t), 0.0, r.nodes[p])
            assert abs(ops.I.iloc[p, q] - delta * val) < 1e-13


@pytest.mark.parametrize("K", range(1, 7))
@pytest.mark.parametrize("N", [1, 4, 8])
def test_sbp_identity_and_z_psd(K, N):
    ops = build_operator_set(K, N, 0.37)
    D = ops.D.toarray()
    B = np.zeros_like(D)
    B[0, 0], B[-1, -1] = -1.0, 1.0
    assert np.abs(D + D.T - B).max() < 1e-13
    assert np.abs(ops.Dt.toarray() - D.T).max() == 0.0
    Z = ops.Z.toarray()
    assert np.abs(Z - Z.T).max() < 1e-12
    assert np.linalg.eigvalsh(0.5 * (Z + Z.T)).min() > -1e-12


@pytest.mark.parametrize("K", [1, 3, 5])
def test_prefix_integration_exact_on_interpolants(K):
    ops = build_operator_set(K, 4, 0.25)
    x = ops.nodes
    coeffs = np.arange(1, K + 2, dtype=float)
    q = sum(c * x ** j for j, c in enumerate(coeffs))
    anti = sum(c * x ** (j + 1) / (j + 1) for j, c in enumerate(coeffs))
    assert np.abs(ops.I.apply_x(q) - anti).max() < 1e-13
    # first/last local rows
    assert np.abs(ops.I.iloc[0]).max() == 0.0
    assert np.allclose(ops.I.iloc[-1], 0.25 * gauss_lobatto_rule(K).weights, atol=1e-14)


@pytest.mark.parametrize("K", [1, 3])
def test_prefix_block_helper_covers_periodic_lines(K):
    plain, periodic = (build_operator_set(K, 4, 0.25, periodic=p) for p in (False, True))
    assert periodic.I is None
    assert prefix_block(plain) is plain.I.iloc
    assert np.abs(prefix_block(periodic) - plain.I.iloc).max() <= 1e-15


def test_prefix_last_row_quadrature_degree():
    # last row integrates degree <= 2K-1 exactly over the cell
    K, delta = 3, 0.8
    ops = build_operator_set(K, 1, delta)
    t = gauss_lobatto_rule(K).nodes
    for j in range(2 * K):
        q = (t * delta) ** j
        exact = delta ** (j + 1) / (j + 1)
        assert abs(ops.I.iloc[-1] @ q - exact) < 1e-13


def test_operator_set_validation():
    with pytest.raises(InvalidDegreeError):
        build_operator_set(0, 2, 1.0)
    with pytest.raises(ValueError):
        build_operator_set(2, 0, 1.0)
    with pytest.raises(ValueError):
        build_operator_set(2, 2, -1.0)


def test_periodic_assembly_wraps():
    ops = build_operator_set(2, 4, 0.25, periodic=True)
    assert ops.n_nodes == 8
    D = ops.D.toarray()
    assert np.abs(D + D.T).max() < 1e-14  # skew: no boundary matrix
    assert np.abs(D.sum(axis=1)).max() < 1e-14
    assert ops.I is None


def test_neumann_closure_rows():
    ops = build_operator_set(2, 4, 0.25)
    cl = neumann_closure(ops)
    assert np.abs(cl.D.toarray()[0]).max() == 0.0
    assert np.abs(cl.Dt.toarray()[-1]).max() == 0.0
    assert np.allclose(cl.mass_diag[0], 2 * ops.mass_diag[0])
    assert np.allclose(cl.DD.toarray()[0], 2 * ops.DD.toarray()[0])
    # interior rows untouched
    assert np.abs(cl.D.toarray()[1:-1] - ops.D.toarray()[1:-1]).max() == 0.0
    # constants still in every kernel row
    assert np.abs(cl.Z.toarray() @ np.ones(9)).max() < 1e-12


def test_lumped_mass_is_a_diagonal_operator():
    rng = np.random.default_rng(3)
    for K in (1, 2, 3, 4):
        ops = build_operator_set(K, 4, 0.25)
        q = rng.standard_normal((ops.n_nodes, 7))
        for o in (ops, neumann_closure(ops)):
            d = o.mass_diag
            assert np.array_equal(o.M.toarray(), np.diag(d))
            assert np.array_equal(o.M.apply_x(q), d[:, None] * q)
            assert np.array_equal(o.M.apply_y(q.T), q.T * d)
            assert np.array_equal(o.M.apply_x(q[:, 0]), d * q[:, 0])


@pytest.mark.parametrize("periodic", [False, True])
def test_every_assembled_operator_is_a_line_operator(periodic):
    for K in (1, 2, 3, 4):
        ops = build_operator_set(K, 3, 0.5, periodic=periodic)
        for o in (ops, neumann_closure(ops)):
            assert all(isinstance(A, LineOperator) for A in (o.M, o.D, o.Dt, o.DD, o.Z))
            assert all(A is None if periodic else isinstance(A, LineOperator)
                       for A in (o.E, o.F, o.G))


# a single periodic cell wraps onto itself, where the dense reference's
# buffered np.ix_ addition drops repeated indices; see the mass test below
ASSEMBLY_CASES = [(N, periodic, neumann) for N in (1, 2, 5, 13)
                  for periodic, neumann in ((False, False), (True, False), (False, True))
                  if not (periodic and N == 1)]


@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize("N,periodic,neumann", ASSEMBLY_CASES)
def test_assembly_matches_dense_reference(K, N, periodic, neumann):
    ops = build_operator_set(K, N, 0.37, periodic=periodic)
    if neumann:
        ops = neumann_closure(ops)
    ref = dense_operator_family(K, N, 0.37, periodic=periodic, neumann=neumann)
    for name in ("M", "D", "Dt", "DD"):
        assert np.array_equal(getattr(ops, name).toarray(), ref[name]), name
    # Z = DD - Dt M^-1 D vanishes on a single plain cell, so bound the
    # product's round-off by the scale of its terms there
    scale = np.abs(ref["Z"]).max() if neumann or N > 1 else np.abs(ref["DD"]).max()
    assert np.abs(ops.Z.toarray() - ref["Z"]).max() <= 1e-15 * scale
    # E = D I, F = DD I and G = Z I assemble from element blocks; the dense
    # products carry I's running sums, which cancel only to round-off: each
    # gap within (K+1) eps of the largest sum of its terms' magnitudes
    banded = () if periodic else ("E", "F", "G")
    if periodic:
        assert ops.E is None and ops.F is None and ops.G is None
    else:
        absI, md = np.abs(ref["I"]), np.diag(ref["M"])
        terms = {"E": np.abs(ref["D"]), "F": np.abs(ref["DD"]),
                 "G": np.abs(ref["DD"]) + np.abs(ref["Dt"]) @ (np.abs(ref["D"]) / md[:, None])}
        for name, factor in zip(banded, ("D", "DD", "Z")):
            gap = np.abs(getattr(ops, name).toarray() - ref[factor] @ ref["I"]).max()
            assert gap <= (K + 1) * np.finfo(float).eps * (terms[name] @ absI).max(), name
    # canonical CSR: no stored zeros and sorted column indices in every row
    for name in ("D", "Dt", "DD", "Z") + banded:
        csr = getattr(ops, name)._csr
        assert np.all(csr.data != 0.0), name
        for r in range(csr.shape[0]):
            assert np.all(np.diff(csr.indices[csr.indptr[r]:csr.indptr[r + 1]]) > 0), name


def _gap_to_scipy(K, N, periodic, neumann) -> float:
    """Largest gap between gfsem's operators and scipy.sparse's, relative to
    the operator's largest entry."""
    ops = build_operator_set(K, N, 0.37, periodic=periodic)
    if neumann:
        ops = neumann_closure(ops)
    ref = scipy_operator_family(K, N, 0.37, periodic=periodic, neumann=neumann)
    assert sorted(ref) == sorted(n for n in ("D", "Dt", "DD", "Z", "E", "F", "G")
                                 if getattr(ops, n) is not None)
    return max(np.abs(getattr(ops, n).toarray() - A).max()
               / max(np.abs(A).max(), np.finfo(float).tiny) for n, A in ref.items())


SCIPY_CASES = [(K, N, periodic, neumann) for K in range(1, 9) for N in (1, 2, 5, 13)
               for periodic, neumann in ((False, False), (True, False), (False, True))]


def test_numpy_assembly_and_kernel_match_scipy_sparse():
    # the kernel gfsem loaded without scipy.sparse is the one scipy.sparse uses
    import scipy.sparse
    from scipy.sparse._sparsetools import csr_matvecs
    assert basis.csr_matvecs is csr_matvecs
    # assembly: sums of duplicates, sparse products and scalings; they differ
    # where scipy sums in another order (the Neumann closure's Z and G, a
    # single periodic cell of K = 8), by at most 1.7e-16 of the largest entry
    for case in SCIPY_CASES:
        assert _gap_to_scipy(*case) <= 2e-15, case
    # application along either axis, bitwise scipy's product
    ops = build_operator_set(3, 5, 0.37)
    q = np.random.default_rng(5).standard_normal((16, 7))
    for name in ("D", "Z", "G"):
        A = scipy.sparse.csr_matrix(getattr(ops, name).toarray())
        assert np.array_equal(getattr(ops, name).apply_x(q), A @ q)
        assert np.array_equal(getattr(ops, name).apply_y(q.T), (A @ q).T)
        assert np.array_equal(getattr(ops, name).apply_x(q[:, 0]), A @ q[:, 0])


def test_scipy_cross_check_rejects_an_assembly_that_keeps_one_duplicate(monkeypatch):
    coo = CSR.from_coo

    def keep_first(rows, cols, vals, shape):
        _, first = np.unique(np.asarray(rows) * shape[1] + np.asarray(cols), return_index=True)
        return coo(np.asarray(rows)[first], np.asarray(cols)[first], np.asarray(vals)[first],
                   shape)

    monkeypatch.setattr(CSR, "from_coo", staticmethod(keep_first))
    for case in [(2, 3, False, False), (3, 2, True, False), (4, 5, False, True)]:
        assert _gap_to_scipy(*case) > 0.1, case


def test_a_missing_kernel_fails_and_names_the_directory_searched(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
        load_sparsetools(str(tmp_path))


def test_single_periodic_cell_sums_every_wrapped_contribution():
    for K in (1, 2, 4):
        ops = build_operator_set(K, 1, 0.5, periodic=True)
        assert ops.n_nodes == K
        assert abs(ops.mass_diag.sum() - 0.5) < 1e-15
        assert np.abs(ops.D.toarray().sum(axis=1)).max() < 1e-14
