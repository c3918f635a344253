import numpy as np
import pytest

from gfsem.grid import Field, State, dump_field, l2_norm, load_field, make_grid, quad_weights
from helpers import apply_xy, kron_apply, l2_error


@pytest.fixture
def small():
    return make_grid(3, 2, 2, box=(0.0, 1.0, 0.0, 1.0))


def test_grid_geometry():
    grid, ox, oy = make_grid(4, 5, 3, box=(-1.0, 1.0, 0.0, 0.5))
    assert grid.shape == (13, 16)
    assert abs(grid.dx - 0.5) < 1e-15 and abs(grid.dy - 0.1) < 1e-15
    assert abs(grid.h - 0.1) < 1e-15
    # shared interface node identity
    assert abs(grid.xline[3] - (-1.0 + 0.5)) < 1e-14
    assert np.all(np.diff(grid.xline) > 0)


@pytest.mark.parametrize("Nx,Ny", [(0, 2), (2, 0), (-1, 3)])
def test_make_grid_rejects_fewer_than_one_cell(Nx, Ny):
    with pytest.raises(ValueError, match=f"got {Nx} x {Ny} cells"):
        make_grid(Nx, Ny, 1)


def test_apply_xy_identity_and_separable(small):
    grid, ox, oy = small
    rng = np.random.default_rng(5)
    q = rng.standard_normal(grid.shape)
    assert np.abs(apply_xy(None, None, q) - q).max() == 0.0
    alpha = rng.standard_normal(grid.shape[0])
    beta = rng.standard_normal(grid.shape[1])
    sep = np.outer(alpha, beta)
    got = apply_xy(ox.D, oy.M, sep)
    want = np.outer(ox.D.apply_x(alpha), oy.M.apply_x(beta))
    assert np.abs(got - want).max() < 1e-13


def test_apply_xy_against_dense_kron_oracle():
    grid, ox, oy = make_grid(3, 3, 2)
    rng = np.random.default_rng(11)
    q = rng.standard_normal(grid.shape)
    for ax, ay in ((ox.D, oy.M), (ox.M, oy.DD), (ox.Z, oy.D)):
        got = apply_xy(ax, ay, q)
        want = kron_apply(ax.toarray(), ay.toarray(), q)
        assert np.abs(got - want).max() < 1e-12
    # prefix operators through their dense form
    got = apply_xy(ox.I, oy.I, q)
    want = kron_apply(ox.I.toarray(), oy.I.toarray(), q)
    assert np.abs(got - want).max() < 1e-12


def test_apply_xy_composes_and_is_adjoint_consistent(small):
    grid, ox, oy = small
    rng = np.random.default_rng(7)
    q = rng.standard_normal(grid.shape)
    r = rng.standard_normal(grid.shape)
    one = apply_xy(ox.D, oy.DD, q)
    two = apply_xy(ox.D, None, apply_xy(None, oy.DD, q))
    assert np.abs(one - two).max() < 1e-13
    lhs = np.sum(apply_xy(ox.D, oy.M, q) * r)
    rhs = np.sum(q * apply_xy(ox.Dt, oy.M, r))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_l2_norm_basics(small):
    grid, ox, oy = small
    w = quad_weights(grid, ox, oy)
    assert l2_norm(np.zeros(grid.shape), w) == 0.0
    assert abs(l2_norm(np.ones(grid.shape), w) - 1.0) < 1e-14  # unit square area
    wex = quad_weights(grid, ox, oy, exclude_boundary=True)
    edge = np.zeros(grid.shape)
    edge[0, :] = 7.0
    assert l2_norm(edge, wex) == 0.0


def test_l2_norm_against_dense_quadrature_sum():
    grid, ox, oy = make_grid(4, 3, 2)
    rng = np.random.default_rng(13)
    q = rng.standard_normal(grid.shape)
    w = quad_weights(grid, ox, oy)
    direct = 0.0
    for a in range(grid.shape[0]):
        for b in range(grid.shape[1]):
            direct += ox.mass_diag[a] * oy.mass_diag[b] * q[a, b] ** 2
    assert abs(l2_norm(q, w) - np.sqrt(direct)) < 1e-14
    # the in-place product rounds as the plain expression: the CSVs stay bitwise
    assert l2_norm(q, w) == float(np.sqrt(np.sum(w * q * q)))


def test_l2_error_against_exact_function():
    grid, ox, oy = make_grid(3, 3, 2)
    w = quad_weights(grid, ox, oy)
    X, Y = grid.meshgrid()
    f = Field(grid, X + 2 * Y)
    assert l2_error(f, lambda X, Y, t: X + 2 * Y, w) < 1e-14
    # shifting the exact solution by a constant gives exactly that constant
    assert abs(l2_error(f, lambda X, Y, t: X + 2 * Y + 3.0, w) - 3.0) < 1e-13


def test_field_dump_roundtrip(tmp_path):
    grid, _, _ = make_grid(3, 2, 2, box=(0.0, 2.0, -1.0, 1.0))
    rng = np.random.default_rng(17)
    f = Field(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "field.txt"
    dump_field(f, path)
    head = path.read_text().splitlines()[0].split()
    assert head[0] == "3" and head[1] == "2" and head[6] == "2"
    g = load_field(path)
    assert g.grid.box == grid.box
    assert np.abs(g.values - f.values).max() == 0.0


def test_field_dump_bytes_match_per_value_formatting(tmp_path):
    grid, _, _ = make_grid(2, 1, 2)  # 5 x 3 nodes
    vals = np.array([-0.0, 5e-324, 1e300, 3.0, -7.0, np.inf, -np.inf, 0.1, 1.0 / 3.0,
                     -2.5e-17, 1e16, 123456789.0, 0.0, -1e-300, 2.0 ** 60]).reshape(grid.shape)
    path = tmp_path / "field.txt"
    dump_field(Field(grid, vals), path)
    x0, xe, y0, ye = grid.box
    want = f"2 1 {x0!r} {xe!r} {y0!r} {ye!r} 2\n" + "".join(
        " ".join(f"{v:.17g}" for v in row) + "\n" for row in vals)
    assert path.read_bytes() == want.encode()


def test_state_copy_is_deep():
    grid, _, _ = make_grid(2, 2, 1)
    s = State(grid, np.ones((3, *grid.shape)))
    c = s.copy()
    c.u.values[0, 0] = 9.0
    c.q[2] = 5.0
    assert np.array_equal(s.q, np.ones((3, *grid.shape)))
    assert not np.shares_memory(c.q, s.q)


def test_state_fields_are_views_of_its_block():
    grid, _, _ = make_grid(2, 3, 1)
    s = State(grid, np.arange(3.0 * 12).reshape(3, 3, 4))
    for k, f in enumerate((s.u, s.v, s.p)):
        assert f.grid is grid and np.shares_memory(f.values, s.q)
        assert np.array_equal(f.values, s.q[k])
    s.v.values[1, 2] = -1.0
    assert s.q[1, 1, 2] == -1.0
    u, v, p = s.arrays()
    assert np.shares_memory(p, s.q)
    with pytest.raises(ValueError, match="does not match"):
        State(grid, np.zeros((3, 4, 3)))
