from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from gfsem.grid import make_grid
from gfsem.problems import (SourceEval, _steady_self_check, coriolis_vortex, exact_state,
                            make_problem, mass_source_steady, mass_source_translating,
                            pressure_perturbation, stommel_coefficients, stommel_gyre)
from gfsem.schemes import dirichlet_ring


def fd(f, x, y, h=1e-5, arg=0, wrt="x"):
    if wrt == "x":
        return (f(x + h, y)[arg] - f(x - h, y)[arg]) / (2 * h)
    return (f(x, y + h)[arg] - f(x, y - h)[arg]) / (2 * h)


# --- Coriolis vortex ----------------------------------------------------------

def test_vortex_center_values():
    prob = coriolis_vortex(c=0.2, p0=1.0)
    u, v, p = prob.exact(np.array(0.5), np.array(0.5), 0.0)
    assert u == 0.0 and v == 0.0
    assert abs(p - 0.98) < 1e-15


def test_vortex_divergence_free_by_finite_differences():
    prob = coriolis_vortex()
    rng = np.random.default_rng(1)
    X = rng.uniform(0.05, 0.95, 60)
    Y = rng.uniform(0.05, 0.95, 60)
    ex = lambda x, y: prob.exact(x, y, 0.0)
    div = fd(ex, X, Y, arg=0, wrt="x") + fd(ex, X, Y, arg=1, wrt="y")
    assert np.abs(div).max() < 1e-6


def test_vortex_curl_compatibility_closed_form():
    # grad p = c v_perp, checked with the closed-form gradient of the Gaussian
    prob = coriolis_vortex(c=0.2)
    rng = np.random.default_rng(2)
    X = rng.uniform(0.1, 0.9, 80)
    Y = rng.uniform(0.1, 0.9, 80)
    u, v, _ = prob.exact(X, Y, 0.0)
    # p = p0 - c g(rho): dp/dx = -c g'(rho) drho/dx = 20 c (x-x0) exp(-100 rho^2)
    g = np.exp(-100.0 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    dpdx = 0.2 * 20.0 * (X - 0.5) * g
    dpdy = 0.2 * 20.0 * (Y - 0.5) * g
    assert np.abs(dpdx - 0.2 * v).max() < 1e-10
    assert np.abs(dpdy - (-0.2) * u).max() < 1e-10


def test_vortex_rejects_nonpositive_coriolis():
    with pytest.raises(ValueError):
        coriolis_vortex(c=0.0)


# --- mass source --------------------------------------------------------------

def test_mass_source_reduces_to_divfree_vortex_when_b_zero():
    prob = mass_source_steady(a=1.0, b=0.0)
    rng = np.random.default_rng(3)
    X, Y = rng.uniform(0.1, 0.9, (2, 40))
    sp = prob.s_p(X, Y, 0.0)
    assert np.abs(sp).max() == 0.0
    _, _, p = prob.exact(X, Y, 0.0)
    assert np.abs(p - 1.0).max() == 0.0


def test_mass_source_balance_by_finite_differences():
    prob = mass_source_steady(a=1.0, b=1.0)
    rng = np.random.default_rng(4)
    X = rng.uniform(0.05, 0.95, 60)
    Y = rng.uniform(0.05, 0.95, 60)
    ex = lambda x, y: prob.exact(x, y, 0.0)
    div = fd(ex, X, Y, arg=0, wrt="x") + fd(ex, X, Y, arg=1, wrt="y")
    assert np.abs(div - prob.s_p(X, Y, 0.0)).max() < 1e-6


def test_mass_source_laplacian_value_at_source_center():
    for b in (1.0, 2.5):
        prob = mass_source_steady(b=b)
        sp = prob.s_p(np.array(0.65), np.array(0.39), 0.0)
        assert abs(sp - (-4.0 * b)) < 1e-12  # b * (1/100) * (-400)


# --- translating solution -------------------------------------------------------

def test_translating_initial_time_structure():
    prob = mass_source_translating(a_vec=(-0.1, 0.1), b=0.001, p0=1.0)
    X = np.array(0.65)
    Y = np.array(0.39)
    u, v, p = prob.exact(X, Y, 0.0)
    # at the source center grad g = 0, so velocity vanishes and p = p0
    assert abs(u) < 1e-14 and abs(v) < 1e-14
    assert abs(p - 1.0) < 1e-14
    # grad g(x - a t) vanishes where x = x1 + a t: the source center drifts
    # with +a (the velocity is zero there at all times)
    t = 0.7
    u, v, _ = prob.exact(np.array(0.65 + (-0.1) * t), np.array(0.39 + 0.1 * t), t)
    assert abs(u) < 1e-14 and abs(v) < 1e-14


def test_translating_satisfies_pde_by_finite_differences():
    prob = mass_source_translating()
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 0.8, (40, 2))
    ts = rng.uniform(0.0, 0.4, 40)
    h = 1e-5
    worst = 0.0
    for (x, y), t in zip(pts, ts):
        ex = lambda xx, yy, tt: prob.exact(np.array(xx), np.array(yy), tt)
        dudt = (ex(x, y, t + h)[0] - ex(x, y, t - h)[0]) / (2 * h)
        dvdt = (ex(x, y, t + h)[1] - ex(x, y, t - h)[1]) / (2 * h)
        dpdt = (ex(x, y, t + h)[2] - ex(x, y, t - h)[2]) / (2 * h)
        dpdx = (ex(x + h, y, t)[2] - ex(x - h, y, t)[2]) / (2 * h)
        dpdy = (ex(x, y + h, t)[2] - ex(x, y - h, t)[2]) / (2 * h)
        dudx = (ex(x + h, y, t)[0] - ex(x - h, y, t)[0]) / (2 * h)
        dvdy = (ex(x, y + h, t)[1] - ex(x, y - h, t)[1]) / (2 * h)
        sp = prob.s_p(np.array(x), np.array(y), t)
        worst = max(worst, abs(dudt + dpdx), abs(dvdt + dpdy),
                    abs(dpdt + dudx + dvdy - sp))
    assert worst < 1e-6


# --- Stommel gyre ---------------------------------------------------------------

def test_stommel_coefficient_identities():
    co = stommel_coefficients(1.0, 1.0, 0.01, 0.01, 0.01, 0.1)
    assert abs(co.k + co.w - 1.0) < 1e-15
    assert abs(co.A + co.B + co.alpha) < 1e-12
    assert abs(co.A * co.B + (np.pi / co.b) ** 2) < 1e-12
    assert abs(co.k * np.exp(co.A * co.lam) + co.w * np.exp(co.B * co.lam) - 1.0) < 1e-12
    # quadratic-root values for the reference parameters
    assert abs(co.A - (-0.5 + np.sqrt(0.25 + np.pi ** 2))) < 1e-14
    assert abs(co.gamma - 10 * np.pi) < 1e-12


def test_stommel_u_vanishes_on_mid_latitude_and_west_boundary():
    prob = stommel_gyre()
    y = np.array(0.5)  # cos(pi y / b) = 0
    u, _, _ = prob.exact(np.array(0.3), y, 0.0)
    assert abs(u) < 1e-14
    u0, _, _ = prob.exact(np.array(0.0), np.array(0.2), 0.0)
    assert abs(u0) < 1e-14  # k + w = 1


def test_stommel_divergence_free_and_momentum_balance():
    prob = stommel_gyre()
    rng = np.random.default_rng(6)
    X = rng.uniform(0.05, 0.95, 60)
    Y = rng.uniform(0.05, 0.95, 60)
    ex = lambda x, y: prob.exact(x, y, 0.0)
    div = fd(ex, X, Y, arg=0, wrt="x") + fd(ex, X, Y, arg=1, wrt="y")
    assert np.abs(div).max() < 1e-6
    u, v, _ = ex(X, Y)
    c = prob.coriolis(X, Y)
    f = prob.friction(X, Y)
    tu, tv = prob.tau(X, Y)
    dpdx = fd(ex, X, Y, arg=2, wrt="x")
    dpdy = fd(ex, X, Y, arg=2, wrt="y")
    assert np.abs(dpdx - (c * v - f * u + tu)).max() < 1e-6
    assert np.abs(dpdy - (-c * u - f * v + tv)).max() < 1e-6


def test_stommel_boundary_pressure_compatibility():
    # p(x0, y) and p(x, y0) follow from line integrals of the sources
    prob = stommel_gyre()
    p00 = float(prob.exact(np.array(0.0), np.array(0.0), 0.0)[2])

    def su_line(x):
        x = np.array(x)
        y = np.array(0.0)
        u, v, _ = prob.exact(x, y, 0.0)
        return float(prob.coriolis(x, y) * v - prob.friction(x, y) * u
                     + prob.tau(x, y)[0])

    def sv_line(y):
        x = np.array(0.0)
        y = np.array(y)
        u, v, _ = prob.exact(x, y, 0.0)
        return float(-prob.coriolis(x, y) * u - prob.friction(x, y) * v)

    for yb in (0.3, 0.8):
        val, _ = quad(sv_line, 0.0, yb, limit=200)
        p_edge = float(prob.exact(np.array(0.0), np.array(yb), 0.0)[2])
        assert abs(p_edge - (p00 + val)) < 1e-8
    for xb in (0.4, 0.9):
        val, _ = quad(su_line, 0.0, xb, limit=200)
        p_edge = float(prob.exact(np.array(xb), np.array(0.0), 0.0)[2])
        assert abs(p_edge - (p00 + val)) < 1e-8


def test_stommel_flags_mismatched_coriolis_variation():
    with pytest.raises(ValueError, match="c1"):
        stommel_gyre(c0=0.01, c1=0.05)


def test_stommel_rejects_zero_friction():
    with pytest.raises(ValueError):
        stommel_gyre(f=0.0)


# --- perturbation ----------------------------------------------------------------

def test_pressure_perturbation_shape():
    eps = 1e-2
    delta = pressure_perturbation(eps, center=(0.4, 0.43), r0=0.1)
    assert abs(delta(0.4, 0.43) - eps) < 1e-15
    # decays to zero approaching the support radius, hard zero outside
    assert delta(0.4 + 0.0999, 0.43) < 1e-8
    assert delta(0.4 + 0.1, 0.43) == 0.0
    assert delta(0.9, 0.9) == 0.0
    arr = delta(np.linspace(0, 1, 11), np.full(11, 0.43))
    assert arr.shape == (11,)
    with pytest.raises(ValueError):
        pressure_perturbation(1e-2, r0=0.0)


# --- catalog / source evaluation --------------------------------------------------

def test_make_problem_catalog_and_unknown():
    prob = make_problem("coriolis_vortex", c=0.3)
    assert prob.coriolis(0.5, 0.5) == 0.3
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("does_not_exist")


def test_source_eval_state_dependence():
    prob = coriolis_vortex(c=0.2)
    grid, ox, oy = make_grid(3, 3, 2)
    se = SourceEval(prob, grid)
    st = exact_state(prob, grid)
    src = se.arrays(st, 0.0)
    assert np.abs(src.su - 0.2 * st.v.values).max() < 1e-14
    assert np.abs(src.sv + 0.2 * st.u.values).max() < 1e-14
    assert np.abs(src.sp).max() == 0.0
    st.v.values *= 2.0
    src2 = se.arrays(st, 0.0)
    assert np.abs(src2.su - 2 * src.su).max() < 1e-14


def test_source_eval_time_dependent_sp():
    prob = mass_source_translating()
    grid, ox, oy = make_grid(3, 3, 1)
    se = SourceEval(prob, grid)
    st = exact_state(prob, grid, 0.0)
    s0 = se.arrays(st, 0.0).sp
    s1 = se.arrays(st, 0.25).sp
    assert np.abs(s0 - s1).max() > 1e-6


def test_translating_source_matches_the_2d_formula():
    # the separable S_p against g_xx, g_yy, g_xy formed on the full grid
    ax, ay, b, x1, y1 = -0.13, 0.07, 0.002, 0.6, 0.45
    prob = mass_source_translating(a_vec=(ax, ay), b=b, source_center=(x1, y1))

    def formula(X, Y, t):
        xs, ys = X - ax * t - x1, Y - ay * t - y1
        g = np.exp(-100.0 * (xs ** 2 + ys ** 2))
        gxx, gyy = (40000.0 * xs ** 2 - 200.0) * g, (40000.0 * ys ** 2 - 200.0) * g
        gxy = 40000.0 * xs * ys * g
        return b * (gxx + gyy) - b * (ax * ax * gxx + 2.0 * ax * ay * gxy + ay * ay * gyy)

    grid, _, _ = make_grid(40, 40, 4, box=prob.box)  # 161^2 nodes
    X, Y = grid.meshgrid()
    x, y = grid.xline, grid.yline
    ring = dirichlet_ring(grid)[1:]  # the boundary ring's nodes as 1D arrays
    for t in (0.0, 0.37, 2.5):
        # the full grid, the ring and the open grid, on which S_p is one matmul
        for XX, YY in ((X, Y), ring, (x[:, None], y[None, :])):
            want = formula(XX, YY, t)
            got = prob.s_p(XX, YY, t)
            assert got.shape == want.shape == np.broadcast_shapes(XX.shape, YY.shape)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        # the open grid's product agrees with the broadcast sum to round-off
        full = prob.s_p(X, Y, t)
        assert np.abs(prob.s_p(x[:, None], y[None, :], t) - full).max() \
            <= 1e-15 * np.abs(full).max()
    se = SourceEval(prob, grid)  # sampled on the open grid, broadcast to the nodes
    sp = se.arrays(exact_state(prob, grid), 0.37).sp
    assert sp.shape == grid.shape
    assert np.abs(sp - formula(X, Y, 0.37)).max() <= 1e-14 * np.abs(sp).max()


def test_steady_self_check_runs_for_all_steady_problems():
    for prob in (coriolis_vortex(), mass_source_steady(), stommel_gyre()):
        assert prob.steady
        st = exact_state(prob, prob_grid(prob))
        assert all(np.isfinite(a).all() for a in st.arrays())


def prob_grid(prob):
    grid, _, _ = make_grid(3, 3, 2, box=prob.box)
    return grid


def self_check_calls(prob):
    """The (X, Y) of every prob.exact call that _steady_self_check makes; the
    first call holds its check points."""
    calls = []

    def exact(X, Y, t):
        calls.append((np.array(X), np.array(Y)))
        return prob.exact(X, Y, t)

    _steady_self_check(replace(prob, exact=exact))
    return calls


@pytest.mark.parametrize("prob", [coriolis_vortex(), mass_source_steady(), stommel_gyre(),
                                  stommel_gyre(lam=2.0, b=0.5)],
                         ids=["vortex", "mass_source", "stommel", "stommel_2x0.5"])
def test_steady_self_check_points_fill_the_box_minus_the_margin(prob):
    calls = self_check_calls(prob)
    x0, xe, y0, ye = prob.box
    margin = 4e-5  # 4 finite-difference steps
    X, Y = calls[0]
    assert X.shape == Y.shape == (100,) and len({*zip(X, Y)}) == 100
    assert X.min() >= x0 + margin and X.max() <= xe - margin
    assert Y.min() >= y0 + margin and Y.max() <= ye - margin
    for XX, YY in calls:  # the difference stencils stay inside the box
        assert x0 < XX.min() and XX.max() < xe and y0 < YY.min() and YY.max() < ye
    right, top = X > (x0 + xe) / 2, Y > (y0 + ye) / 2
    quadrants = np.bincount(2 * right + top, minlength=4)
    assert quadrants.min() >= 20, quadrants  # near 25 each, not all in one corner


def test_steady_self_check_rejects_a_mismatched_coriolis_coefficient():
    # exact built with c = 0.2, Coriolis force evaluated with 0.21
    prob = replace(coriolis_vortex(c=0.2), coriolis=lambda X, Y: np.full(np.shape(X), 0.21))
    with pytest.raises(ValueError, match="steady-state self-check failed"):
        _steady_self_check(prob)
