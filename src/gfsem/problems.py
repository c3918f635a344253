"""Benchmark problem definitions: source coefficients, analytic equilibria and
exact unsteady solutions.

Momentum sources follow S_v = c*vperp - f*v + tau with vperp = (v, -u):
a Coriolis term, friction and an external forcing. Gradients and Laplacians
of all Gaussian profiles are supplied in closed form so nodal source data is
not polluted by differencing error. Steady problems run a finite-difference
self-check of the equilibrium at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .gf import SourceArrays
from .grid import Grid2D, State


@dataclass
class Problem:
    name: str
    box: tuple[float, float, float, float]
    bc: str                       # 'neumann' | 'dirichlet' | 'periodic'
    steady: bool
    exact: Optional[Callable] = None       # (X, Y, t) -> (u, v, p), X, Y broadcast
    coriolis: Optional[Callable] = None    # (X, Y) -> c
    friction: Optional[Callable] = None    # (X, Y) -> f
    tau: Optional[Callable] = None         # (X, Y) -> (tau_u, tau_v)
    s_p: Optional[Callable] = None         # (X, Y, t) -> S_p, X, Y broadcast
    du_dx: Optional[Callable] = None       # steady analytic d(u_e)/dx
    dv_dy: Optional[Callable] = None       # steady analytic d(v_e)/dy

    @property
    def autonomous(self) -> bool:
        """True when no source depends on time (S_p absent or static)."""
        return self.s_p is None or self.steady


def _nodal(sample, grid: Grid2D) -> np.ndarray:
    """A sample on the open grid as a contiguous float array of the nodes."""
    return np.ascontiguousarray(np.broadcast_to(sample, grid.shape), dtype=float)


class SourceEval:
    """Nodal source evaluation bound to one grid, sampled on the open grid
    (`xline[:, None]`, `yline[None, :]`). The Coriolis and friction samples
    `c`, `f` stay as sampled, so that a coefficient of x or of y alone stays
    1D for the Stepper to fold into its residual table. tau and a static S_p
    are sampled once, zero where the problem has none; a time-dependent S_p
    once per distinct time, keeping the last `keep_times` used (a DeC step
    asks for the same M+1 sub-times in every sweep).
    """

    def __init__(self, problem: Problem, grid: Grid2D, keep_times: int = 1):
        self.problem = problem
        self.grid = grid
        X, Y = grid.xline[:, None], grid.yline[None, :]
        self.c = np.asarray(problem.coriolis(X, Y), dtype=float) if problem.coriolis else None
        self.f = np.asarray(problem.friction(X, Y), dtype=float) if problem.friction else None
        self._zero = np.zeros(grid.shape)
        self.tau_u, self.tau_v = ((_nodal(a, grid) for a in problem.tau(X, Y)) if problem.tau
                                  else (self._zero, self._zero))
        self.sp_static = None
        if problem.s_p is None:
            self.sp_static = self._zero
        elif problem.steady:
            self.sp_static = _nodal(problem.s_p(X, Y, 0.0), grid)
        self._sp_at = lru_cache(keep_times)(lambda t: _nodal(problem.s_p(X, Y, t), grid))

    def forcing(self, t: float) -> SourceArrays:
        """The sources that do not depend on the state, at time t: (tau_u,
        tau_v, S_p), zero where the problem has none. These are the inputs of
        a ResidualTable that has the Coriolis and friction terms folded in."""
        return SourceArrays(su=self.tau_u, sv=self.tau_v,
                            sp=self._sp_at(t) if self.sp_static is None else self.sp_static)

    def arrays(self, state: State, t: float) -> SourceArrays:
        """All sources of `state` at time t, S_u = c v - f u + tau_u and
        S_v = -c u - f v + tau_v in new arrays when the problem has c or f."""
        src = self.forcing(t)
        c, f = self.c, self.f
        if c is None and f is None:
            return src
        u, v = state.q[:2]
        # rounded in this order
        su, sv = (c * v, -c * u) if c is not None else (-(f * u), -(f * v))
        if c is not None and f is not None:
            su, sv = su - f * u, sv - f * v
        if self.problem.tau is not None:
            su, sv = su + self.tau_u, sv + self.tau_v
        return SourceArrays(su=su, sv=sv, sp=src.sp)


def exact_state(problem: Problem, grid: Grid2D, t: float = 0.0) -> State:
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    X, Y = grid.meshgrid()
    q = np.stack([np.broadcast_to(np.asarray(a, dtype=float), grid.shape)
                  for a in problem.exact(X, Y, t)])
    if not np.isfinite(q).all():
        raise ValueError(f"non-finite exact solution values for {problem.name!r}")
    return State(grid, q)


# --- catalog -----------------------------------------------------------------

def coriolis_vortex(c: float = 0.2, p0: float = 1.0) -> Problem:
    """Steady vortex balanced by a constant Coriolis force on [0,1]^2."""
    if c <= 0:
        raise ValueError("Coriolis coefficient must be positive")
    x0 = y0 = 0.5

    def h(rho2):
        return 20.0 * np.exp(-100.0 * rho2)

    def exact(X, Y, t):
        rho2 = (X - x0) ** 2 + (Y - y0) ** 2
        hh = h(rho2)
        u = -hh * (Y - y0)
        v = hh * (X - x0)
        p = p0 - c * 0.1 * np.exp(-100.0 * rho2)
        return u, v, p

    def du_dx(X, Y):
        rho2 = (X - x0) ** 2 + (Y - y0) ** 2
        return 200.0 * (X - x0) * (Y - y0) * h(rho2)

    def dv_dy(X, Y):
        return -du_dx(X, Y)

    prob = Problem(
        name="coriolis_vortex", box=(0.0, 1.0, 0.0, 1.0), bc="neumann", steady=True,
        exact=exact, coriolis=lambda X, Y: np.full(np.shape(X), c),
        du_dx=du_dx, dv_dy=dv_dy,
    )
    _steady_self_check(prob)
    return prob


def mass_source_steady(a: float = 1.0, b: float = 1.0, p0: float = 1.0,
                       vortex_center: tuple[float, float] = (0.5, 0.5),
                       source_center: tuple[float, float] = (0.65, 0.39)) -> Problem:
    """Steady vortex with a localized mass source: div v = S_p, p constant."""
    x0, y0 = vortex_center
    x1, y1 = source_center

    def parts(X, Y):
        rho2 = (X - x0) ** 2 + (Y - y0) ** 2
        hh = 20.0 * np.exp(-100.0 * rho2)
        g = 0.01 * np.exp(-100.0 * ((X - x1) ** 2 + (Y - y1) ** 2))
        return hh, g

    def exact(X, Y, t):
        hh, g = parts(X, Y)
        u = -a * hh * (Y - y0) - 200.0 * b * (X - x1) * g
        v = a * hh * (X - x0) - 200.0 * b * (Y - y1) * g
        p = np.full(np.shape(X), p0)
        return u, v, p

    def s_p(X, Y, t):
        _, g = parts(X, Y)
        r1sq = (X - x1) ** 2 + (Y - y1) ** 2
        return b * (40000.0 * r1sq - 400.0) * g

    def du_dx(X, Y):
        hh, g = parts(X, Y)
        return (200.0 * a * (X - x0) * (Y - y0) * hh
                + b * (40000.0 * (X - x1) ** 2 - 200.0) * g)

    def dv_dy(X, Y):
        hh, g = parts(X, Y)
        return (-200.0 * a * (X - x0) * (Y - y0) * hh
                + b * (40000.0 * (Y - y1) ** 2 - 200.0) * g)

    prob = Problem(
        name="mass_source_steady", box=(0.0, 1.0, 0.0, 1.0), bc="dirichlet", steady=True,
        exact=exact, s_p=s_p, du_dx=du_dx, dv_dy=dv_dy,
    )
    _steady_self_check(prob)
    return prob


def mass_source_translating(a_vec: tuple[float, float] = (-0.1, 0.1),
                            b: float = 0.001, p0: float = 1.0,
                            source_center: tuple[float, float] = (0.65, 0.39)) -> Problem:
    """Exact translating solution driven by a moving mass source."""
    ax, ay = a_vec
    x1, y1 = source_center

    def exact(X, Y, t):
        xs = X - ax * t - x1
        ys = Y - ay * t - y1
        g = np.exp(-100.0 * (xs ** 2 + ys ** 2))
        gx = -200.0 * xs * g
        gy = -200.0 * ys * g
        return b * gx, b * gy, p0 + b * (ax * gx + ay * gy)

    def s_p(X, Y, t):
        # b (1 - ax^2) g_xx + b (1 - ay^2) g_yy - 2 b ax ay g_xy with g = ex ey: the
        # sum of three products of an X and a Y factor, on the open grid one matmul
        xs = X - ax * t - x1
        ys = Y - ay * t - y1
        ex = np.exp(-100.0 * xs ** 2)
        ey = np.exp(-100.0 * ys ** 2)
        fxx = b * (1.0 - ax * ax) * (40000.0 * xs ** 2 - 200.0) * ex
        fyy = b * (1.0 - ay * ay) * (40000.0 * ys ** 2 - 200.0) * ey
        fxy = -2.0 * b * ax * ay * (-200.0 * xs * ex)
        gy = -200.0 * ys * ey
        if np.ndim(X) == np.ndim(Y) == 2 and X.shape[1] == 1 == Y.shape[0]:
            return np.hstack([fxx, ex, fxy]) @ np.vstack([ey, fyy, gy])
        return fxx * ey + ex * fyy + fxy * gy

    return Problem(
        name="mass_source_translating", box=(0.0, 1.0, 0.0, 1.0), bc="dirichlet",
        steady=False, exact=exact, s_p=s_p,
    )


@dataclass(frozen=True)
class StommelCoefficients:
    lam: float
    b: float
    c0: float
    c1: float
    f: float
    F: float
    alpha: float
    gamma: float
    A: float
    B: float
    k: float
    w: float


def stommel_coefficients(lam: float, b: float, c0: float, c1: float,
                         f: float, F: float) -> StommelCoefficients:
    if f <= 0:
        raise ValueError("friction coefficient must be positive")
    if lam <= 0 or b <= 0:
        raise ValueError(f"box extents lam = {lam:g} and b = {b:g} must be positive")
    alpha = c0 / f
    gamma = F * np.pi / (b * f)
    disc = np.sqrt(alpha * alpha / 4.0 + (np.pi / b) ** 2)
    A = -alpha / 2.0 + disc
    B = -alpha / 2.0 - disc
    if np.isclose(np.exp(A * lam), np.exp(B * lam)):
        raise ValueError("degenerate characteristic roots")
    k = (1.0 - np.exp(B * lam)) / (np.exp(A * lam) - np.exp(B * lam))
    return StommelCoefficients(lam=lam, b=b, c0=c0, c1=c1, f=f, F=F,
                               alpha=alpha, gamma=gamma, A=A, B=B, k=k, w=1.0 - k)


def stommel_gyre(lam: float = 1.0, b: float = 1.0, c0: float = 0.01,
                 c1: float = 0.01, f: float = 0.01, F: float = 0.1) -> Problem:
    """Wind-driven gyre equilibrium with Coriolis, friction and forcing.

    The closed-form pressure assumes the Coriolis variation matches the
    constant part (c1 = c0); anything else fails the steady self-check.
    """
    co = stommel_coefficients(lam, b, c0, c1, f, F)
    A, B, k, w, gamma = co.A, co.B, co.k, co.w, co.gamma
    bop = b / np.pi

    def E(X):
        return k * np.exp(A * X) + w * np.exp(B * X)

    def Ep(X):
        return k * A * np.exp(A * X) + w * B * np.exp(B * X)

    def exact(X, Y, t):
        cosy = np.cos(np.pi * Y / b)
        siny = np.sin(np.pi * Y / b)
        u = gamma * bop * cosy * (E(X) - 1.0)
        v = -gamma * bop ** 2 * siny * Ep(X)
        c_xy = c1 * Y + c0
        p = (-F * (k / A * np.exp(A * X) + w / B * np.exp(B * X))
             - F * bop ** 2 * Ep(X) * (cosy - 1.0)
             - (c_xy * gamma * bop ** 2 * siny
                + gamma * c0 * bop ** 3 * (cosy - 1.0)) * (E(X) - 1.0))
        return u, v, p

    def du_dx(X, Y):
        return gamma * bop * np.cos(np.pi * Y / b) * Ep(X)

    def dv_dy(X, Y):
        return -du_dx(X, Y)

    prob = Problem(
        name="stommel_gyre", box=(0.0, lam, 0.0, b), bc="dirichlet", steady=True,
        exact=exact,
        coriolis=lambda X, Y: c1 * Y + c0,
        friction=lambda X, Y: np.full(np.shape(X), f),
        tau=lambda X, Y: (-F * np.cos(np.pi * Y / b), np.zeros(np.shape(X))),
        du_dx=du_dx, dv_dy=dv_dy,
    )
    _steady_self_check(prob, note="" if c1 == c0 else
                       " (c1 != c0: the closed-form pressure is only valid for c1 = c0)")
    return prob


def pressure_perturbation(eps: float, center: tuple[float, float] = (0.4, 0.43),
                          r0: float = 0.1) -> Callable:
    """Compactly supported pressure bump, delta(center) = eps, zero for rho >= r0."""
    if r0 <= 0:
        raise ValueError("perturbation radius must be positive")
    cx, cy = center

    def delta_p(X, Y):
        rho = np.hypot(np.asarray(X, dtype=float) - cx, np.asarray(Y, dtype=float) - cy)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.zeros_like(rho)
        inside = rho < r0
        out[inside] = eps * np.exp(-0.5 / (1.0 - rho[inside] / r0) ** 2 + 0.5)
        return float(out[0]) if scalar else out

    return delta_p


CATALOG = {
    "coriolis_vortex": coriolis_vortex,
    "mass_source_steady": mass_source_steady,
    "mass_source_translating": mass_source_translating,
    "stommel_gyre": stommel_gyre,
}


def make_problem(name: str, **params) -> Problem:
    try:
        factory = CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; have {sorted(CATALOG)}") from None
    return factory(**params)


def _steady_self_check(prob: Problem, n: int = 100, tol: float = 1e-6,
                       step: float = 1e-5, note: str = "") -> None:
    """Finite-difference check of the steady constraints at R2 low-discrepancy points."""
    x0, xe, y0, ye = prob.box
    margin, g, i = 4 * step, 1.324717957244746, np.arange(1, n + 1)  # g: plastic number
    X = x0 + margin + (xe - x0 - 2 * margin) * ((0.5 + i / g) % 1.0)
    Y = y0 + margin + (ye - y0 - 2 * margin) * ((0.5 + i / g ** 2) % 1.0)

    def at(XX, YY):
        return prob.exact(XX, YY, 0.0)

    u, v, _ = at(X, Y)
    dpdx = (at(X + step, Y)[2] - at(X - step, Y)[2]) / (2 * step)
    dpdy = (at(X, Y + step)[2] - at(X, Y - step)[2]) / (2 * step)
    dudx = (at(X + step, Y)[0] - at(X - step, Y)[0]) / (2 * step)
    dvdy = (at(X, Y + step)[1] - at(X, Y - step)[1]) / (2 * step)

    c = prob.coriolis(X, Y) if prob.coriolis else 0.0
    f = prob.friction(X, Y) if prob.friction else 0.0
    tu, tv = prob.tau(X, Y) if prob.tau else (0.0, 0.0)
    sp = prob.s_p(X, Y, 0.0) if prob.s_p else 0.0

    res = max(
        np.abs(dpdx - (c * v - f * u + tu)).max(),
        np.abs(dpdy - (-c * u - f * v + tv)).max(),
        np.abs(dudx + dvdy - sp).max(),
    )
    if res > tol:
        raise ValueError(
            f"{prob.name}: steady-state self-check failed, residual {res:.3e}{note}")
    if prob.du_dx is not None:
        res_d = max(np.abs(prob.du_dx(X, Y) - dudx).max(),
                    np.abs(prob.dv_dy(X, Y) - dvdy).max())
        if res_d > tol:
            raise ValueError(
                f"{prob.name}: analytic derivative fields disagree with finite "
                f"differences by {res_d:.3e}")
