"""Benchmark problem definitions: source coefficients, analytic equilibria and
exact unsteady solutions.

Momentum sources follow S_v = c*vperp - f*v + tau with vperp = (v, -u):
a Coriolis term, friction and an external forcing. Gradients and Laplacians
of all Gaussian profiles are supplied in closed form so nodal source data is
not polluted by differencing error. Steady problems run a finite-difference
self-check of the equilibrium at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gf import SourceArrays
from .grid import Field, Grid2D, State


@dataclass
class Problem:
    name: str
    box: tuple[float, float, float, float]
    bc: str                       # 'neumann' | 'dirichlet' | 'periodic'
    steady: bool
    exact: Optional[Callable] = None       # (X, Y, t) -> (u, v, p)
    coriolis: Optional[Callable] = None    # (X, Y) -> c
    friction: Optional[Callable] = None    # (X, Y) -> f
    tau: Optional[Callable] = None         # (X, Y) -> (tau_u, tau_v)
    s_p: Optional[Callable] = None         # (X, Y, t) -> S_p
    du_dx: Optional[Callable] = None       # steady analytic d(u_e)/dx
    dv_dy: Optional[Callable] = None       # steady analytic d(v_e)/dy
    params: dict = field(default_factory=dict)

    @property
    def autonomous(self) -> bool:
        """True when no source depends on time (S_p absent or static)."""
        return self.s_p is None or self.steady


class SourceEval:
    """Nodal source evaluation bound to one grid.

    Coefficient fields are sampled once; S_u, S_v are re-evaluated from the
    current state at every call. A static S_p is sampled once; a
    time-dependent one once per distinct time, of which the last
    `keep_times` are kept (a DeC step asks for the same M+1 sub-times in
    every sweep).
    """

    def __init__(self, problem: Problem, grid: Grid2D, keep_times: int = 1):
        self.problem = problem
        self.grid = grid
        X, Y = grid.meshgrid()
        self._XY = (X, Y)
        self.c = np.asarray(problem.coriolis(X, Y), dtype=float) if problem.coriolis else None
        self.f = np.asarray(problem.friction(X, Y), dtype=float) if problem.friction else None
        if problem.tau is not None:
            tu, tv = problem.tau(X, Y)
            self.tau_u = np.broadcast_to(np.asarray(tu, dtype=float), grid.shape)
            self.tau_v = np.broadcast_to(np.asarray(tv, dtype=float), grid.shape)
        else:
            self.tau_u = self.tau_v = None
        self._zero = np.zeros(grid.shape)
        self.sp_static = None
        if problem.s_p is None:
            self.sp_static = self._zero
        elif problem.steady:
            self.sp_static = np.asarray(problem.s_p(X, Y, 0.0), dtype=float)
        self.keep_times = keep_times
        self._sp_by_time: dict[float, np.ndarray] = {}

    def _sp_at(self, t: float) -> np.ndarray:
        if t not in self._sp_by_time:
            if len(self._sp_by_time) >= self.keep_times:
                del self._sp_by_time[next(iter(self._sp_by_time))]
            self._sp_by_time[t] = np.asarray(self.problem.s_p(*self._XY, t), dtype=float)
        return self._sp_by_time[t]

    def arrays(self, state: State, t: float) -> SourceArrays:
        su = sv = None
        u, v = state.u.values, state.v.values
        if self.c is not None:
            su = self.c * v
            sv = -self.c * u
        if self.f is not None:
            fu, fv = self.f * u, self.f * v
            su = -fu if su is None else su - fu
            sv = -fv if sv is None else sv - fv
        if self.tau_u is not None:
            su = self.tau_u if su is None else su + self.tau_u
            sv = self.tau_v if sv is None else sv + self.tau_v
        sp = self._sp_at(t) if self.sp_static is None else self.sp_static
        return SourceArrays(su=self._zero if su is None else su,
                            sv=self._zero if sv is None else sv, sp=sp)


def exact_state(problem: Problem, grid: Grid2D, t: float = 0.0) -> State:
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    X, Y = grid.meshgrid()
    u, v, p = problem.exact(X, Y, t)

    def fld(a):
        a = np.broadcast_to(np.asarray(a, dtype=float), grid.shape).copy()
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite exact solution values for {problem.name!r}")
        return Field(grid, a)

    return State(fld(u), fld(v), fld(p))


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
        du_dx=du_dx, dv_dy=dv_dy, params={"c": c, "p0": p0},
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
        params={"a": a, "b": b, "p0": p0},
    )
    _steady_self_check(prob)
    return prob


def mass_source_translating(a_vec: tuple[float, float] = (-0.1, 0.1),
                            b: float = 0.001, p0: float = 1.0,
                            source_center: tuple[float, float] = (0.65, 0.39)) -> Problem:
    """Exact translating solution driven by a moving mass source."""
    ax, ay = a_vec
    x1, y1 = source_center

    def gderivs(X, Y, t):
        xs = X - ax * t - x1
        ys = Y - ay * t - y1
        g = np.exp(-100.0 * (xs ** 2 + ys ** 2))
        gx = -200.0 * xs * g
        gy = -200.0 * ys * g
        gxx = (40000.0 * xs ** 2 - 200.0) * g
        gyy = (40000.0 * ys ** 2 - 200.0) * g
        gxy = 40000.0 * xs * ys * g
        return gx, gy, gxx, gyy, gxy

    def exact(X, Y, t):
        gx, gy, _, _, _ = gderivs(X, Y, t)
        return b * gx, b * gy, p0 + b * (ax * gx + ay * gy)

    def s_p(X, Y, t):
        _, _, gxx, gyy, gxy = gderivs(X, Y, t)
        adv = ax * ax * gxx + 2.0 * ax * ay * gxy + ay * ay * gyy
        return b * (gxx + gyy) - b * adv

    return Problem(
        name="mass_source_translating", box=(0.0, 1.0, 0.0, 1.0), bc="dirichlet",
        steady=False, exact=exact, s_p=s_p,
        params={"a_vec": list(a_vec), "b": b, "p0": p0},
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
        coriolis=lambda X, Y: c1 * Y + c0 + 0.0 * X,
        friction=lambda X, Y: np.full(np.shape(X), f),
        tau=lambda X, Y: (-F * np.cos(np.pi * Y / b), np.zeros(np.shape(X))),
        du_dx=du_dx, dv_dy=dv_dy,
        params={"lam": lam, "b": b, "c0": c0, "c1": c1, "f": f, "F": F},
    )
    _steady_self_check(prob, note="" if c1 == c0 else
                       " (c1 != c0: the closed-form pressure is only valid for c1 = c0)")
    prob.params["coefficients"] = co
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
                       step: float = 1e-5, seed: int = 20240817, note: str = "") -> None:
    """Finite-difference check of the steady constraints at random points."""
    rng = np.random.default_rng(seed)
    x0, xe, y0, ye = prob.box
    margin = 4 * step
    X = rng.uniform(x0 + margin, xe - margin, n)
    Y = rng.uniform(y0 + margin, ye - margin, n)

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
