"""Explicit deferred-correction time stepping.

The corrector couples a high-order LobattoIIIA-in-time quadrature of the
spatial residual with a mass-lumped, stabilization-free forward-Euler
predictor. Because the predictor terms at the frozen initial sub-state cancel
between consecutive sweeps and the tensor mass matrix is diagonal, each sweep
reduces to the explicit update

    q^m <- q^0 - Minv * [dt * sum_r theta[m,r] * R(q^r, t^r) + T(q^m - q^0)]

where R is the full weak spatial residual (Galerkin plus stabilization space
part) of the previous iterate and T the SU terms multiplying the sub-step
increment.

The first sweep starts from q^m = q^0 for all m, so its SU increment
T(q^m - q^0) is zero and skipped. When the problem is autonomous (S_p absent
or static, so R does not depend on t), its stage residuals R(q^0, t^m) all
equal the start residual and are not re-evaluated: a step then costs
1 + (kappa-1)*M residuals instead of 1 + kappa*M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .basis import OperatorSet1D, gauss_lobatto_rule, integral_block, neumann_closure
from .grid import Field, Grid2D, State
from .problems import Problem, SourceEval
from .schemes import (ResidualTable, SchemeConfig, boundary_values, pin_dirichlet,
                      spatial_residual)


class BlowUpError(RuntimeError):
    """A non-finite state after `step`: names the first non-finite field
    (u, v, p), the (x, y) coordinates of its first non-finite node and the
    largest |value| of that field in the last finite state, one step before."""

    def __init__(self, step: int, t: float, state: State, previous: State):
        self.step, self.t = step, t
        self.field, q, q_prev = next((n, a, b) for n, a, b in zip(
            "uvp", state.arrays(), previous.arrays()) if not np.isfinite(a).all())
        i, j = np.argwhere(~np.isfinite(q))[0]
        self.node = x, y = float(state.grid.xline[i]), float(state.grid.yline[j])
        self.last_max = float(np.abs(q_prev).max())
        super().__init__(f"non-finite {self.field} at step {step}, t = {t:.6g}, node (x, y) = "
                         f"({x:.6g}, {y:.6g}); largest |{self.field}| one step before: "
                         f"{self.last_max:.6g}")


def default_cfl(K: int) -> float:
    return 0.1 if K <= 5 else 1.0 / (2.0 * (2.0 * K + 1.0))


def dec_coefficients(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sub-node fractions beta[m] and weights theta[m, r] on the unit interval.

    theta is the LobattoIIIA tableau of the degree-M Gauss-Lobatto rule:
    theta[m, r] = integral over [0, beta_m] of the r-th cardinal polynomial,
    so theta[0] = 0 and the last row sums to one.
    """
    if M < 1:
        raise ValueError("need at least one sub-interval")
    rule = gauss_lobatto_rule(M)
    return rule.nodes.copy(), integral_block(rule)


@dataclass
class DeCConfig:
    M: int                     # sub-intervals (M+1 Gauss-Lobatto sub-nodes)
    kappa: int                 # correction sweeps
    cfl: float
    beta: np.ndarray = field(repr=False, default=None)
    theta: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.beta is None:
            self.beta, self.theta = dec_coefficients(self.M)

    @classmethod
    def for_degree(cls, K: int, cfl: float | None = None) -> "DeCConfig":
        # smallest M with 2M >= K+1; K+1 sweeps give space-time order K+1
        M = max(1, (K + 2) // 2)
        return cls(M=M, kappa=K + 1, cfl=default_cfl(K) if cfl is None else cfl)


def dec_sweeps(residual: Callable, correct: Callable, q0: np.ndarray,
               sub_t: list[float], cfg: DeCConfig, reuse_first: bool = False) -> np.ndarray:
    """The DeC corrector, cfg.kappa sweeps from q0; returns the last stage.

    q0 stacks the unknowns along its first axis and residual(q, t) returns an
    array of its shape. A sweep accumulates the theta-weighted residuals of
    the previous sweep's stages stage by stage, one buffer per sub-node m >= 1;
    correct(m, buffer, q^m, first_sweep) turns the buffer into the new stage
    and may reuse it. With `reuse_first` the first sweep takes its stage
    residuals equal to the start residual.
    """
    theta, M = cfg.theta, cfg.M
    r0 = residual(q0, sub_t[0])
    stages = [q0] * (M + 1)
    for sweep in range(cfg.kappa):
        acc = [theta[m, 0] * r0 for m in range(1, M + 1)]
        for r in range(1, M + 1):
            res = r0 if sweep == 0 and reuse_first else residual(stages[r], sub_t[r])
            for m in range(1, M + 1):
                acc[m - 1] += theta[m, r] * res
        stages = [q0] + [correct(m, acc[m - 1], stages[m], sweep == 0)
                         for m in range(1, M + 1)]
    return stages[M]


def dec_ode_step(F: Callable, q0, t: float, dt: float, cfg: DeCConfig):
    """One DeC step of q' + F(q, t) = 0 for a plain ODE (same engine core)."""
    q0 = np.asarray(q0, dtype=float)
    flat = q0.reshape(1, -1)

    def correct(m, acc, qm, first):
        acc *= dt
        return np.subtract(flat, acc, out=acc)

    def residual(q, s):
        return np.asarray(F(q.reshape(q0.shape), s), dtype=float).reshape(1, -1)

    sub_t = [t + b * dt for b in cfg.beta]
    return dec_sweeps(residual, correct, flat, sub_t, cfg).reshape(q0.shape)


class Stepper:
    """DeC time integration of one residual scheme on one grid; counts the
    steps and residual evaluations it makes."""

    def __init__(self, problem: Problem, grid: Grid2D,
                 ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                 scheme: SchemeConfig, dec: Optional[DeCConfig] = None):
        if scheme.formulation == "gf" and grid.periodic:
            raise ValueError("global-flux quadrature is not defined on periodic grids")
        if problem.bc == "dirichlet" and problem.exact is None:
            raise ValueError("dirichlet boundary conditions need an exact solution")
        self.problem, self.grid = problem, grid
        # homogeneous Neumann is realized as a mirror-extension closure of the
        # operator assembly; the one-sided rows are long-time unstable
        if problem.bc == "neumann":
            ops_x = neumann_closure(ops_x)
            ops_y = neumann_closure(ops_y)
        self.ops_x, self.ops_y, self.scheme = ops_x, ops_y, scheme
        self.dec = dec or DeCConfig.for_degree(grid.K)
        self.sources = SourceEval(problem, grid, keep_times=self.dec.M + 1)
        self.table = ResidualTable(ops_x, ops_y, scheme)
        self.minv = 1.0 / np.outer(ops_x.mass_diag, ops_y.mass_diag)
        self.dt = self.dec.cfl * grid.h  # unit wave speed
        self.residual_evals = self.steps = 0

    def _state(self, q: np.ndarray) -> State:
        return State(Field(self.grid, q[0]), Field(self.grid, q[1]), Field(self.grid, q[2]))

    def _residual(self, q: np.ndarray, t: float):
        self.residual_evals += 1
        state = self._state(q)
        src = self.sources.arrays(state, t)
        return spatial_residual(state, src, self.ops_x, self.ops_y, self.scheme,
                                table=self.table)

    def step(self, state: State, t: float, dt: float | None = None) -> State:
        dt = self.dt if dt is None else dt
        sub_t = [t + b * dt for b in self.dec.beta]
        exact = self.problem.exact if self.problem.bc == "dirichlet" else None
        if exact is not None:
            rings = [None] + [boundary_values(self.grid, exact, s) for s in sub_t[1:]]
        q0 = np.stack(state.arrays())

        def correct(m, acc, qm, first):
            acc *= dt
            if self.table.time is not None and not first:  # first sweep: q^m - q^0 = 0
                acc += self.table.time.apply(qm - q0)
            np.multiply(self.minv, acc, out=acc)
            np.subtract(q0, acc, out=acc)
            if exact is not None:
                pin_dirichlet(self._state(acc), exact, sub_t[m], rings[m])
            return acc

        self.steps += 1
        q = dec_sweeps(self._residual, correct, q0, sub_t, self.dec,
                       reuse_first=self.problem.autonomous)
        return self._state(q)

    def run(self, state: State, T: float, t0: float = 0.0,
            callback: Optional[Callable] = None,
            callback_every: int = 1) -> tuple[State, float]:
        """Fixed-step loop from t0 to t0 + T, shortening the last step to land
        exactly on the final time. The callback receives (step, t, state)."""
        if T <= 0:
            raise ValueError("final time must be positive")
        t = t0
        t_end = t0 + T
        state = state.copy()
        if callback is not None:
            callback(0, t, state)
        step = 0
        while t < t_end - 1e-14 * max(1.0, abs(t_end)):
            dt = min(self.dt, t_end - t)
            previous, state = state, self.step(state, t, dt)
            step += 1
            t = t0 + step * self.dt if dt == self.dt else t_end
            if not all(np.isfinite(a).all() for a in state.arrays()):
                raise BlowUpError(step, t, state, previous)
            if callback is not None and (step % callback_every == 0 or t >= t_end):
                callback(step, t, state)
        return state, t


def run(problem: Problem, grid: Grid2D, ops_x: OperatorSet1D, ops_y: OperatorSet1D,
        scheme: SchemeConfig, state: State, T: float,
        dec: Optional[DeCConfig] = None, callback: Optional[Callable] = None,
        callback_every: int = 1) -> tuple[State, float]:
    stepper = Stepper(problem, grid, ops_x, ops_y, scheme, dec)
    return stepper.run(state, T, callback=callback, callback_every=callback_every)
