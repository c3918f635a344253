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

A step allocates nothing but the state it returns: its stages, residuals
and scratch live in a DeCWorkspace that the Stepper keeps, and each
residual is added to the sweep's accumulators tile by tile as it is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .basis import OperatorSet1D, gauss_lobatto_rule, integral_block, neumann_closure
from .grid import Grid2D, State
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


class DeCWorkspace:
    """The buffers of DeC steps on states of one shape, allocated once as
    one block: the start residual `r0`, a scratch state and two sets of M
    stage buffers that the sweeps use in turn, each sweep's accumulators
    becoming its stages. The last sweep uses sets[0], whose stage-M buffer
    is the state the step returns: each step puts a new array there. The
    start state is the caller's, read in place."""

    def __init__(self, shape: tuple[int, ...], M: int):
        block = np.empty((1 + 2 * M, *shape))
        self.r0, self.scratch = block[:2]
        self.sets = [list(block[2:1 + M]) + [None], list(block[1 + M:])]


def dec_sweeps(residual: Callable, correct: Callable, ws: DeCWorkspace, q0: np.ndarray,
               sub_t: list[float], cfg: DeCConfig, reuse_first: bool = False) -> np.ndarray:
    """The DeC corrector, cfg.kappa sweeps from q0; returns the last stage,
    a new array.

    States stack the unknowns along their first axis. residual(q, t, out)
    writes the residual of q to `out`; residual(q, t, add=[(c, a), ...])
    adds c times it to each array a. A sweep accumulates the theta-weighted
    residuals of the previous sweep's stages, one buffer per sub-node
    m >= 1, as acc += theta * res; correct(m, buffer, q^m, first_sweep)
    turns the buffer into the new stage in place. The last sweep forms
    stage M only. With `reuse_first` the first sweep takes its stage
    residuals equal to the start residual.
    """
    theta, M, kappa = cfg.theta, cfg.M, cfg.kappa
    # the array this step returns, made before any other: it takes the room
    # of the states the caller has let go
    ws.sets[0][M - 1] = np.empty_like(q0)
    r0 = residual(q0, sub_t[0], out=ws.r0)
    stages = [q0] * (M + 1)
    for sweep in range(kappa):
        acc = ws.sets[(kappa - 1 - sweep) % 2]
        ms = range(1, M + 1) if sweep < kappa - 1 else [M]  # only stage M is returned
        for m in ms:
            np.multiply(theta[m, 0], r0, out=acc[m - 1])
        for r in range(1, M + 1):
            add = [(theta[m, r], acc[m - 1]) for m in ms]
            if sweep == 0 and reuse_first:
                tmp = ws.sets[kappa % 2][0]  # the stages are q0: the other set is idle
                for c, a in add:
                    np.add(a, np.multiply(c, r0, out=tmp), out=a)
            else:
                residual(stages[r], sub_t[r], add=add)
        for m in ms:
            correct(m, acc[m - 1], stages[m], sweep == 0)
        stages = [q0] + acc
    return stages[M]


def dec_ode_step(F: Callable, q0, t: float, dt: float, cfg: DeCConfig):
    """One DeC step of q' + F(q, t) = 0 for a plain ODE (same engine core)."""
    q0 = np.asarray(q0, dtype=float)
    flat = q0.reshape(1, -1)
    ws = DeCWorkspace(flat.shape, cfg.M)

    def correct(m, acc, qm, first):
        acc *= dt
        np.subtract(flat, acc, out=acc)

    def residual(q, s, out=None, add=()):
        f = np.asarray(F(q.reshape(q0.shape), s), dtype=float).reshape(1, -1)
        if out is not None:
            out[...] = f
        for c, a in add:
            a += c * f
        return out

    sub_t = [t + b * dt for b in cfg.beta]
    return dec_sweeps(residual, correct, ws, flat, sub_t, cfg).reshape(q0.shape)


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
        no_suv = not (problem.coriolis or problem.friction or problem.tau)
        self.table = ResidualTable(ops_x, ops_y, scheme,  # drop the zero sources' terms
                                   absent=(3, 4) * no_suv + (5,) * (problem.s_p is None))
        self.minv = 1.0 / np.outer(ops_x.mass_diag, ops_y.mass_diag)
        self.dt = self.dec.cfl * grid.h  # unit wave speed
        self.residual_evals = self.steps = 0

    # The step buffers are made at first use, after any set-up the caller
    # runs between building the Stepper and stepping (a projection, say).
    @cached_property
    def work(self) -> DeCWorkspace:
        return DeCWorkspace((3, *self.grid.shape), self.dec.M)

    @cached_property
    def _suv(self) -> tuple[np.ndarray, np.ndarray]:  # S_u and S_v of a residual
        return np.empty(self.grid.shape), np.empty(self.grid.shape)

    def _residual(self, q: np.ndarray, t: float, out: np.ndarray | None = None, add=()):
        self.residual_evals += 1
        state = State(self.grid, q)
        return spatial_residual(state, self.sources.arrays(state, t, out=self._suv),
                                self.ops_x, self.ops_y, self.scheme,
                                table=self.table, out=out, add=add)

    def step(self, state: State, t: float, dt: float | None = None) -> State:
        """One DeC step from `state` at t, whose q it reads in place and never
        writes; the returned state is a new array, everything else lives in
        the Stepper's workspace."""
        dt = self.dt if dt is None else dt
        sub_t = [t + b * dt for b in self.dec.beta]
        exact = self.problem.exact if self.problem.bc == "dirichlet" else None
        if exact is not None:
            rings = [None] + [boundary_values(self.grid, exact, s) for s in sub_t[1:]]
        ws, time, q0 = self.work, self.table.time, state.q

        def correct(m, acc, qm, first):
            acc *= dt
            if time is not None and not first:  # first sweep: q^m - q^0 = 0
                time.apply(np.subtract(qm, q0, out=ws.scratch), add=[(1.0, acc)])
            for a in acc:  # one field at a time: broadcasting would buffer
                np.multiply(self.minv, a, out=a)
            np.subtract(q0, acc, out=acc)
            if exact is not None:
                pin_dirichlet(State(self.grid, acc), exact, sub_t[m], rings[m])

        self.steps += 1
        q = dec_sweeps(self._residual, correct, ws, q0, sub_t, self.dec,
                       reuse_first=self.problem.autonomous)
        return State(self.grid, q)

    def run(self, state: State, T: float, t0: float = 0.0,
            callback: Optional[Callable] = None,
            callback_every: int = 1) -> tuple[State, float]:
        """Fixed-step loop from t0 to t0 + T, shortening the last step to land
        exactly on the final time. The callback receives (step, t, state)."""
        if not 0 < T < np.inf:
            raise ValueError(f"final time {T!r} must be positive and finite")
        t = t0
        t_end = t0 + T
        if callback is not None:
            callback(0, t, state)
        step = 0
        while t < t_end - 1e-14 * max(1.0, abs(t_end)):
            dt = min(self.dt, t_end - t)
            previous = state  # the state before the step, and no older one, stays alive
            state = self.step(previous, t, dt)
            step += 1
            t = t0 + step * self.dt if dt == self.dt else t_end
            if not np.isfinite(state.q).all():
                raise BlowUpError(step, t, state, previous)
            if callback is not None and (step % callback_every == 0 or t >= t_end):
                callback(step, t, state)
        return state, t

