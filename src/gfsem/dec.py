"""Explicit deferred-correction time stepping.

The corrector couples a high-order LobattoIIIA-in-time quadrature of the
spatial residual with a mass-lumped, stabilization-free forward-Euler
predictor. Because the predictor terms at the frozen initial sub-state cancel
between consecutive sweeps and the tensor mass matrix is diagonal, each sweep
reduces to the explicit update

    q^m <- q^0 - [dt * sum_r theta[m,r] * r(q^r, t^r) + tau(q^m - q^0)]

where r = M^-1 R, R the full weak spatial residual (Galerkin plus
stabilization space part) of the previous iterate, and tau = M^-1 T, T the SU
terms on the sub-step increment: the Stepper's tables fold M^-1 in.

A sweep stores [r^0; r(q^1) ... r(q^M)] and, for SU, tau(q^m - q^0) in stage
m's own buffer, then forms all new stages with one small product of
[dt * theta | I] against these rows and one subtraction from q^0, chunk by
cache-sized chunk of the flattened state.

The first sweep starts from q^m = q^0, so its SU increment is zero and
skipped. When the problem is autonomous (S_p absent or static), its stage
residuals all equal r^0 and are not re-evaluated: a step costs
1 + (kappa-1)*M residuals instead of 1 + kappa*M. A step allocates nothing
but the state it returns, which holds the SU increments until the last sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .basis import OperatorSet1D, gauss_lobatto_rule, integral_block, neumann_closure
from .grid import Grid2D, State
from .problems import Problem, SourceEval
from .schemes import (ResidualTable, SchemeConfig, dirichlet_ring, pin_dirichlet,
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


# Entries of the flattened state per chunk of a sweep's stage product: its
# 2M + 1 input rows and M product rows stay in a core's 2 MB L2 for M <= 3.
_CHUNK = 8192
# Stepper.run takes no final step shorter than LANDING_TOL * max(1, |t_end|)
LANDING_TOL = 1e-14


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
    """The buffers of DeC steps on states of one shape, allocated once as one
    block: `res` holds the start residual r^0 and the stage residuals
    r(q^1) .. r(q^M) of a sweep, `stages` the stages q^1 .. q^M, which each
    sweep overwrites with its new ones; `coef`, a sweep's coefficients on
    them, has dt * theta on `res` and ones on the stages' own SU terms; `acc`
    takes their product on one chunk, which is then subtracted from q^0. The
    start state is the caller's, read in place."""

    def __init__(self, shape: tuple[int, ...], M: int):
        self.block = np.empty((2 * M + 1, *shape))
        self.res, self.stages = self.block[:M + 1], self.block[M + 1:]
        self.acc = np.empty((M, min(_CHUNK, self.block[0].size)))
        self.coef = np.hstack([np.zeros((M, M + 1)), np.eye(M)])


def dec_sweeps(residual: Callable, ws: DeCWorkspace, q0: np.ndarray, sub_t: list[float],
               cfg: DeCConfig, dt: float, time: Callable | None = None,
               pin: Callable | None = None, reuse_first: bool = False) -> np.ndarray:
    """The DeC corrector: cfg.kappa sweeps from q0; returns stage M, a new array.

    residual(q, t, out) writes r(q, t) = M^-1 R(q, t) to `out`, time(d, out)
    the SU term M^-1 T(d). A sweep stores the residuals of the previous
    sweep's stages, each stage then taking its SU term of q^m - q^0 into its
    own buffer, and forms its new stages; pin(q^m, t^m) imposes boundary data
    in place. The last sweep forms stage M only. With `reuse_first` the first
    sweep takes its stage residuals equal to r^0.
    """
    theta, M, kappa = cfg.theta, cfg.M, cfg.kappa
    # the array this step returns, made before any other: it takes the room
    # of the states the caller has let go
    out = np.empty_like(q0)
    res, stages, n = ws.res, ws.stages, q0.size
    q0f, rows = q0.reshape(-1), ws.block.reshape(2 * M + 1, -1)  # rows [res; stages]
    residual(q0, sub_t[0], out=res[0])
    for sweep in range(kappa):
        first, last = sweep == 0, sweep == kappa - 1
        m0 = M if last else 1  # the sweep forms stages m0 .. M
        with_time = time is not None and not first  # first sweep: q^m - q^0 = 0
        if first and reuse_first:
            coef = dt * theta[m0:].sum(axis=1, keepdims=True)
        else:
            np.multiply(dt, theta[m0:], out=ws.coef[m0 - 1:, :M + 1])
            coef = ws.coef[m0 - 1:, :None if with_time else M + 1]
            for r in range(1, M + 1):
                qr = q0 if first else stages[r - 1]
                residual(qr, sub_t[r], out=res[r])
                if with_time and r >= m0:  # q^r is spent: its buffer takes its SU term
                    time(np.subtract(qr, q0, out=out), out=qr)
        k, j = coef.shape
        new = out.reshape(1, -1) if last else rows[M + 1:]
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            acc = ws.acc[:k, :b - a]
            # a product with one inner term runs on numpy's slow matmul path
            (np.multiply if j == 1 else np.matmul)(coef, rows[:j, a:b], out=acc)
            np.subtract(q0f[a:b], acc, out=new[:, a:b])
        if pin is not None:
            for m in range(m0, M + 1):
                pin(out if last else stages[m - 1], sub_t[m])
    return out


class Stepper:
    """DeC time integration of one residual scheme on one grid; counts the
    steps and residual evaluations it makes. On a Dirichlet problem it pins
    each formed stage's boundary ring to the exact solution with one flat
    write, through the ring's flat index made once."""

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
            ops_x, ops_y = neumann_closure(ops_x), neumann_closure(ops_y)
        self.ops_x, self.ops_y, self.scheme = ops_x, ops_y, scheme
        self.dec = dec or DeCConfig.for_degree(grid.K)
        src = self.sources = SourceEval(problem, grid, keep_times=self.dec.M + 1)
        # M^-1 (L q - b(t)): c, f folded into L, M^-1 into the factors; b omits zero sources
        zero = [s for s, a in enumerate((src.tau_u, src.tau_v, src.sp_static), 3)
                if a is not None and not a.any()]
        self.table = ResidualTable(ops_x, ops_y, scheme, coriolis=src.c, friction=src.f,
                                   absent=zero, scale=(1 / ops_x.mass_diag, 1 / ops_y.mass_diag))
        # Dirichlet data goes to the boundary ring's flat indices: the exact
        # values at its nodes, kept for the M sub-times a step pins
        self.ring = None
        if problem.bc == "dirichlet":
            self.ring, X, Y = dirichlet_ring(grid)
            self.ring_values = lru_cache(self.dec.M)(lambda t: np.concatenate(
                [np.broadcast_to(a, X.shape) for a in problem.exact(X, Y, t)]))
        self.minv = 1.0 / np.outer(ops_x.mass_diag, ops_y.mass_diag)
        self.dt = self.dec.cfl * grid.h  # unit wave speed
        self.residual_evals = self.steps = 0

    # The step buffers are made at first use, after any set-up the caller
    # runs between building the Stepper and stepping (a projection, say).
    @cached_property
    def work(self) -> DeCWorkspace:
        return DeCWorkspace((3, *self.grid.shape), self.dec.M)

    def _residual(self, q: np.ndarray, t: float, out: np.ndarray):
        self.residual_evals += 1
        spatial_residual(State(self.grid, q), self.sources.forcing(t), self.ops_x, self.ops_y,
                         self.scheme, table=self.table, out=out)

    def _pin(self, q: np.ndarray, t: float):
        """Pin stage q at sub-time t; a steady problem's ring data is that of t = 0."""
        pin_dirichlet(q, self.ring, self.ring_values(0.0 if self.problem.steady else t))

    def step(self, state: State, t: float, dt: float | None = None) -> State:
        """One DeC step from `state` at t, whose q it reads in place and never
        writes; the returned state is a new array, everything else lives in
        the Stepper's workspace. A Dirichlet problem pins each formed stage."""
        dt = self.dt if dt is None else dt
        self.steps += 1
        q = dec_sweeps(self._residual, self.work, state.q, [t + b * dt for b in self.dec.beta],
                       self.dec, dt, time=self.table.time and self.table.time.apply,
                       pin=None if self.ring is None else self._pin,
                       reuse_first=self.problem.autonomous)
        return State(self.grid, q)

    def run(self, state: State, T: float, t0: float = 0.0,
            callback: Optional[Callable] = None,
            callback_every: int = 1) -> tuple[State, float]:
        """Fixed-step loop from t0 to t0 + T, shortening the last step to land
        exactly on the final time. The callback receives (step, t, state) at
        step 0, every callback_every steps and at the last step."""
        t, t_end, step = t0, t0 + T, 0
        tol = LANDING_TOL * max(1.0, abs(t_end))
        if not tol < T < np.inf:
            raise ValueError(f"final time {T!r} must be positive and finite, above {tol:.3g}")
        if callback is not None:
            callback(0, t, state)
        while t < t_end - tol:
            # the step's last sub-time t + 1.0 * (t_next - t) is t_next once t >= dt
            t_next = min(t0 + (step + 1) * self.dt, t_end)
            previous = state  # the state before the step, and no older one, stays alive
            state = self.step(previous, t, t_next - t)
            step += 1
            t = t_next
            if not np.isfinite(state.q).all():
                raise BlowUpError(step, t, state, previous)
            if callback is not None and (step % callback_every == 0 or t >= t_end - tol):
                callback(step, t, state)
        return state, t

