"""Tensor-product 2D grid, nodal fields, quadrature weights and norms.

Field values are stored as a single (K*Nx+1) x (K*Ny+1) array with row index
running over x-nodes and column index over y-nodes; interface nodes between
cells are shared, so continuity is structural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import OperatorSet1D, build_operator_set


@dataclass(frozen=True)
class Grid2D:
    """Cartesian tensor mesh of Nx x Ny cells with degree-K nodes per cell."""

    Nx: int
    Ny: int
    K: int
    box: tuple[float, float, float, float]  # (x0, xe, y0, ye)
    periodic: bool
    xline: np.ndarray
    yline: np.ndarray

    @property
    def dx(self) -> float:
        x0, xe, _, _ = self.box
        return (xe - x0) / self.Nx

    @property
    def dy(self) -> float:
        _, _, y0, ye = self.box
        return (ye - y0) / self.Ny

    @property
    def h(self) -> float:
        return min(self.dx, self.dy)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.xline), len(self.yline))

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xline, self.yline, indexing="ij")


def make_grid(Nx: int, Ny: int, K: int,
              box: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
              periodic: bool = False) -> tuple[Grid2D, OperatorSet1D, OperatorSet1D]:
    """Build the grid and the per-direction operator sets in one go."""
    if min(Nx, Ny) < 1:
        raise ValueError(f"need at least one cell per direction, got {Nx} x {Ny} cells")
    x0, xe, y0, ye = box
    ops_x = build_operator_set(K, Nx, (xe - x0) / Nx, x0=x0, periodic=periodic)
    ops_y = build_operator_set(K, Ny, (ye - y0) / Ny, x0=y0, periodic=periodic)
    grid = Grid2D(Nx=Nx, Ny=Ny, K=K, box=box, periodic=periodic,
                  xline=ops_x.nodes, yline=ops_y.nodes)
    return grid, ops_x, ops_y


@dataclass
class Field:
    """Nodal values of one scalar unknown on a Grid2D."""

    grid: Grid2D
    values: np.ndarray


class State:
    """The (u, v, p) unknowns on one grid, stored as one (3, nx, ny) array
    `q`; u, v and p are Field views of its rows.

    State(u, v, p) of three Fields on one grid, the form the acceptance
    suite writes, stacks their values into a new q."""

    def __init__(self, grid: Grid2D, q: np.ndarray, *more: Field):
        if more:
            grid, q = grid.grid, np.stack([f.values for f in (grid, q, *more)])
        q = np.asarray(q, dtype=float)
        if q.shape != (3, *grid.shape):
            raise ValueError(f"state array {q.shape} does not match (3, *{grid.shape})")
        self.grid, self.q = grid, q

    @property
    def u(self) -> Field:
        return Field(self.grid, self.q[0])

    @property
    def v(self) -> Field:
        return Field(self.grid, self.q[1])

    @property
    def p(self) -> Field:
        return Field(self.grid, self.q[2])

    def copy(self) -> "State":
        return State(self.grid, self.q.copy())

    def arrays(self) -> np.ndarray:
        """q: unpacks as the (u, v, p) arrays."""
        return self.q


def quad_weights(grid: Grid2D, ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                 exclude_boundary: bool = False) -> np.ndarray:
    w = np.outer(ops_x.mass_diag, ops_y.mass_diag)
    if exclude_boundary and not grid.periodic:
        w = w.copy()
        w[0, :] = w[-1, :] = 0.0
        w[:, 0] = w[:, -1] = 0.0
    return w


def l2_norm(q: np.ndarray, weights: np.ndarray) -> float:
    """Discrete L2 norm with tensor Gauss-Lobatto weights."""
    wqq = np.multiply(weights, q)  # one node-sized temporary; rounds as weights * q * q
    return float(np.sqrt(np.sum(np.multiply(wqq, q, out=wqq))))


def max_norm(q: np.ndarray, interior_only: bool = False) -> float:
    v = q[1:-1, 1:-1] if interior_only else q
    return float(np.abs(v).max(initial=0.0))  # 0 on a mesh with no interior node


def dump_field(q: Field, path) -> None:
    """Plain-text structured-grid dump: header 'nx ny x0 xe y0 ye K', then
    row-major values at 17 significant digits."""
    g = q.grid
    x0, xe, y0, ye = g.box
    line = " ".join(["%.17g"] * q.values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{g.Nx} {g.Ny} {x0!r} {xe!r} {y0!r} {ye!r} {g.K}\n")
        fh.writelines(line % tuple(row.tolist()) for row in q.values)


def load_field(path) -> Field:
    with open(path) as fh:
        head = fh.readline().split()
        Nx, Ny, K = int(head[0]), int(head[1]), int(head[6])
        box = tuple(float(t) for t in head[2:6])
        vals = np.loadtxt(fh, ndmin=2)
    grid, _, _ = make_grid(Nx, Ny, K, box=box)
    if vals.shape != grid.shape:
        raise ValueError(f"dump shape {vals.shape} does not match grid {grid.shape}")
    return Field(grid, vals)
