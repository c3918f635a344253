"""Discrete global-flux variables: line integrals of the state and sources.

U integrates u along y, V integrates v along x, Ku/Kv/Kp integrate the
source arrays; all are built with the per-cell LobattoIIIA prefix blocks,
accumulate across cells and vanish on the starting boundary lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorSet1D
from .grid import State, apply_xy


@dataclass
class SourceArrays:
    """Nodal source values (already evaluated on the grid, at one time)."""

    su: np.ndarray
    sv: np.ndarray
    sp: np.ndarray
    kp: np.ndarray | None = None   # Ix Iy sp, when integrated in advance


@dataclass
class GFVars:
    U: np.ndarray
    V: np.ndarray
    Ku: np.ndarray
    Kv: np.ndarray
    Kp: np.ndarray
    gp: np.ndarray = field(init=False, repr=False)  # U + V - Kp

    def __post_init__(self):
        self.gp = self.U + self.V - self.Kp


def integrate_sp(sp: np.ndarray, ops_x: OperatorSet1D, ops_y: OperatorSet1D) -> np.ndarray:
    """Kp = (Ix (x) Iy) S_p, the doubly integrated mass source."""
    return ops_x.I.apply_x(ops_y.I.apply_y(sp))


def compute_gf_vars(state: State, sources: SourceArrays,
                    ops_x: OperatorSet1D, ops_y: OperatorSet1D) -> GFVars:
    if ops_x.I is None or ops_y.I is None:
        raise ValueError("global-flux variables are undefined on periodic lines")
    ix, iy = ops_x.I, ops_y.I
    return GFVars(
        U=iy.apply_y(state.u.values),
        V=ix.apply_x(state.v.values),
        Ku=ix.apply_x(sources.su),
        Kv=iy.apply_y(sources.sv),
        Kp=integrate_sp(sources.sp, ops_x, ops_y) if sources.kp is None else sources.kp,
    )


def gf_divergence(gf: GFVars, ops_x: OperatorSet1D, ops_y: OperatorSet1D) -> np.ndarray:
    """(D_x (x) D_y)(U + V - Kp): the divergence-minus-source operator whose
    kernel characterizes the discrete equilibria."""
    return apply_xy(ops_x.D, ops_y.D, gf.gp)


def subcell_residuals(state: State, sources: SourceArrays,
                      ops_x: OperatorSet1D, ops_y: OperatorSet1D,
                      cell: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (K+1)x(K+1) arrays of subcell-integrated steady residuals.

    phi_u[s,t] integrates (dp/dx - S_u) along x from the left cell edge at
    y-node t, phi_v the y analogue, phi_p the double integral of the
    divergence residual over the subcell; all exact through the I-tables.
    """
    i, j = cell
    K = ops_x.K
    sx = slice(i * K, (i + 1) * K + 1)
    sy = slice(j * K, (j + 1) * K + 1)
    ix, iy = ops_x.i_loc, ops_y.i_loc

    u = state.u.values[sx, sy]
    v = state.v.values[sx, sy]
    p = state.p.values[sx, sy]
    su = sources.su[sx, sy]
    sv = sources.sv[sx, sy]
    sp = sources.sp[sx, sy]

    phi_u = (p - p[0:1, :]) - ix @ su
    phi_v = (p - p[:, 0:1]) - sv @ iy.T
    phi_p = (u - u[0:1, :]) @ iy.T + ix @ (v - v[:, 0:1]) - ix @ sp @ iy.T
    return phi_u, phi_v, phi_p
