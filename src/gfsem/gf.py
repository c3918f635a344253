"""Discrete global-flux variables: line integrals of the state and sources.

U integrates u along y, V integrates v along x, Ku/Kv/Kp integrate the
source arrays; all are built with the per-cell LobattoIIIA prefix blocks,
accumulate across cells and vanish on the starting boundary lines. The
residual and the divergence only use them differentiated, as E = D I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import OperatorSet1D
from .grid import State, apply_xy


@dataclass
class SourceArrays:
    """Nodal source values (already evaluated on the grid, at one time)."""

    su: np.ndarray
    sv: np.ndarray
    sp: np.ndarray


@dataclass
class GFVars:
    U: np.ndarray
    V: np.ndarray
    Ku: np.ndarray
    Kv: np.ndarray
    Kp: np.ndarray


def compute_gf_vars(state: State, sources: SourceArrays,
                    ops_x: OperatorSet1D, ops_y: OperatorSet1D) -> GFVars:
    if ops_x.I is None or ops_y.I is None:
        raise ValueError("global-flux variables are undefined on periodic lines")
    ix, iy = ops_x.I, ops_y.I
    return GFVars(U=iy.apply_y(state.u.values), V=ix.apply_x(state.v.values),
                  Ku=ix.apply_x(sources.su), Kv=iy.apply_y(sources.sv),
                  Kp=ix.apply_x(iy.apply_y(sources.sp)))


def gf_divergence(state: State, sources: SourceArrays,
                  ops_x: OperatorSet1D, ops_y: OperatorSet1D) -> np.ndarray:
    """(D_x (x) D_y)(U + V - Kp) = (Dx Ey) u + (Ex Dy) v - (Ex Ey) S_p: the
    divergence-minus-source operator whose kernel characterizes the discrete
    equilibria, with no prefix integral."""
    ex, ey = ops_x.E, ops_y.E
    return (apply_xy(ops_x.D, ey, state.u.values) + apply_xy(ex, ops_y.D, state.v.values)
            - apply_xy(ex, ey, sources.sp))


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
