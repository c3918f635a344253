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
from .grid import State


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
    return (ey.apply_y(ops_x.D.apply_x(state.u.values))
            + ops_y.D.apply_y(ex.apply_x(state.v.values)) - ey.apply_y(ex.apply_x(sources.sp)))
