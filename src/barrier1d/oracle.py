"""Exact transfer-matrix solver for piecewise-constant potentials.

This is the reference solver every other scattering routine in the package
is validated against.  Conventions:

* incident wave exp(i k_left x) with x = 0 at the left edge of the first
  segment;
* the left-incident reflection R is referenced at x = 0 and the
  right-incident reflection R_rev at x = extent (local edge referencing);
* transmission amplitudes are referenced across the full extent: the
  transmitted wave is T * exp(i k_right (x - extent)), so a free region of
  length X has T = exp(i k X).

With the real-valued (psi, psi') transfer matrix M accumulated over the
slabs (see _kernels), the amplitude matrix is C_r^-1 M C_l with
C(k) = [[1, 1], [ik, -ik]], and

    T     = (k_left / k_right) / M_amp[1,1]        (left incident)
    R     = -M_amp[1,0] / M_amp[1,1]
    T_rev = 1 / M_amp[1,1]                          (right incident)
    R_rev =  M_amp[0,1] / M_amp[1,1]

Interior slabs may be evanescent or sit exactly at a turning point
(q^2 = 0); the slab entries degrade to the linear solution there.  A log
scale factor keeps arbitrarily opaque stacks finite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import _transfer_product, _transfer_products
from .potential import Potential

__all__ = ["ScatterData", "Barrier1dError", "ConditioningError", "solve_exact",
           "free_data"]


class Barrier1dError(Exception):
    """Base of every typed numerical failure of the package.  Each one also
    keeps a builtin base (``RuntimeError``, ``ValueError`` or
    ``ZeroDivisionError``), so handlers written for that base still work."""


class ConditioningError(Barrier1dError, RuntimeError):
    """Raised when the slab product degenerates despite log scaling."""


@dataclass(frozen=True)
class ScatterData:
    """The four complex scattering coefficients of a barrier at fixed energy.

    ``T``/``R`` describe a wave incident from the left, ``T_rev``/``R_rev``
    one incident from the right.  ``extent`` is the barrier length the
    transmission phase is referenced across; ``loss`` is the flux deficit
    W in |T|^2 + |R|^2 = 1 - W (0 for any unitary solve).  A solve over an
    energy grid holds arrays over the energies in every other field.
    """

    T: complex
    R: complex
    T_rev: complex
    R_rev: complex
    k_left: float
    k_right: float
    extent: float = 0.0
    loss: float = 0.0

    @property
    def D(self) -> float:
        """Flux transmittance (k_right/k_left)|T|^2."""
        return (self.k_right / self.k_left) * abs(self.T) ** 2

    def flux_defect(self) -> float:
        """1 - (k_right/k_left)|T|^2 - |R|^2; 0 for a lossless barrier."""
        return 1.0 - self.D - abs(self.R) ** 2

    def reversed(self) -> "ScatterData":
        return replace(self, T=self.T_rev, R=self.R_rev, T_rev=self.T,
                       R_rev=self.R, k_left=self.k_right, k_right=self.k_left)


def free_data(k: float, length: float = 0.0) -> ScatterData:
    """Scattering data of a stretch of free medium (identity for length 0)."""
    ph = cmath.exp(1j * k * length)
    return ScatterData(T=ph, R=0.0 + 0.0j, T_rev=ph, R_rev=0.0 + 0.0j,
                       k_left=k, k_right=k, extent=length)


def _amplitude_m(m11, m12, m21, m22, k_l, k_r):
    """Convert the real (psi, psi') matrix to the amplitude basis."""
    p = m11 + (k_l / k_r) * m22
    q = m11 - (k_l / k_r) * m22
    u = k_l * m12 - m21 / k_r
    v = k_l * m12 + m21 / k_r
    a11 = 0.5 * (p + 1j * u)
    a12 = 0.5 * (q - 1j * v)
    a21 = 0.5 * (q + 1j * v)
    a22 = 0.5 * (p - 1j * u)
    return a11, a12, a21, a22


_LOST_CONDITIONING = ("slab product lost conditioning (very wide/high barrier); "
                      "work with log-scaled quantities or split the potential")


def _below_floors(p: Potential, E) -> ValueError:
    return ValueError(f"E = {E} must lie above both media floors "
                      f"({p.v_left}, {p.v_right})")


def _scatter_data(a12, a21, a22, k_l, k_r, scale, extent) -> ScatterData:
    """Coefficients from the amplitude matrix and the inverse log scale."""
    return ScatterData(T=(k_l / k_r) * scale / a22, R=-a21 / a22,
                       T_rev=scale / a22, R_rev=a12 / a22,
                       k_left=k_l, k_right=k_r, extent=extent)


def solve_exact(p: Potential, E: float | np.ndarray | list | tuple,
                n_slab: int = 2048) -> ScatterData:
    """Exact scattering coefficients of a piecewise potential at energy E.

    Non-constant segments are pre-discretised into ``n_slab`` constant
    slabs each (midpoint sampled).  Both media must be open channels
    (E above both floors).

    ``E`` may also be an array of energies, of any shape, or a list or
    tuple of them: one slab product, vectorised over the grid, then
    serves every energy, and each field of the returned
    :class:`ScatterData` except ``extent`` and ``loss`` is an array in
    the shape of E, holding the values of the raveled grid.  An energy
    below a floor or a lost conditioning anywhere in the grid raises, as
    it does for a single energy; a row below a floor is reported first.
    """
    if isinstance(E, (list, tuple)):
        E = np.asarray(E, dtype=float)
    if isinstance(E, np.ndarray) and E.ndim:
        s, below, lost = _solve_grid(p, E, *p.as_slabs(n_slab), p.extent)
        if below.any():
            raise _below_floors(p, E[below][0])
        if lost.any():
            raise ConditioningError(_LOST_CONDITIONING)
        return s
    if not (E > p.v_left and E > p.v_right):
        raise _below_floors(p, E)
    k_l = math.sqrt(E - p.v_left)
    k_r = math.sqrt(E - p.v_right)
    widths, heights = p.as_slabs(n_slab)
    try:
        m11, m12, m21, m22, log_scale = _transfer_product(widths, E - heights)
    except OverflowError:   # a slab whose cosh(kappa w) exceeds any float
        raise ConditioningError(_LOST_CONDITIONING) from None
    a11, a12, a21, a22 = _amplitude_m(m11, m12, m21, m22, k_l, k_r)
    if not (cmath.isfinite(a22) and abs(a22) > 0.0):
        raise ConditioningError(_LOST_CONDITIONING)
    scale = math.exp(-log_scale) if log_scale < 700.0 else 0.0
    return _scatter_data(a12, a21, a22, k_l, k_r, scale, p.extent)


def _solve_grid(p: Potential, E: np.ndarray, widths, heights, extent):
    """:func:`solve_exact` over the rows of a grid, row i at energy E[i].

    ``widths`` and ``heights`` iterate over the slabs between the media of
    ``p``; each entry is a scalar shared by all rows or an array over the
    rows (see :func:`_kernels._transfer_products`), so one grid can hold
    the rows of several potentials.  ``extent`` is a scalar or an array
    over the rows.

    Returns ``(data, below, lost)``: the :class:`ScatterData` of the grid
    and two boolean row masks, rows with E not above both media floors and
    rows whose slab product lost conditioning.  A failing row does not
    stop the others; its fields hold NaN or inf.
    """
    below = ~((E > p.v_left) & (E > p.v_right))
    k_l = np.sqrt(np.where(below, np.nan, E - p.v_left))
    k_r = np.sqrt(np.where(below, np.nan, E - p.v_right))
    # an opaque slab overflows cosh/sinh to inf, and its row is lost
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m11, m12, m21, m22, log_scale = _transfer_products(widths, heights, E)
        a11, a12, a21, a22 = _amplitude_m(m11, m12, m21, m22, k_l, k_r)
        lost = ~(below | (np.isfinite(a22) & (np.abs(a22) > 0.0)))
        scale = np.where(log_scale < 700.0, np.exp(-log_scale), 0.0)
        return _scatter_data(a12, a21, a22, k_l, k_r, scale, extent), below, lost
