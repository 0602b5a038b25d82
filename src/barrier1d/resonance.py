"""Resonant geometries and energies: gap lengths and energies with unit
transmission through composite barriers.

For two identical rectangular barriers (height U, width a, energy
0 < E < U, natural units) unit transmission occurs at gap lengths

    L = [2 pi n +- arccos(A)] / (2 k),    k = sqrt(E),

    A = (U^2 - (8E^2 - 8EU + U^2) cosh(2 kappa a))
        / (8E^2 - 8EU + U^2 - U^2 cosh(2 kappa a)),   kappa = sqrt(U - E),

upper sign with n >= 0 for E > U/2, lower sign with n >= 1 for E < U/2.
The arccos argument is evaluated here through the overflow-free identity
A = -(1 - tb^2)/(1 + tb^2) with tb = (U - 2E) tanh(kappa a) /
(2 sqrt(E (U - E))).  Every returned gap is re-verified against the
transfer-matrix solver, which is the ground truth throughout this module;
the closed form serves as initialiser and cross-check.

The general search :func:`find_resonant_L` solves the unit-transmission
phase condition for two arbitrary scatterers with equal reflection moduli;
resonant gaps always come in families L0 + n pi/k.  Energy searches scan
the transmittance on a grid and polish candidate peaks by golden-section
maximisation.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .oracle import ScatterData, solve_exact
from .potential import Constant, Potential, Segment, build_rect_pair

__all__ = [
    "NoResonanceError",
    "ResonanceFamily",
    "DensityRow",
    "rect_pair_resonant_L",
    "find_resonant_L",
    "find_resonant_E",
    "resonance_density",
    "pair_chain",
]


class NoResonanceError(ValueError):
    """The closed form has no solution for these parameters."""


@dataclass(frozen=True)
class ResonanceFamily:
    """Gap lengths L0 + n * period (n = 0..n_max) sharing unit transmission
    at one energy.  ``n_max < 0`` marks an empty family; ``diagnostic``
    says why."""

    L0: float
    period: float
    n_max: int
    E: float
    k: float
    diagnostic: str = ""

    @property
    def is_empty(self) -> bool:
        return self.n_max < 0

    def members(self) -> np.ndarray:
        if self.is_empty:
            return np.empty(0)
        return self.L0 + self.period * np.arange(self.n_max + 1)

    def __len__(self) -> int:
        return 0 if self.is_empty else self.n_max + 1


def rect_pair_resonant_L(U: float, a: float, E: float, n: int = 0,
                         verify_tol: float = 1e-8) -> float:
    """Closed-form resonant gap for two identical rectangular barriers.

    Natural units; branch rule: n >= 0 for E > U/2, n >= 1 for E < U/2
    (at E = U/2 both branches coincide).  The returned L is checked to
    give unit pair transmittance within ``verify_tol``.
    """
    if not (U > 0.0 and a > 0.0):
        raise ValueError("need U > 0 and a > 0")
    if not (0.0 < E < U):
        raise ValueError(f"closed form requires 0 < E < U, got E={E}, U={U}")
    k = math.sqrt(E)
    kap = math.sqrt(U - E)
    tb = (U - 2.0 * E) * math.tanh(kap * a) / (2.0 * math.sqrt(E * (U - E)))
    arg = -(1.0 - tb * tb) / (1.0 + tb * tb)
    if abs(arg) > 1.0:
        if abs(arg) - 1.0 < 1e-12:
            arg = math.copysign(1.0, arg)
        else:
            raise NoResonanceError(
                f"arccos argument {arg} outside [-1, 1]; no resonant gap for "
                f"U={U}, a={a}, E={E}")
    ac = math.acos(arg)
    if E >= U / 2.0:
        if n < 0:
            raise ValueError("upper branch (E >= U/2) needs n >= 0")
        L = (2.0 * math.pi * n + ac) / (2.0 * k)
    else:
        if n < 1:
            raise ValueError("lower branch (E < U/2) needs n >= 1")
        L = (2.0 * math.pi * n - ac) / (2.0 * k)
    d = solve_exact(build_rect_pair(U, a, L), E).D
    if abs(d - 1.0) > verify_tol:
        raise RuntimeError(
            f"closed-form gap failed verification: D = {d} at L = {L}")
    return L


def find_resonant_L(s1: ScatterData, s2: ScatterData, E: float,
                    L_range: tuple[float, float],
                    moduli_tol: float = 1e-6) -> ResonanceFamily:
    """Solve the unit-transmission phase condition for the gap length.

    Requires |R_rev1| = |R2| within ``moduli_tol`` (necessary condition);
    otherwise the family is empty with a diagnostic.  The phase condition
    arg(R_rev1) + arg(R2) + 2 k L = 0 (mod 2 pi) is linear in L, so the
    smallest in-range solution and the pi/k period define the family.
    """
    k = s1.k_right
    if abs(s2.k_left - k) > 1e-9 * max(1.0, k):
        raise ValueError("scatterer media do not match across the gap")
    m1, m2 = abs(s1.R_rev), abs(s2.R)
    lo, hi = L_range
    if lo > hi:
        raise ValueError("empty L range")
    lo = max(lo, 0.0)
    period = math.pi / k
    if abs(m1 - m2) > moduli_tol * max(1.0, m1, m2):
        return ResonanceFamily(math.nan, period, -1, E, k,
                               diagnostic=f"reflection moduli differ: "
                                          f"|R_rev1|={m1:.6g}, |R2|={m2:.6g}")
    if m1 == 0.0 and m2 == 0.0:
        # already fully transparent; every gap is resonant
        return ResonanceFamily(lo, period, int(math.floor((hi - lo) / period)), E, k,
                               diagnostic="both scatterers reflectionless")
    l0_raw = -(cmath.phase(s1.R_rev) + cmath.phase(s2.R)) / (2.0 * k)
    shift = math.ceil((lo - l0_raw) / period - 1e-12)
    l0 = l0_raw + shift * period
    n_max = int(math.floor((hi - l0) / period + 1e-12))
    if n_max < 0:
        return ResonanceFamily(math.nan, period, -1, E, k,
                               diagnostic="no family member inside L range")
    return ResonanceFamily(l0, period, n_max, E, k)


# ----------------------------------------------------------------------
# energy scans

def _golden_max(f: Callable[[float], float], a: float, b: float,
                xtol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximisation on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = invphi * invphi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = f(c)
    fd = f(d)
    while h > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _polished_peaks(p: Potential, E_range: tuple[float, float], grid: int,
                    threshold: float):
    lo, hi = E_range
    if not (0.0 < lo < hi):
        raise ValueError("E range must satisfy 0 < lo < hi")
    if grid < 100:
        raise ValueError("grid must be >= 100")
    es = np.linspace(lo, hi, grid)
    ds = solve_exact(p, es).D
    peaks: list[float] = []
    f = lambda e: solve_exact(p, float(e)).D
    for i in range(1, grid - 1):
        if ds[i] >= ds[i - 1] and ds[i] >= ds[i + 1]:
            e_star, d_star = _golden_max(f, es[i - 1], es[i + 1])
            if d_star >= threshold:
                peaks.append(e_star)
    # merge grid artifacts: peaks closer than 10x the polish tolerance
    merged: list[float] = []
    for e in sorted(peaks):
        if merged and e - merged[-1] < 1e-11:
            continue
        merged.append(e)
    return merged, es, ds


def find_resonant_E(p: Potential, E_range: tuple[float, float],
                    grid: int = 400) -> list[float]:
    """Energies with unit transmittance (D >= 1 - 1e-9 after polishing)
    inside ``E_range``; empty list when the potential has none."""
    peaks, _, _ = _polished_peaks(p, E_range, grid, 1.0 - 1e-9)
    return peaks


@dataclass(frozen=True)
class DensityRow:
    n_barriers: int
    count: int
    min_spacing: float          # nan when fewer than two peaks
    energies: tuple[float, ...] = field(default=())


def resonance_density(p_builder: Callable[[int], Potential],
                      N_list: Sequence[int],
                      E_range: tuple[float, float],
                      grid: int = 2000,
                      threshold: float = 1.0 - 1e-6) -> list[DensityRow]:
    """Count near-unit transmission peaks and their minimal spacing as the
    chain built by ``p_builder(N)`` grows."""
    rows = []
    for n in N_list:
        peaks, es, _ = _polished_peaks(p_builder(int(n)), E_range, grid, threshold)
        step = es[1] - es[0]
        if len(peaks) >= 2:
            spacing = float(np.min(np.diff(peaks)))
            if spacing < 5.0 * step:
                warnings.warn(
                    f"N={n}: minimal peak spacing {spacing:.3g} approaches the "
                    f"grid step {step:.3g}; counts may be unresolved",
                    stacklevel=2)
        else:
            spacing = math.nan
        rows.append(DensityRow(int(n), len(peaks), spacing, tuple(peaks)))
    return rows


def pair_chain(U: float, a: float, L_intra: float, L_inter: float,
               n_barriers: int) -> Potential:
    """Chain of identical rectangular barriers grouped into pairs:
    gaps alternate L_intra (inside a pair) and L_inter (between pairs)."""
    if n_barriers < 1:
        raise ValueError("need at least one barrier")
    segs: list[Segment] = []
    for i in range(n_barriers):
        if i:
            gap = L_intra if i % 2 == 1 else L_inter
            segs.append(Segment(gap, Constant(0.0)))
        segs.append(Segment(a, Constant(U)))
    return Potential(tuple(segs))
