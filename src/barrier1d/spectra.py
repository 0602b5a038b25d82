"""Bound states of multi-well potentials and band structure of periodic
cells.

Well systems are n rectangular wells separated by n-1 barriers, all
referenced to the common outside level: well i has depth U_i below that
level and width a_i, the separating barriers sit at the outside level with
widths b_j.  Energies are quoted as depths E below the outside level
(E > 0 means bound), so inside well i the wave number is sqrt(U_i - E)
and in the barriers the decay constant is sqrt(E).  Levels are reported
as depths sorted ascending: the most weakly bound state first, the ground
state last.

Two independent routes produce the levels:

* :func:`bound_levels` assembles the full interface-matching linear system
  (wave function and derivative continuity at every boundary, wall or
  decay conditions at the outside) and scans its determinant for sign
  changes;
* :func:`bound_levels_shooting` integrates the stationary equation
  numerically from both outer boundaries and brackets the Wronskian
  mismatch at a midpoint.

Both find their roots through :func:`_levels`, which certifies the count
by Sturm oscillation (:func:`_level_count`), so a grid that misses a
tightly split pair cannot make them agree on a wrong count.

Outer boundaries default to hard walls at the outer well edges
("infinite"); "finite" matches decaying exponentials into semi-infinite
outside barriers instead.

Band structure uses the Bloch criterion |trace M(E)| <= 2 on the unit-cell
transfer matrix, with band edges refined by bisection.  Compression scans
shrink only the barrier segments of the cell (see
:func:`barrier1d.potential.compress`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from ._kernels import (_cell_traces, _clip_trace, _cs, _cs_entries,
                       _shoot_mismatch, _transfer_product)
from .potential import Potential, compress

__all__ = [
    "WellSystem",
    "LevelSet",
    "LevelScan",
    "LevelCountError",
    "BandSet",
    "bound_levels",
    "bound_levels_shooting",
    "level_scan",
    "band_structure",
    "compression_scan",
    "tight_binding_energy",
]

INFINITE = "infinite"
FINITE = "finite"


@dataclass(frozen=True)
class WellSystem:
    """n wells (depth, width) with n-1 separating barrier widths."""

    wells: tuple[tuple[float, float], ...]
    barriers: tuple[float, ...]
    outer: str = INFINITE

    def __post_init__(self):
        object.__setattr__(self, "wells", tuple((float(u), float(a)) for u, a in self.wells))
        object.__setattr__(self, "barriers", tuple(float(b) for b in self.barriers))
        if not self.wells:
            raise ValueError("need at least one well")
        if len(self.barriers) != len(self.wells) - 1:
            raise ValueError(f"{len(self.wells)} wells need {len(self.wells) - 1} "
                             f"barriers, got {len(self.barriers)}")
        for u, a in self.wells:
            if u <= 0.0 or a <= 0.0:
                raise ValueError("well depths and widths must be positive")
        for b in self.barriers:
            if b <= 0.0:
                raise ValueError("barrier widths must be positive")
        if self.outer not in (INFINITE, FINITE):
            raise ValueError(f"outer must be {INFINITE!r} or {FINITE!r}")

    @property
    def max_depth(self) -> float:
        return max(u for u, _ in self.wells)

    def region_widths(self) -> np.ndarray:
        ws = []
        for i, (_, a) in enumerate(self.wells):
            if i:
                ws.append(self.barriers[i - 1])
            ws.append(a)
        return np.asarray(ws)

    def region_q2(self, E: np.ndarray) -> np.ndarray:
        """q^2 per region, rows over E: U_i - E in wells, -E in barriers."""
        E = np.atleast_1d(np.asarray(E, dtype=float))
        cols = []
        for i, (u, _) in enumerate(self.wells):
            if i:
                cols.append(-E)
            cols.append(u - E)
        return np.column_stack(cols)

    def with_barrier(self, j: int, width: float) -> "WellSystem":
        bs = list(self.barriers)
        bs[j] = width
        return replace(self, barriers=tuple(bs))

    def with_coherent_barriers(self, width: float) -> "WellSystem":
        return replace(self, barriers=tuple(width for _ in self.barriers))


@dataclass(frozen=True)
class LevelSet:
    """Bound levels as depths below the outside level, ascending."""

    energies: tuple[float, ...]
    max_depth: float

    def __len__(self) -> int:
        return len(self.energies)


# ----------------------------------------------------------------------
# determinant route

def _matching_dets(ws: WellSystem, E: np.ndarray) -> np.ndarray:
    """Determinant of the full continuity system at each depth E.

    Rows are rescaled by their max modulus (positive factors), which keeps
    the determinant conditioned without moving its roots.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    widths = ws.region_widths()
    q2 = ws.region_q2(E)
    n_e = E.size
    n_r = widths.size
    finite = ws.outer == FINITE
    off = 1 if finite else 0
    dim = 2 * n_r + 2 * off
    m = np.zeros((n_e, dim, dim))
    if finite:
        kappa = np.sqrt(E)
        m[:, 0, 0] = 1.0
        m[:, 0, 1] = -1.0
        m[:, 1, 0] = kappa
        m[:, 1, 2] = -1.0
    else:
        m[:, 0, 0] = 1.0
    for r in range(n_r - 1):
        c, s = _cs(q2[:, r], widths[r])
        # rows 0..off hold the left-edge conditions (1 for a hard wall,
        # 2 for decay matching); interface pairs follow
        ra = (1 + off) + 2 * r
        rb = ra + 1
        col = off + 2 * r  # first column of region r unknowns
        m[:, ra, col] = c
        m[:, ra, col + 1] = s
        m[:, ra, col + 2] = -1.0
        m[:, rb, col] = -q2[:, r] * s
        m[:, rb, col + 1] = c
        m[:, rb, col + 3] = -1.0
    c, s = _cs(q2[:, n_r - 1], widths[n_r - 1])
    col = off + 2 * (n_r - 1)
    if finite:
        kappa = np.sqrt(E)
        m[:, dim - 2, col] = c
        m[:, dim - 2, col + 1] = s
        m[:, dim - 2, dim - 1] = -1.0
        m[:, dim - 1, col] = -q2[:, n_r - 1] * s
        m[:, dim - 1, col + 1] = c
        m[:, dim - 1, dim - 1] = kappa
    else:
        m[:, dim - 1, col] = c
        m[:, dim - 1, col + 1] = s
    scale = np.max(np.abs(m), axis=2, keepdims=True)
    scale[scale == 0.0] = 1.0
    return np.linalg.det(m / scale)


def bound_levels(ws: WellSystem, E_grid: int = 800) -> LevelSet:
    """Bound levels from the interface-matching determinant, bracketed on
    ``E_grid`` depths across (0, max depth) and certified by the
    oscillation count (see :func:`_levels`)."""
    return _levels(ws, _matching_dets, E_grid)


# ----------------------------------------------------------------------
# shooting route (independent cross-check)
#
# The energy grid of bound_levels_shooting powers the RK4 step matrices of
# all its energies at once (_kernels._rk4_rows); each brentq evaluation is
# a single energy and runs the scalar float loop (_kernels._rk4_region).
# Both give the same bits.  On a 3-well system (2-core VM) the 800-point
# grid takes 2.2-3.4 ms, against 46-76 ms as 800 single-energy calls, and
# one polish evaluation 0.06-0.09 ms, against 1.1-1.6 ms through the grid
# kernel.

_MAX_PHASE_STEP = 0.004


def _shoot_values(ws: WellSystem, E: np.ndarray) -> np.ndarray:
    E = np.atleast_1d(np.asarray(E, dtype=float))
    widths = ws.region_widths()
    q2 = ws.region_q2(E)
    n_e = E.size
    if ws.outer == FINITE:
        kappa = np.sqrt(E)
        bl_psi = np.ones(n_e); bl_dpsi = kappa
        br_psi = np.ones(n_e); br_dpsi = -kappa
    else:
        bl_psi = np.zeros(n_e); bl_dpsi = np.ones(n_e)
        br_psi = np.zeros(n_e); br_dpsi = np.ones(n_e)
    match_region = (widths.size - 1) // 2
    return _shoot_mismatch(widths, q2, bl_psi, bl_dpsi, br_psi, br_dpsi,
                           match_region, 0.5, _MAX_PHASE_STEP)


def bound_levels_shooting(ws: WellSystem, E_grid: int = 800) -> LevelSet:
    """Bound levels by two-sided numerical integration and Wronskian
    matching at the centre of the middle region; independent of the
    determinant construction.  Bracketing and certification as in
    :func:`bound_levels`."""
    return _levels(ws, _shoot_values, E_grid)


# ----------------------------------------------------------------------
# certified level count
#
# Sturm oscillation: with the Pruefer angle theta = atan2(psi, psi') shot
# inward from both outer boundaries (the right-hand shot on the mirrored
# region list) to the match point of _shoot_values, the number of levels
# deeper than E is floor((theta_left + theta_right) / pi).  theta only
# crosses multiples of pi upwards (theta' = 1 where psi = 0), so it can be
# unwrapped from atan2 alone across any slab in which psi changes sign at
# most once: it ends within 2 pi above the multiple of pi below its start.
# That holds for every evanescent region, and for every slab of an
# oscillating region with q w < 1 < pi, so oscillating regions are cut
# into 1 + floor(q w) equal slabs.


class LevelCountError(RuntimeError):
    """The oscillation count and the root brackets of a level route
    disagree: levels closer than the float resolution, or a polish bracket
    without a sign change."""


def _level_count(ws: WellSystem, E: float) -> int:
    """Number of levels deeper than the depth E."""
    legs = list(zip(ws.region_q2(E)[0].tolist(), ws.region_widths().tolist()))
    m = (len(legs) - 1) // 2
    half = (legs[m][0], 0.5 * legs[m][1])
    total = 0.0
    for path in (legs[:m] + [half], legs[:m:-1] + [half]):
        # mirrored, the right boundary condition reads as the left one
        psi, dpsi = (1.0, math.sqrt(E)) if ws.outer == FINITE else (0.0, 1.0)
        theta = math.atan2(psi, dpsi)
        for q2, w in path:
            n = 1 + int(math.sqrt(max(q2, 0.0)) * w)
            if q2 < 0.0:
                # the slab matrix over cosh(kappa w), which cannot overflow
                ka = math.sqrt(-q2)
                t = math.tanh(ka * w)
                c, s, d = 1.0, t / ka, ka * t
            else:
                c, s = _cs_entries(q2, w / n)
                d = -q2 * s
            for _ in range(n):
                psi, dpsi = c * psi + s * dpsi, d * psi + c * dpsi
                big = max(abs(psi), abs(dpsi))
                psi, dpsi = psi / big, dpsi / big
                floor = math.pi * math.floor(theta / math.pi)
                theta = floor + (math.atan2(psi, dpsi) - floor) % (2.0 * math.pi)
        total += theta
    return math.floor(total / math.pi)


def _count_brackets(ws: WellSystem, a: float, b: float, na: int, nb: int):
    """Bisect (a, b) on the level count until each piece holds one level."""
    if na - nb <= 1:
        if na < nb:
            raise LevelCountError(f"level count rises with depth: {na} at {a:.17g}, "
                                  f"{nb} at {b:.17g}")
        return [(a, b)] * (na - nb)
    mid = 0.5 * (a + b)
    if not a < mid < b:
        raise LevelCountError(f"{na - nb} levels within one ulp of depth {a:.17g}")
    nm = _level_count(ws, mid)
    return _count_brackets(ws, a, mid, na, nm) + _count_brackets(ws, mid, b, nm, nb)


def _levels(ws: WellSystem, values, E_grid: int) -> LevelSet:
    """Roots of ``values(ws, depths)`` (one route's matching function),
    counted by :func:`_level_count`.

    The sign changes of ``values`` on ``E_grid`` depths across (0, max
    depth) are kept when their number equals the count of levels between
    the grid ends.  Otherwise the range is bisected on the count until each
    piece holds one level.  Each bracket is polished by brentq to 1e-12
    relative.
    """
    if E_grid < 500:
        raise ValueError("E_grid must be >= 500")
    umax = ws.max_depth
    es = np.linspace(umax * 1e-7, umax * (1.0 - 1e-9), E_grid)
    sign = np.sign(values(ws, es))
    f = lambda e: float(values(ws, np.array([e]))[0])
    cells = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))
    # a grid point that is a root brackets itself
    brackets = [(es[i], es[i] if sign[i] == 0.0 else es[i + 1]) for i in cells]
    n_top, n_bottom = _level_count(ws, es[0]), _level_count(ws, es[-1])
    if len(brackets) != n_top - n_bottom:
        brackets = _count_brackets(ws, es[0], es[-1], n_top, n_bottom)
    try:
        roots = [float(brentq(f, a, b, rtol=1e-12, xtol=1e-300)) for a, b in brackets]
    except ValueError as exc:
        # brentq's own check: a bracket without a sign change
        raise LevelCountError(f"level bracket not resolved: {exc}") from None
    return LevelSet(tuple(roots), umax)


# ----------------------------------------------------------------------
# level scans

@dataclass(frozen=True)
class LevelScanRow:
    scan_value: float
    level_index: int
    energy: float
    event: str              # none | appear | disappear


@dataclass(frozen=True)
class LevelScan:
    rows: tuple[LevelScanRow, ...]
    values: tuple[float, ...]

    def track(self, index: int) -> list[tuple[float, float]]:
        return [(r.scan_value, r.energy) for r in self.rows
                if r.level_index == index and r.event != "disappear"]

    def n_tracks(self) -> int:
        return 1 + max((r.level_index for r in self.rows), default=-1)


def level_scan(ws: WellSystem, vary: int | str, rng: tuple[float, float],
               steps: int = 20, E_grid: int = 800) -> LevelScan:
    """Repeat :func:`bound_levels` while one barrier width (``vary = j``)
    or all barrier widths (``vary = "coherent"``) sweep across ``rng``.

    Levels of a 1-D well system never cross and their count is certified,
    so each track is its level's index from the ground state (0 = ground).
    A track at or above the previous step's count is marked "appear"; a
    track at or above the new count gets a "disappear" row carrying its
    last energy.
    """
    if steps < 20:
        raise ValueError("steps must be >= 20")
    lo, hi = rng
    if not (0.0 < lo <= hi):
        raise ValueError("scan range must be positive")
    values = np.linspace(lo, hi, steps)
    rows: list[LevelScanRow] = []
    prev: tuple[float, ...] = ()
    for i, v in enumerate(values):
        sys_v = ws.with_coherent_barriers(float(v)) if vary == "coherent" \
            else ws.with_barrier(int(vary), float(v))
        levels = bound_levels(sys_v, E_grid).energies
        n = len(levels)
        n_prev = len(prev) if i else n
        # levels run from the most weakly bound to the ground state
        rows += [LevelScanRow(float(v), k, e, "appear" if k >= n_prev else "none")
                 for k, e in zip(range(n - 1, -1, -1), levels)]
        rows += [LevelScanRow(float(v), k, e, "disappear")
                 for k, e in zip(range(n_prev - 1, n - 1, -1), prev)]
        prev = levels
    return LevelScan(tuple(rows), tuple(float(v) for v in values))


# ----------------------------------------------------------------------
# band structure

@dataclass(frozen=True)
class BandSet:
    """Ordered disjoint allowed-energy intervals of a periodic cell."""

    bands: tuple[tuple[float, float], ...]
    e_range: tuple[float, float]
    grid: int

    def widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bands])

    def gaps(self) -> np.ndarray:
        return np.array([self.bands[i + 1][0] - self.bands[i][1]
                         for i in range(len(self.bands) - 1)])

    def total_measure(self) -> float:
        return float(self.widths().sum())

    def __len__(self) -> int:
        return len(self.bands)


def band_structure(cell: Potential, E_range: tuple[float, float],
                   grid: int = 2000) -> BandSet:
    """Allowed bands of the periodic repetition of ``cell``.

    An energy is allowed iff |trace M(E)| <= 2 for the unit-cell transfer
    matrix M.  The grid locates the allowed runs; every band edge is then
    refined by bisection on |trace| - 2.
    """
    lo, hi = E_range
    if not (0.0 < lo < hi):
        raise ValueError("E range must satisfy 0 < lo < hi")
    if grid < 16:
        raise ValueError("grid too coarse")
    widths, heights = cell.as_slabs()
    es = np.linspace(lo, hi, grid)
    tr = _cell_traces(widths, heights, es)
    allowed = np.abs(tr) <= 2.0

    def g(e: float) -> float:
        m11, _, _, m22, log_scale = _transfer_product(widths, e - heights)
        return abs(float(_clip_trace(m11 + m22, log_scale))) - 2.0

    bands: list[tuple[float, float]] = []
    i = 0
    while i < grid:
        if not allowed[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid and allowed[j + 1]:
            j += 1
        e_lo = es[i] if i == 0 else brentq(g, es[i - 1], es[i], xtol=1e-14 * max(1.0, hi))
        e_hi = es[j] if j == grid - 1 else brentq(g, es[j], es[j + 1], xtol=1e-14 * max(1.0, hi))
        bands.append((float(e_lo), float(e_hi)))
        i = j + 1
    return BandSet(tuple(bands), (lo, hi), grid)


def compression_scan(cell: Potential, factors: Sequence[float],
                     E_range: tuple[float, float],
                     grid: int = 2000) -> list[tuple[float, BandSet]]:
    """Band structure of the cell with barrier widths scaled by each factor."""
    out = []
    for f in factors:
        if not (0.0 < f <= 1.0):
            raise ValueError(f"compression factors must lie in (0, 1], got {f}")
        out.append((float(f), band_structure(compress(cell, f), E_range, grid)))
    return out


def tight_binding_energy(kx, ky, kz, a: float, E0: float, alpha: float,
                         gamma: float):
    """Nearest-neighbour cubic-lattice dispersion
    E = E0 - alpha - 2 gamma (cos kx a + cos ky a + cos kz a)."""
    kx = np.asarray(kx, dtype=float)
    out = E0 - alpha - 2.0 * gamma * (np.cos(kx * a) + np.cos(np.asarray(ky) * a)
                                      + np.cos(np.asarray(kz) * a))
    return out if out.shape else float(out)
