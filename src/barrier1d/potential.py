"""Piecewise 1-D potential data model and unit handling.

Internal units are natural units with hbar = 1 and m = 1/2, so the wave
number of a free particle is simply k = sqrt(E).  Every physical quantity
(eV/Angstrom or erg/cm input) is converted once at the boundary through a
``UnitSystem``; all solvers operate on the internal numbers.

A potential is an ordered list of segments laid out from x = 0 to the
right.  Each segment carries a profile:

* ``Constant(height)``      -- flat slab,
* ``Linear(start, slope)``  -- linear ramp ``U(x) = start + slope*(x - x0)``,
* ``Sampled(heights)``      -- node values on a uniform sub-grid spanning
  the segment (>= 2 nodes), read as a piecewise-linear profile.

The media left and right of the segments are characterised by their floor
energies ``v_left`` / ``v_right`` (0 for free space); the corresponding
wave numbers at energy E are ``sqrt(E - v_left)`` and ``sqrt(E - v_right)``.
Floors rather than fixed wave numbers are stored so that a single potential
can be scanned over energy.

Potentials are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "Constant",
    "Linear",
    "Sampled",
    "Segment",
    "Potential",
    "UnitSystem",
    "wave_number",
    "build_rect_pair",
    "compress",
    "load_potential",
    "save_potential",
]

# CODATA 2018 values (SI)
M_ELECTRON = 9.1093837015e-31   # kg
HBAR = 1.054571817e-34          # J s
EV = 1.602176634e-19            # J
ERG = 1e-7                      # J
ANGSTROM = 1e-10                # m
CM = 1e-2                       # m


# ----------------------------------------------------------------------
# profiles / segments

def _check_finite(what: str, *values) -> None:
    """Reject NaN and +-inf where they enter: no solver can use them."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")


@dataclass(frozen=True)
class Constant:
    height: float

    def __post_init__(self):
        _check_finite("segment height", self.height)


@dataclass(frozen=True)
class Linear:
    start_height: float
    slope: float

    def __post_init__(self):
        _check_finite("linear segment start and slope", self.start_height, self.slope)


@dataclass(frozen=True)
class Sampled:
    heights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(float(h) for h in self.heights))
        if len(self.heights) < 2:
            raise ValueError("Sampled profile needs at least 2 node values")
        _check_finite("sampled heights", *self.heights)


Profile = Constant | Linear | Sampled


@dataclass(frozen=True)
class Segment:
    """One region of the potential.

    ``compressible`` overrides the barrier-vs-well designation used by
    :func:`compress`; ``None`` means "auto": a segment whose maximum height
    is positive counts as a barrier.
    """

    width: float
    profile: Profile
    compressible: bool | None = None

    def __post_init__(self):
        if not (self.width > 0.0) or not math.isfinite(self.width):
            raise ValueError(f"segment width must be positive and finite, got {self.width}")

    @property
    def max_height(self) -> float:
        p = self.profile
        if isinstance(p, Constant):
            return p.height
        if isinstance(p, Linear):
            return max(p.start_height, p.start_height + p.slope * self.width)
        return max(p.heights)

    @property
    def min_height(self) -> float:
        p = self.profile
        if isinstance(p, Constant):
            return p.height
        if isinstance(p, Linear):
            return min(p.start_height, p.start_height + p.slope * self.width)
        return min(p.heights)

    @property
    def is_barrier(self) -> bool:
        if self.compressible is not None:
            return self.compressible
        return self.max_height > 0.0


# ----------------------------------------------------------------------
# potential

@dataclass(frozen=True)
class Potential:
    """Ordered segments plus the surrounding media.

    ``v_left`` / ``v_right`` are the floor energies of the incoming and
    outgoing media (both 0 for a barrier embedded in free space).  x = 0
    sits at the left edge of the first segment.
    """

    segments: tuple[Segment, ...]
    v_left: float = 0.0
    v_right: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        _check_finite("medium floors v_left and v_right", self.v_left, self.v_right)

    @property
    def extent(self) -> float:
        return float(sum(s.width for s in self.segments))

    def k_left(self, E: float) -> complex:
        return wave_number(E, self.v_left)

    def k_right(self, E: float) -> complex:
        return wave_number(E, self.v_right)

    def boundaries(self) -> np.ndarray:
        """Cumulative segment edges, starting at 0."""
        xs = np.zeros(len(self.segments) + 1)
        np.cumsum([s.width for s in self.segments], out=xs[1:])
        return xs

    def sample(self, x):
        """Evaluate U(x) (piecewise-linear reading of Sampled profiles).

        Outside the segments the medium floors are returned.
        """
        x = np.asarray(x, dtype=float)
        x0s, ws, u0s, slopes = self.as_linear_pieces()
        out = np.where(x < 0.0, self.v_left, self.v_right).astype(float)
        for x0, w, u0, sl in zip(x0s, ws, u0s, slopes):
            m = (x >= x0) & (x <= x0 + w)
            out = np.where(m, u0 + sl * (x - x0), out)
        return out if out.shape else float(out)

    def as_linear_pieces(self):
        """Break the potential into linear pieces for ODE integration.

        Returns ``(x0, width, u0, slope)`` arrays; piece i covers
        ``[x0[i], x0[i]+width[i]]`` with ``U = u0[i] + slope[i]*(x-x0[i])``.
        """
        x0s, ws, u0s, slopes = [], [], [], []
        x = 0.0
        for s in self.segments:
            p = s.profile
            if isinstance(p, Constant):
                x0s.append(x); ws.append(s.width); u0s.append(p.height); slopes.append(0.0)
            elif isinstance(p, Linear):
                x0s.append(x); ws.append(s.width); u0s.append(p.start_height); slopes.append(p.slope)
            else:
                n = len(p.heights) - 1
                dw = s.width / n
                for i in range(n):
                    x0s.append(x + i * dw); ws.append(dw)
                    u0s.append(p.heights[i]); slopes.append((p.heights[i + 1] - p.heights[i]) / dw)
            x += s.width
        return (np.asarray(x0s), np.asarray(ws), np.asarray(u0s), np.asarray(slopes))

    def as_slabs(self, n_slab: int = 2048):
        """Discretise into constant slabs for the transfer-matrix solver.

        Constant segments map to single slabs.  Non-constant segments are
        cut into ``n_slab`` equal slabs sampled at the slab midpoints
        (midpoint sampling keeps the discretisation error O(1/n^2)).
        Returns ``(widths, heights)`` arrays.
        """
        if n_slab < 1:
            raise ValueError("n_slab must be >= 1")
        # runs of constant slabs collect in lists, sliced profiles stay
        # arrays; a profile never passes through a list of floats
        widths, heights = [], []
        run_w, run_h = [], []
        for s in self.segments:
            p = s.profile
            if isinstance(p, Constant):
                run_w.append(s.width); run_h.append(p.height)
                continue
            dw = s.width / n_slab
            mids = (np.arange(n_slab) + 0.5) * dw
            if isinstance(p, Linear):
                hs = p.start_height + p.slope * mids
            else:
                nodes = np.linspace(0.0, s.width, len(p.heights))
                hs = np.interp(mids, nodes, p.heights)
            widths += [run_w, np.full(n_slab, dw)]; heights += [run_h, hs]
            run_w, run_h = [], []
        if not widths:      # constant slabs only: nothing to join
            return np.asarray(run_w), np.asarray(run_h)
        widths.append(run_w); heights.append(run_h)
        return np.concatenate(widths), np.concatenate(heights)

    def reversed(self) -> "Potential":
        """Mirror image (x -> extent - x); swaps the media."""
        segs = []
        for s in self.segments[::-1]:
            p = s.profile
            if isinstance(p, Linear):
                p = Linear(p.start_height + p.slope * s.width, -p.slope)
            elif isinstance(p, Sampled):
                p = Sampled(p.heights[::-1])
            segs.append(Segment(s.width, p, s.compressible))
        return Potential(tuple(segs), self.v_right, self.v_left)

    def min_height(self) -> float:
        if not self.segments:
            return 0.0
        return min(s.min_height for s in self.segments)

    def max_height(self) -> float:
        if not self.segments:
            return 0.0
        return max(s.max_height for s in self.segments)


# ----------------------------------------------------------------------
# operations

def wave_number(E: float, U: float) -> complex:
    """k = sqrt(E - U) in natural units (hbar = 1, m = 1/2).

    Real for E > U (propagating), positive-imaginary for E < U
    (evanescent, k = i*kappa), and 0 at the turning point E = U.
    """
    return cmath.sqrt(complex(E - U, 0.0))


def build_rect_pair(U: float, a: float, L: float) -> Potential:
    """Two identical rectangular barriers of height U and width a with a
    free gap of length L between them.  L = 0 collapses to one barrier of
    width 2a."""
    if not (a > 0.0):
        raise ValueError(f"barrier width must be positive, got {a}")
    if L < 0.0:
        raise ValueError(f"gap length must be >= 0, got {L}")
    if U < 0.0:
        raise ValueError(f"barrier height must be >= 0, got {U}")
    if L == 0.0:
        return Potential((Segment(2 * a, Constant(U)),))
    return Potential((
        Segment(a, Constant(U)),
        Segment(L, Constant(0.0)),
        Segment(a, Constant(U)),
    ))


def compress(p: Potential, factor: float) -> Potential:
    """Scale every barrier-segment width by ``factor``; well widths stay.

    Which segments count as barriers follows ``Segment.is_barrier``
    (positive max height unless overridden).  Composes multiplicatively:
    ``compress(compress(p, f1), f2) == compress(p, f1*f2)`` on barrier
    widths.
    """
    if not (factor > 0.0) or not math.isfinite(factor):
        raise ValueError(f"compression factor must be positive, got {factor}")
    segs = tuple(
        replace(s, width=s.width * factor) if s.is_barrier else s
        for s in p.segments
    )
    return Potential(segs, p.v_left, p.v_right)


# ----------------------------------------------------------------------
# unit conversions

@dataclass(frozen=True)
class UnitSystem:
    """Conversion between physical units and the internal natural units.

    ``energy_scale`` fixes the Joule value of one internal energy unit
    (default: 1 eV).  The matching length unit follows from hbar = 1,
    m = 1/2: one internal length is ``hbar / sqrt(2 * mass * energy_scale)``
    metres, so that k*x is invariant under the conversion.
    """

    mass: float = M_ELECTRON
    hbar: float = HBAR
    energy_scale: float = EV

    @property
    def length_scale(self) -> float:
        """Metres per internal length unit."""
        return self.hbar / math.sqrt(2.0 * self.mass * self.energy_scale)

    # energy
    def energy_from_ev(self, e):   return np.multiply(e, EV / self.energy_scale)
    def ev_from_energy(self, e):   return np.multiply(e, self.energy_scale / EV)
    def energy_from_erg(self, e):  return np.multiply(e, ERG / self.energy_scale)
    def erg_from_energy(self, e):  return np.multiply(e, self.energy_scale / ERG)

    # length
    def length_from_angstrom(self, x): return np.multiply(x, ANGSTROM / self.length_scale)
    def angstrom_from_length(self, x): return np.multiply(x, self.length_scale / ANGSTROM)
    def length_from_cm(self, x):       return np.multiply(x, CM / self.length_scale)
    def cm_from_length(self, x):       return np.multiply(x, self.length_scale / CM)

    # wave number (reciprocal length)
    def inv_angstrom_from_wavenumber(self, k): return np.multiply(k, ANGSTROM / self.length_scale)
    def inv_cm_from_wavenumber(self, k):       return np.multiply(k, CM / self.length_scale)


NATURAL = "natural"
EV_ANGSTROM = "ev_angstrom"
ERG_CM = "erg_cm"


def convert_in(units: str, us: UnitSystem, energy=None, length=None):
    """Convert one energy or one length from the named unit system."""
    if units == NATURAL:
        return energy if energy is not None else length
    if units == EV_ANGSTROM:
        return us.energy_from_ev(energy) if energy is not None else us.length_from_angstrom(length)
    if units == ERG_CM:
        return us.energy_from_erg(energy) if energy is not None else us.length_from_cm(length)
    raise ValueError(f"unknown unit system {units!r}")


def convert_out(units: str, us: UnitSystem, energy=None, length=None):
    if units == NATURAL:
        return energy if energy is not None else length
    if units == EV_ANGSTROM:
        return us.ev_from_energy(energy) if energy is not None else us.angstrom_from_length(length)
    if units == ERG_CM:
        return us.erg_from_energy(energy) if energy is not None else us.cm_from_length(length)
    raise ValueError(f"unknown unit system {units!r}")


# ----------------------------------------------------------------------
# segment records
#
# A segment record is a kind plus named number fields in a declared unit
# system.  The potential file names the fields (``width=2.8``); the CLI
# ``segments`` key lists them positionally in the order below.

_SEGMENT_FIELDS = {
    "const": ("width", "height"),
    "constant": ("width", "height"),
    "gap": ("width",),
    "linear": ("width", "start", "slope"),
    "sampled": ("width", "heights"),
}


def _segment(kind: str, fields: dict[str, str], units: str, us: UnitSystem) -> Segment:
    """One segment from its record fields, converted to internal units.

    Raises ValueError for an unknown kind, a missing field or a bad number.
    """
    kind = kind.lower()
    if kind not in _SEGMENT_FIELDS:
        raise ValueError(f"unknown segment kind {kind!r}")
    if not set(_SEGMENT_FIELDS[kind]) <= fields.keys():
        raise ValueError(f"{kind} segment needs {', '.join(_SEGMENT_FIELDS[kind])}")

    def e_in(v): return float(convert_in(units, us, energy=float(v)))

    width = float(convert_in(units, us, length=float(fields["width"])))
    if kind == "gap":
        profile = Constant(0.0)
    elif kind == "linear":
        # slope converts as energy/length
        slope = float(fields["slope"]) * e_in(1.0) / float(convert_in(units, us, length=1.0))
        profile = Linear(e_in(fields["start"]), slope)
    elif kind == "sampled":
        profile = Sampled(tuple(e_in(h) for h in fields["heights"].split(",")))
    else:
        profile = Constant(e_in(fields["height"]))
    comp = fields.get("compressible")
    return Segment(width, profile, None if comp is None else comp.lower() in ("1", "true", "yes"))


# ----------------------------------------------------------------------
# potential definition file
#
# Line-oriented text, '#' starts a comment.  Header lines are
# "key value" with keys: units (natural|ev_angstrom|erg_cm), v_left,
# v_right.  Each segment is one record:
#
#   segment const   width=<w> height=<h> [compressible=true|false]
#   segment linear  width=<w> start=<h0> slope=<dU/dx>
#   segment sampled width=<w> heights=<h1,h2,...>
#
# Numbers are interpreted in the declared unit system and converted to
# internal units on load.

def load_potential(path: str | Path, us: UnitSystem | None = None) -> Potential:
    us = us or UnitSystem()
    units = NATURAL
    v_left = 0.0
    v_right = 0.0
    segs: list[Segment] = []

    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        try:
            if key == "units":
                units = parts[1].lower()
                if units not in (NATURAL, EV_ANGSTROM, ERG_CM):
                    raise ValueError(f"unknown units {units!r}")
            elif key == "v_left":
                v_left = float(convert_in(units, us, energy=float(parts[1])))
            elif key == "v_right":
                v_right = float(convert_in(units, us, energy=float(parts[1])))
            elif key == "segment":
                fields = {}
                for tok in parts[2:]:
                    k, _, v = tok.partition("=")
                    fields[k.lower()] = v
                segs.append(_segment(parts[1], fields, units, us))
            else:
                raise ValueError(f"unknown record {key!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed record {line!r}: {exc}") from exc
    return Potential(tuple(segs), v_left, v_right)


def save_potential(p: Potential, path: str | Path, units: str = NATURAL,
                   us: UnitSystem | None = None) -> None:
    us = us or UnitSystem()

    def e_out(v): return repr(float(convert_out(units, us, energy=v)))
    def x_out(v): return repr(float(convert_out(units, us, length=v)))

    lines = [f"units {units}", f"v_left {e_out(p.v_left)}", f"v_right {e_out(p.v_right)}"]
    for s in p.segments:
        extra = "" if s.compressible is None else f" compressible={str(s.compressible).lower()}"
        pr = s.profile
        if isinstance(pr, Constant):
            lines.append(f"segment const width={x_out(s.width)} height={e_out(pr.height)}{extra}")
        elif isinstance(pr, Linear):
            sl = pr.slope * float(convert_out(units, us, energy=1.0)) / float(convert_out(units, us, length=1.0))
            lines.append(f"segment linear width={x_out(s.width)} start={e_out(pr.start_height)} slope={sl!r}{extra}")
        else:
            hs = ",".join(e_out(h) for h in pr.heights)
            lines.append(f"segment sampled width={x_out(s.width)} heights={hs}{extra}")
    Path(path).write_text("\n".join(lines) + "\n")
