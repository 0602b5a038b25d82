"""Scattering composition algebra for chained barriers.

Two scatterers joined by a free gap of length L in a medium with wave
number k interfere through the round-trip factor R_rev1 * R2 * exp(2ikL);
summing the multiple reflections gives (extent-referenced conventions of
:mod:`barrier1d.oracle`):

    T12     = T1 T2 exp(ikL) / den
    R12     = R1 + T1 T_rev1 R2 exp(2ikL) / den
    R_rev12 = R_rev2 + T2 T_rev2 R_rev1 exp(2ikL) / den
    T_rev12 = T_rev1 T_rev2 exp(ikL) / den
    den     = 1 - R_rev1 R2 exp(2ikL)

Because the transmission amplitudes carry the propagation phase across
their own extent, no barrier widths appear; the classic
translation-invariant ("global") form of the same identities, where the
barrier-width phases are explicit, is recovered by stripping
exp(ik*extent) from each T (see tests).

The total transmittance obeys

    D1 D2 / (1 + r)^2  <=  D  <=  D1 D2 / (1 - r)^2,      r = |R_rev1 R2|

and D = 1 exactly when R_rev1 = conj(R2) exp(-2ikL) (resonance condition).

A scalar loss channel generalises the algebra: thin slabs acquire
-w*dx in reflection and -w'*dx in transmission, the gap join becomes the
closed-form flow of the constant-coefficient reflection Riccati equation,
and |T|^2 + |R|^2 = 1 - W with W in [0, 1] for dissipative loss.
Transmission reciprocity T = T_rev survives the generalisation; only the
reflection phases split.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._kernels import _BLOCK_ROWS, _cs
from .oracle import Barrier1dError, ScatterData, solve_exact
from .potential import Potential

__all__ = [
    "GapJoin",
    "LossModel",
    "HeightDistribution",
    "FluctuationResult",
    "PairTransmittance",
    "ResonantDenominatorError",
    "LossRangeError",
    "compose_pair",
    "compose_pair_lossy",
    "compose_chain",
    "transmittance_pair",
    "resonance_condition_met",
    "three_barrier_closed_form",
    "averaged_transmittance_center_fluct",
    "lossy_gap_data",
]


class ResonantDenominatorError(Barrier1dError, ZeroDivisionError):
    """Round-trip denominator vanished (exactly self-consistent trap mode)."""


class LossRangeError(Barrier1dError, ValueError):
    """Loss parameters drove the flux deficit W outside [0, 1]."""


@dataclass(frozen=True)
class GapJoin:
    """Free gap of length L >= 0 in a medium with wave number k."""

    L: float
    k: float

    def __post_init__(self):
        if not math.isfinite(self.L) or self.L < 0.0:
            raise ValueError(f"gap length must be finite and >= 0, got {self.L}")
        if not (self.k > 0.0):
            raise ValueError(f"gap wave number must be positive, got {self.k}")


@dataclass(frozen=True)
class LossModel:
    """Per-length loss densities: w acts on reflection, w_prime on
    transmission.  Positive real parts are dissipative."""

    w: complex = 0.0
    w_prime: complex = 0.0

    @property
    def is_zero(self) -> bool:
        return self.w == 0.0 and self.w_prime == 0.0


class PairTransmittance(NamedTuple):
    D: float
    D_min: float
    D_max: float


def _check_join(s1: ScatterData, gap: GapJoin, s2: ScatterData):
    k = gap.k
    if abs(s1.k_right - k) > 1e-9 * max(1.0, k) or abs(s2.k_left - k) > 1e-9 * max(1.0, k):
        raise ValueError(
            f"media mismatch at join: s1.k_right={s1.k_right}, gap.k={k}, "
            f"s2.k_left={s2.k_left}")


def _den(s1: ScatterData, gap: GapJoin, s2: ScatterData) -> complex:
    den = 1.0 - s1.R_rev * s2.R * cmath.exp(2j * gap.k * gap.L)
    if abs(den) < 1e-14:
        raise ResonantDenominatorError(
            f"round-trip denominator |1 - R_rev1 R2 e^(2ikL)| = {abs(den):.3e} "
            f"at L = {gap.L}")
    return den


def compose_pair(s1: ScatterData, gap: GapJoin, s2: ScatterData) -> ScatterData:
    """Join two scatterers across a free gap by resumming the internal
    multiple reflections."""
    _check_join(s1, gap, s2)
    ph2 = cmath.exp(2j * gap.k * gap.L)
    g = cmath.exp(1j * gap.k * gap.L)
    den = _den(s1, gap, s2)
    T = s1.T * s2.T * g / den
    R = s1.R + s1.T * s1.T_rev * s2.R * ph2 / den
    T_rev = s1.T_rev * s2.T_rev * g / den
    R_rev = s2.R_rev + s2.T * s2.T_rev * s1.R_rev * ph2 / den
    w = 1.0 - (s2.k_right / s1.k_left) * abs(T) ** 2 - abs(R) ** 2
    return ScatterData(T=T, R=R, T_rev=T_rev, R_rev=R_rev,
                       k_left=s1.k_left, k_right=s2.k_right,
                       extent=s1.extent + gap.L + s2.extent,
                       loss=w if abs(w) > 1e-9 else 0.0)


def transmittance_pair(s1: ScatterData, gap: GapJoin, s2: ScatterData) -> PairTransmittance:
    """Total transmittance of the joined pair plus the analytic
    phase-independent bounds D1 D2 / (1 +- |R_rev1 R2|)^2."""
    _check_join(s1, gap, s2)
    den = _den(s1, gap, s2)
    d1 = s1.D
    d2 = s2.D
    d = d1 * d2 / (den * den.conjugate()).real
    r = abs(s1.R_rev) * abs(s2.R)
    return PairTransmittance(D=d, D_min=d1 * d2 / (1.0 + r) ** 2,
                             D_max=d1 * d2 / (1.0 - r) ** 2 if r < 1.0 else math.inf)


def resonance_condition_met(s1: ScatterData, s2: ScatterData, gap: GapJoin,
                            tol: float = 1e-9) -> tuple[bool, float]:
    """Unit-transmission condition R_rev1 = conj(R2) exp(-2ikL).

    Returns (met, residual) with residual = |R_rev1 - conj(R2) e^(-2ikL)|.
    Equal moduli |R_rev1| = |R2| are necessary; the gap length can then
    always align the phases.
    """
    residual = abs(s1.R_rev - s2.R.conjugate() * cmath.exp(-2j * gap.k * gap.L))
    return residual < tol, residual


def compose_chain(items: Sequence[ScatterData | GapJoin]) -> ScatterData:
    """Left fold of :func:`compose_pair` over an alternating sequence
    ``[scatterer, gap, scatterer, gap, ...]`` of odd length."""
    if not items:
        raise ValueError("empty chain")
    if len(items) % 2 == 0:
        raise ValueError("chain must alternate scatterer/gap and end on a scatterer")
    acc = items[0]
    if not isinstance(acc, ScatterData):
        raise TypeError("chain must start with a ScatterData")
    for i in range(1, len(items), 2):
        gap, s = items[i], items[i + 1]
        if not isinstance(gap, GapJoin) or not isinstance(s, ScatterData):
            raise TypeError("chain must alternate ScatterData and GapJoin")
        acc = compose_pair(acc, gap, s)
    return acc


def three_barrier_closed_form(s1: ScatterData, L1: float, s2: ScatterData,
                              L2: float, s3: ScatterData) -> float:
    """Closed-form total transmittance of three barriers, written out as a
    single expanded denominator (translation-invariant transmission
    amplitudes, explicit width phase for the middle barrier).  Provided as
    an independent expression to check the pairwise fold against."""
    k = s1.k_right
    for s in (s1, s2, s3):
        if abs(s.k_left - k) > 1e-9 * k or abs(s.k_right - k) > 1e-9 * k:
            raise ValueError("closed form assumes one common medium")
    t2g = s2.T * cmath.exp(-1j * k * s2.extent)
    a2 = s2.extent
    e = lambda length: cmath.exp(2j * k * length)
    den = (1.0
           - s1.R_rev * s2.R * e(L1)
           - s2.R_rev * s3.R * e(L2)
           + s1.R_rev * s2.R_rev * s2.R * s3.R * e(L1 + L2)
           - s1.R_rev * t2g * t2g * s3.R * e(a2 + L1 + L2))
    d123 = s1.D * s2.D * s3.D
    return d123 / (den * den.conjugate()).real


# ----------------------------------------------------------------------
# loss

def lossy_gap_data(gap: GapJoin, loss: LossModel) -> ScatterData:
    """Scattering data of a free gap with uniform loss densities.

    The constant-coefficient reflection equation over the gap,
    dR/dx = -w - (2ik - 2w') R - w R^2 (sign conventions as in
    :mod:`barrier1d.riccati`), is the Moebius flow of the 2x2 system
    d/dx (A, B) = G (A, B) with traceless G, solved exactly through
    exp(G L) = cosh(mu L) I + sinh(mu L)/mu * G, mu^2 = -det G.
    """
    k, L = gap.k, gap.L
    w, wp = complex(loss.w), complex(loss.w_prime)
    g11 = -(1j * k - wp)
    mu2 = (1j * k - wp) ** 2 - w ** 2
    mu = cmath.sqrt(mu2)
    if abs(mu * L) > 1e-8:
        ch = cmath.cosh(mu * L)
        shm = cmath.sinh(mu * L) / mu
    else:
        z = mu2 * L * L
        ch = 1.0 + z / 2.0 + z * z / 24.0
        shm = L * (1.0 + z / 6.0 + z * z / 120.0)
    a = ch + g11 * shm
    b = -w * shm
    if abs(a) < 1e-300:
        raise ResonantDenominatorError("lossy gap propagator degenerate")
    T = 1.0 / a
    R = b / a
    out = ScatterData(T=T, R=R, T_rev=T, R_rev=R, k_left=k, k_right=k,
                      extent=L, loss=1.0 - abs(T) ** 2 - abs(R) ** 2)
    return out


def _check_w(s: ScatterData):
    for d, tag in ((s.flux_defect(), "left"), ((s.reversed()).flux_defect(), "right")):
        if d < -1e-9 or d > 1.0 + 1e-9:
            raise LossRangeError(
                f"flux deficit W = {d:.6g} ({tag}-incident) outside [0, 1]; "
                "loss densities too large or of pumping sign")


def compose_pair_lossy(s1: ScatterData, gap: GapJoin, s2: ScatterData,
                       loss: LossModel | None = None) -> ScatterData:
    """Like :func:`compose_pair` but the gap itself may attenuate.

    ``s1``/``s2`` may already be lossy (built from lossy thin slabs); the
    interference algebra is unchanged.  The resulting flux deficit is
    checked to lie in [0, 1].  Zero loss reduces exactly to
    :func:`compose_pair`.
    """
    _check_join(s1, gap, s2)
    if loss is None or loss.is_zero:
        out = compose_pair(s1, gap, s2)
    else:
        zero = GapJoin(0.0, gap.k)
        out = compose_pair(compose_pair(s1, zero, lossy_gap_data(gap, loss)), zero, s2)
    _check_w(out)
    return out


# ----------------------------------------------------------------------
# fluctuation averaging

@dataclass(frozen=True)
class HeightDistribution:
    """Symmetric height distribution for the fluctuating central slab."""

    kind: str            # "uniform" (mean +- spread) or "normal" (sigma = spread)
    mean: float
    spread: float

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (math.isfinite(self.mean) and math.isfinite(self.spread)) or self.spread < 0.0:
            raise ValueError("distribution parameters must be finite, spread >= 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.mean - self.spread, self.mean + self.spread, n)
        return rng.normal(self.mean, self.spread, n)


class FluctuationResult(NamedTuple):
    mean_D: float
    half_width: float     # 1.96 * standard error of the mean
    D_at_mean: float
    samples: int
    seed: int


def _slab_pair_d(s_left: ScatterData, s_right: ScatterData, width: float,
                 heights: np.ndarray, E: float, k: float) -> np.ndarray:
    """Vectorised D of [left][thin slab (height array)][right], zero gaps."""
    q2 = E - np.asarray(heights, dtype=float)
    c, s = _cs(q2, width)
    # amplitude matrix of the symmetric slab embedded in medium k
    u = k * s + q2 * s / k
    v = k * s - q2 * s / k
    a22 = c - 0.5j * u
    t_c = 1.0 / a22                    # = T = T_rev of the slab
    r_c = -0.5j * v / a22              # = R = R_rev of the slab
    # join left barrier to slab (L = 0)
    den1 = 1.0 - s_left.R_rev * r_c
    t1 = s_left.T * t_c / den1
    rr1 = r_c + t_c * t_c * s_left.R_rev / den1
    # join to right barrier
    den2 = 1.0 - rr1 * s_right.R
    t_tot = t1 * s_right.T / den2
    return (s_right.k_right / s_left.k_left) * np.abs(t_tot) ** 2


def averaged_transmittance_center_fluct(
        outer_left: Potential, outer_right: Potential, center_width: float,
        dist: HeightDistribution, E: float, samples: int = 100_000,
        seed: int = 0) -> FluctuationResult:
    """Monte-Carlo mean transmittance with a fluctuating thin central slab.

    The two outer barriers touch the central slab (no gaps); only the slab
    height fluctuates, drawn from the symmetric ``dist``.  Returns the
    sample mean with a 95% half-width alongside D evaluated at the mean
    height for comparison.

    All heights are drawn at once, and D is evaluated over blocks of
    ``_kernels._BLOCK_ROWS`` (8,192) samples into one preallocated array,
    so the result has the bits of a single evaluation over all samples.
    The heights and D take 16 bytes per sample, the temporaries of one
    block about 1.5 MB whatever ``samples`` is, and the spread afterwards
    one more 8 bytes per sample, so the peak is the larger of 16 bytes per
    sample plus 1.5 MB and 24 bytes per sample: 3.1 MB at 100,000 samples
    (tracemalloc), where one full-length evaluation peaked at 18.4 MB.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not (center_width > 0.0):
        raise ValueError("center slab width must be positive")
    s_l = solve_exact(outer_left, E)
    s_r = solve_exact(outer_right, E)
    k = s_l.k_right
    rng = np.random.default_rng(seed)
    hs = dist.sample(rng, samples)
    d = np.empty(samples)
    for i in range(0, samples, _BLOCK_ROWS):
        d[i:i + _BLOCK_ROWS] = _slab_pair_d(s_l, s_r, center_width,
                                            hs[i:i + _BLOCK_ROWS], E, k)
    d_mean_height = float(_slab_pair_d(s_l, s_r, center_width,
                                       np.array([dist.mean]), E, k)[0])
    mean = float(np.mean(d))
    se = float(np.std(d, ddof=1) / math.sqrt(samples))
    return FluctuationResult(mean_D=mean, half_width=1.96 * se,
                             D_at_mean=d_mean_height, samples=samples, seed=seed)
