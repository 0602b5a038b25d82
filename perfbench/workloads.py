"""Seeded benchmark workloads for barrier1d.

Each workload is a list of tasks.  A task is one user-level call into the
public API or the CLI (a spectrum, a level set, a band set, a CLI run) plus
an untimed check that compares its output with an independent route:

* whole-potential solve against ``compose_chain`` of the separately solved
  pieces;
* Riccati endpoint D against the slab transfer product;
* shooting levels against determinant levels (and back);
* band count and edges against a unit-cell trace grid 100x finer, computed
  here with numpy;
* closed-form resonant gaps against the phase search and, for energies,
  against a re-solve by composition.

Inputs depend only on the seed and the round: each round of a run gets
fresh inputs, so no call is timed on inputs it has seen before.  Sizes that
set the cost of a task (slab counts, grid sizes, energy counts, well
counts, the total phase length of a well system) are fixed and follow the
library's and the CLI's defaults, so a second seed or round changes the
numbers but not the amount of work or the task mix.  The program only ever
receives the generated ``Potential``/``WellSystem`` objects and INI files.

Known-defect probes are kept apart from the tasks: they run inputs from the
regions where the program is known to fail today (opaque resonant pairs,
cells whose second band is narrower than the default grid step) and report
how many still fail.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import barrier1d as b1
import barrier1d.cli  # noqa: F401  (makes b1.cli resolvable at call time)
from barrier1d import Constant, Linear, Potential, Sampled, Segment, WellSystem

WORKLOADS = ("profile_scan", "chain_scan", "spectra")

# Every call into barrier1d below goes through the module attribute at call
# time (``b1.solve_exact(...)``), so the tracer's rebinding sees it.


@dataclass
class Task:
    """One timed call and its untimed independent check.

    ``check`` returns None when the output agrees with the independent
    route, or a one-line reason when it does not.  ``spec`` describes the
    inputs; it is what changes between seeds.
    """

    kind: str
    spec: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Probe:
    """An input from a known-defect region; ``run`` returns a failure
    reason or None, and may raise."""

    spec: str
    run: Callable[[], str | None]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    probes: list[Probe]

    def kinds(self) -> list[str]:
        return [t.kind for t in self.tasks]


def build(name: str, seed: int, workdir: str | Path, round_: int = 0) -> Workload:
    """Generate the task list of round ``round_`` of workload ``name`` from
    ``seed``.

    CLI tasks write their INI files into ``workdir`` here, and their output
    files there when they run.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), WORKLOADS.index(name), int(round_)]))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    generate = {"profile_scan": _profile_scan, "chain_scan": _chain_scan,
                "spectra": _spectra}[name]
    tasks, probes = generate(rng, workdir)
    return Workload(name, tasks, probes)


# ----------------------------------------------------------------------
# independent numerics (numpy, no barrier1d code)

def slab_product(widths, heights, energies):
    """(psi, psi') transfer matrix of constant slabs, vectorised over rows.

    ``energies`` is an array of shape (n,); each entry of ``heights`` is a
    scalar or an array of shape (n,).  No rescaling: callers keep the
    stacks moderately opaque.
    """
    E = np.asarray(energies, dtype=float)
    m11 = np.ones_like(E); m12 = np.zeros_like(E)
    m21 = np.zeros_like(E); m22 = np.ones_like(E)
    for w, h in zip(widths, heights):
        q2 = E - np.asarray(h, dtype=float)
        q = np.sqrt(np.abs(q2))
        qw = q * w
        above = q2 > 0.0
        c = np.where(above, np.cos(qw), np.cosh(qw))
        tiny = qw < 1e-12
        s = np.where(tiny, w, np.where(above, np.sin(qw), np.sinh(qw)) / np.where(tiny, 1.0, q))
        d = -q2 * s
        m11, m12, m21, m22 = (c * m11 + s * m21, c * m12 + s * m22,
                              d * m11 + c * m21, d * m12 + c * m22)
    return m11, m12, m21, m22


def free_space_D(widths, heights, E, k):
    """Flux transmittance of constant slabs embedded in free space."""
    m11, m12, m21, m22 = slab_product(widths, heights, E)
    return 4.0 / ((m11 + m22) ** 2 + (k * m12 - m21 / k) ** 2)


def fine_bands(widths, heights, lo, hi, n):
    """Allowed runs |trace| <= 2 on an n-point grid; returns (bands, step)."""
    es = np.linspace(lo, hi, n)
    trace = np.empty_like(es)
    for i in range(0, n, 4096):     # chunks that stay in cache: 1.7x faster
        m11, _, _, m22 = slab_product(widths, heights, es[i:i + 4096])
        trace[i:i + 4096] = m11 + m22
    allowed = np.abs(trace) <= 2.0
    edges = np.flatnonzero(np.diff(np.concatenate(([0], allowed.astype(np.int8), [0]))))
    starts, stops = edges[0::2], edges[1::2] - 1
    return [(float(es[i]), float(es[j])) for i, j in zip(starts, stops)], float(es[1] - es[0])


def resonant_gap(U, a, E):
    """Closed-form resonant gap of two identical rectangular barriers
    (first family member on the branch the CLI uses)."""
    k = math.sqrt(E)
    kap = math.sqrt(U - E)
    tb = (U - 2.0 * E) * math.tanh(kap * a) / (2.0 * math.sqrt(E * (U - E)))
    ac = math.acos(-(1.0 - tb * tb) / (1.0 + tb * tb))
    if E >= U / 2.0:
        return ac / (2.0 * k)
    return (2.0 * math.pi - ac) / (2.0 * k)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _bands_reason(got, widths, heights, lo, hi, grid):
    """Compare a band list with the trace grid 100x finer."""
    ref, step = fine_bands(widths, heights, lo, hi, 100 * grid)
    if len(got) != len(ref):
        return f"{len(got)} bands, fine trace grid finds {len(ref)}"
    for (g_lo, g_hi), (r_lo, r_hi) in zip(got, ref):
        if abs(g_lo - r_lo) > 2.0 * step or abs(g_hi - r_hi) > 2.0 * step:
            return f"band ({g_lo:.9g}, {g_hi:.9g}) vs fine grid ({r_lo:.9g}, {r_hi:.9g})"
    return None


def _levels_reason(got, ref, what):
    if len(got) != len(ref):
        return f"{len(got)} levels, {what} finds {len(ref)}"
    worst = max((_rel(g, r) for g, r in zip(got, ref)), default=0.0)
    if worst > 1e-7:
        return f"levels differ from {what} by {worst:.2e} relative"
    return None


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _energy_grid(rng, lo, hi, n):
    """n evenly spaced energies over a seeded sub-range of (lo, hi), as the
    CLI lays out ``e_min``/``e_max``/``e_steps``."""
    span = hi - lo
    e_lo = lo + span * _u(rng, 0.0, 0.2)
    e_hi = hi - span * _u(rng, 0.0, 0.2)
    return tuple(float(e) for e in np.linspace(e_lo, e_hi, n))


def _segments_ini(segs):
    """CLI ``segments =`` value for constant segments (natural units)."""
    out = []
    for s in segs:
        h = s.profile.height
        out.append(f"gap {s.width!r}" if h == 0.0 else f"const {s.width!r} {h!r}")
    return " ; ".join(out)


def _read_csv(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _cli(argv, out_path):
    """Exit code and a digest of the output file (the check reads the file)."""
    rc = b1.cli.main(argv)
    return rc, hashlib.sha256(Path(out_path).read_bytes()).hexdigest() if rc == 0 else ""


# ----------------------------------------------------------------------
# profile_scan: long slab products (2048 slabs per non-constant segment)
# plus Riccati trajectories in all three forms on the same profiles

# A spectrum is an evenly spaced energy grid of the CLI's default size
# (``transmit`` without ``e_steps``).  A trajectory is one form at one
# energy, as the shipped riccati_trajectory config asks.  Per profile, two
# spectra and trajectories in each of the three forms at four energies, one
# in each quarter of the range: task_p90_ms falls among the spectra, all of
# one cost, and task_p50_ms among the trajectories, whose adaptive step
# counts vary 5x with the profile and the energy, so their median needs
# hundreds of samples per run.
N_PROFILES = 2
SPECTRA_PER_PROFILE = 2
SPECTRUM_ENERGIES = 50
RICCATI_FORMS = ("complex", "real", "alpha")
RICCATI_ENERGIES = 4


def _profile(rng, i):
    """A linear ramp (even i) or a sampled segment (odd i) next to a
    constant slab: 2,049 slabs at the default discretisation."""
    if i % 2:
        shaped = Segment(_u(rng, 1.5, 3.0),
                         Sampled(tuple(rng.uniform(-0.3, 1.4, int(rng.integers(4, 13))))))
    else:
        shaped = Segment(_u(rng, 1.5, 3.0), Linear(_u(rng, -0.2, 1.2), _u(rng, -0.4, 0.4)))
    slab = Segment(_u(rng, 0.3, 1.0), Constant(_u(rng, -0.3, 1.2)))
    return Potential((shaped, slab) if rng.integers(0, 2) else (slab, shaped))


def _profile_scan(rng, workdir):
    tasks = []
    for i in range(N_PROFILES):
        p = _profile(rng, i)
        for _ in range(SPECTRA_PER_PROFILE):
            es = _energy_grid(rng, 0.2, 2.5, SPECTRUM_ENERGIES)
            sample = int(rng.integers(0, SPECTRUM_ENERGIES))
            tasks.append(Task("spectrum", repr((p, es)), _spectrum_run(p, es),
                              _spectrum_check(p, es, sample)))
        for j in range(RICCATI_ENERGIES):
            E = 0.3 + 2.2 * (j + _u(rng, 0.0, 1.0)) / RICCATI_ENERGIES
            for form in RICCATI_FORMS:
                tasks.append(Task(f"riccati_{form}", repr((p, E, form)),
                                  _riccati_run(p, E, form), _riccati_check(p, E)))
    return tasks, []


def _spectrum_run(p, es):
    def run():
        out = []
        for E in es:
            s = b1.solve_exact(p, E)
            out.append((s.D, abs(s.R) ** 2))
        return tuple(out)
    return run


def _composed(pieces, gaps, E):
    """compose_chain over separately solved pieces joined by free gaps."""
    k = math.sqrt(E)
    items = [b1.solve_exact(pieces[0], E)]
    for gap, piece in zip(gaps, pieces[1:]):
        items += [b1.GapJoin(gap, k), b1.solve_exact(piece, E)]
    return b1.compose_chain(items).D


def _spectrum_check(p, es, i):
    """Unitarity at every energy, composition at the seeded energy ``i``."""
    pieces = [Potential((s,)) for s in p.segments]
    gaps = [0.0] * (len(pieces) - 1)

    def check(out):
        for E, (D, R2) in zip(es, out):
            if abs(1.0 - D - R2) > 1e-9:
                return f"flux defect {1.0 - D - R2:.2e} at E={E!r}"
        ref = _composed(pieces, gaps, es[i])
        if _rel(out[i][0], ref) > 1e-9:
            return f"D={out[i][0]!r} vs compose_chain {ref!r} at E={es[i]!r}"
        return None
    return check


def _riccati_run(p, E, form):
    def run():
        if form == "complex":
            sd, traj = b1.integrate_complex(p, E, keep_trajectory=True)
        else:
            f = b1.integrate_real if form == "real" else b1.integrate_alpha_form
            traj = f(p, E)
            sd = traj.scatter_data()
        return (len(traj), sd.D, float(traj.rho[-1]), float(traj.delta[-1]))
    return run


def _riccati_check(p, E):
    def check(out):
        ref = b1.solve_exact(p, E).D
        if _rel(out[1], ref) > 1e-5:
            return f"Riccati D={out[1]!r} vs slab product {ref!r} at E={E!r}"
        return None
    return check


# ----------------------------------------------------------------------
# chain_scan: many short solves on rectangular chains of 2-12 barriers

CHAIN_SIZES = (2, 4, 6, 8, 10, 12)
CHAIN_REPEATS = 3
CHAIN_ENERGIES = 50             # spectra and compositions: the CLI's default e_steps
TRANSMIT_STEPS = (50, 50)       # CLI transmit defaults of e_steps and l_steps
TRANSMIT_BARRIERS = 4           # as in the shipped two_pair_transmittance config
TRANSMIT_RUNS = 2               # per repeat; with the density search, the costliest tasks
ENSEMBLE_SAMPLES = 100_000      # as in the shipped ensemble_fluctuation config
DENSITY_N = (2, 4, 8, 12)       # on the default grid of 2,000 energies


def _rect_chain(rng, nb):
    heights = rng.uniform(0.5, 1.5, nb)
    widths = rng.uniform(0.3, 1.0, nb)
    gaps = rng.uniform(0.5, 3.0, nb - 1)
    segs = []
    for i in range(nb):
        if i:
            segs.append(Segment(float(gaps[i - 1]), Constant(0.0)))
        segs.append(Segment(float(widths[i]), Constant(float(heights[i]))))
    return Potential(tuple(segs))


def _split_chain(p):
    """Barrier pieces and gap lengths of a constant chain (gaps at 0)."""
    pieces = [Potential((s,)) for s in p.segments[0::2]]
    gaps = [s.width for s in p.segments[1::2]]
    return pieces, gaps


def _chain_scan(rng, workdir):
    tasks = []
    for rep in range(CHAIN_REPEATS):
        for nb in CHAIN_SIZES:
            p = _rect_chain(rng, nb)
            es = _energy_grid(rng, 0.05, 2.0, CHAIN_ENERGIES)
            sample = tuple(int(i) for i in rng.choice(CHAIN_ENERGIES, 4, replace=False))
            tasks.append(Task("chain_spectrum", repr((p, es)), _chain_spectrum_run(p, es),
                              _chain_spectrum_check(p, es, sample)))
        for nb in CHAIN_SIZES:
            p = _rect_chain(rng, nb)
            es = _energy_grid(rng, 0.05, 2.0, CHAIN_ENERGIES)
            tasks.append(Task("compose_chain", repr((p, es)), _compose_run(p, es),
                              _compose_check(p, es)))
        for j in range(TRANSMIT_RUNS):
            tasks.append(_cli_transmit_task(rng, _rect_chain(rng, TRANSMIT_BARRIERS), workdir,
                                            f"transmit-{rep}-{j}"))
        for _ in range(2):
            tasks.append(_resonant_gap_task(rng))
        for _ in range(2):
            tasks.append(_ensemble_task(rng))
        for _ in range(3):
            tasks.append(_find_resonant_E_task(rng))
        tasks.append(_density_task(rng))
    probes = [_opaque_pair_probe(_u(rng, 13.0, 15.0)) for _ in range(3)]
    return tasks, probes


def _chain_spectrum_run(p, es):
    return lambda: tuple(b1.solve_exact(p, E).D for E in es)


def _chain_spectrum_check(p, es, sample):
    pieces, gaps = _split_chain(p)

    def check(out):
        for i in sample:
            ref = _composed(pieces, gaps, es[i])
            if _rel(out[i], ref) > 1e-8:
                return f"D={out[i]!r} vs compose_chain {ref!r} at E={es[i]!r}"
        return None
    return check


def _compose_run(p, es):
    pieces, gaps = _split_chain(p)
    return lambda: tuple(_composed(pieces, gaps, E) for E in es)


def _compose_check(p, es):
    def check(out):
        for E, D in zip(es, out):
            ref = b1.solve_exact(p, E).D
            if _rel(D, ref) > 1e-8:
                return f"compose_chain D={D!r} vs whole solve {ref!r} at E={E!r}"
        return None
    return check


def _cli_transmit_task(rng, p, workdir, stem):
    n_gaps = (len(p.segments) - 1) // 2
    gap_segment = 2 * int(rng.integers(0, n_gaps)) + 1
    e_lo = _u(rng, 0.05, 0.5)
    l_lo = _u(rng, 0.3, 1.0)
    e_steps, l_steps = TRANSMIT_STEPS
    n_rows = e_steps * l_steps
    ini = workdir / f"{stem}.ini"
    out = workdir / f"{stem}.csv"
    ini.write_text(
        "[potential]\nunits = natural\n"
        f"segments = {_segments_ini(p.segments)}\n\n"
        f"[transmit]\ne_min = {e_lo!r}\ne_max = {e_lo + 1.5!r}\ne_steps = {e_steps}\n"
        f"l_min = {l_lo!r}\nl_max = {l_lo + 2.5!r}\nl_steps = {l_steps}\n"
        f"gap_segment = {gap_segment}\n")
    argv = ["transmit", "--config", str(ini), "--out", str(out)]
    rows_to_check = tuple(int(i) for i in rng.choice(n_rows, 4, replace=False))

    def check(result):
        rc, _ = result
        if rc != 0:
            return f"barrier1d transmit exited with {rc}"
        rows = _read_csv(out)
        if len(rows) != n_rows or any(r[7] != "ok" for r in rows):
            return "transmit rows missing or not ok"
        for i in rows_to_check:
            E, L, D = float(rows[i][0]), float(rows[i][1]), float(rows[i][2])
            segs = list(p.segments)
            segs[gap_segment] = Segment(L, Constant(0.0))
            pieces, gaps = _split_chain(Potential(tuple(segs)))
            ref = _composed(pieces, gaps, E)
            if _rel(D, ref) > 1e-8:
                return f"transmit D={D!r} vs compose_chain {ref!r} at E={E!r}, L={L!r}"
        return None
    return Task("cli_transmit", ini.read_text(), lambda: _cli(argv, out), check)


def _resonant_gap_task(rng):
    U = _u(rng, 0.5, 1.5)
    E = U * _u(rng, 0.15, 0.85)
    a = _u(rng, 0.5, 4.0 / math.sqrt(U - E))      # 2 kappa a <= 8
    n = 0 if E >= U / 2.0 else 1

    def run():
        L = b1.rect_pair_resonant_L(U, a, E, n)
        s = b1.solve_exact(Potential((Segment(a, Constant(U)),)), E)
        fam = b1.find_resonant_L(s, s, E, (0.0, 4.0 * L + 1.0))
        members = fam.members()
        return L, float(members[np.argmin(np.abs(members - L))])

    def check(out):
        L, L_search = out
        if abs(L - L_search) > 1e-8 * max(1.0, L):
            return f"closed-form gap {L!r} vs phase search {L_search!r}"
        s = b1.solve_exact(Potential((Segment(a, Constant(U)),)), E)
        D = b1.compose_pair(s, b1.GapJoin(L_search, math.sqrt(E)), s).D
        if abs(D - 1.0) > 1e-8:
            return f"re-solve at the resonant gap gives D={D!r}"
        return None
    return Task("resonant_gap", repr((U, a, E, n)), run, check)


def _find_resonant_E_task(rng):
    U = _u(rng, 0.6, 1.4)
    E0 = U * _u(rng, 0.2, 0.8)
    a = _u(rng, 0.4, 2.5 / math.sqrt(U - E0))
    L = resonant_gap(U, a, E0)
    p = Potential((Segment(a, Constant(U)), Segment(L, Constant(0.0)),
                   Segment(a, Constant(U))))
    e_range = (0.02, 1.2 * U)

    def check(peaks):
        if not any(abs(e - E0) < 1e-6 for e in peaks):
            return f"designed resonance E={E0!r} not among {len(peaks)} peaks"
        pieces, gaps = _split_chain(p)
        for e in peaks:
            D = _composed(pieces, gaps, e)
            if D < 1.0 - 1e-8:
                return f"peak E={e!r} has D={D!r} by composition"
        return None
    return Task("find_resonant_E", repr((p, e_range)),
                lambda: tuple(b1.find_resonant_E(p, e_range)), check)


def _density_task(rng):
    # narrow ranges: the number of peaks to polish sets the cost
    U = _u(rng, 0.8, 1.0)
    a = _u(rng, 0.4, 0.6)
    l_intra = _u(rng, 1.2, 1.6)
    l_inter = _u(rng, 1.2, 1.6)
    e_range = (0.05, 1.2 * U)

    def chain(n):
        segs = []
        for i in range(n):
            if i:
                segs.append(Segment(l_intra if i % 2 else l_inter, Constant(0.0)))
            segs.append(Segment(a, Constant(U)))
        return Potential(tuple(segs))

    def run():
        rows = b1.resonance_density(chain, DENSITY_N, e_range)
        return tuple((r.n_barriers, r.count, r.energies) for r in rows)

    def check(out):
        for n, count, energies in out:
            pieces, gaps = _split_chain(chain(n))
            for e in energies[:: max(1, len(energies) // 2)]:
                D = _composed(pieces, gaps, e)
                if D < 1.0 - 2e-6:
                    return f"N={n} peak E={e!r} has D={D!r} by composition"
        return None
    return Task("resonance_density", repr((U, a, l_intra, l_inter, e_range)), run, check)


def _ensemble_task(rng):
    U = _u(rng, 2.0, 5.0)
    a = _u(rng, 0.3, 0.8)
    E = U * _u(rng, 0.3, 0.8)
    width = _u(rng, 0.2, 0.5)
    kind = "uniform" if rng.integers(0, 2) else "normal"
    mean = _u(rng, 2.0, 4.0)
    spread = mean * _u(rng, 0.05, 0.2)
    seed = int(rng.integers(0, 2**31))
    samples = ENSEMBLE_SAMPLES
    outer = Potential((Segment(a, Constant(U)),))
    dist = b1.HeightDistribution(kind, mean, spread)

    def run():
        r = b1.averaged_transmittance_center_fluct(outer, outer, width, dist, E,
                                                   samples=samples, seed=seed)
        return r.mean_D, r.half_width, r.D_at_mean

    def check(out):
        mean_D, _, d_at_mean = out
        whole = Potential((Segment(a, Constant(U)), Segment(width, Constant(mean)),
                           Segment(a, Constant(U))))
        ref = b1.solve_exact(whole, E).D
        if _rel(d_at_mean, ref) > 1e-9:
            return f"D at mean height {d_at_mean!r} vs whole solve {ref!r}"
        g = np.random.default_rng(seed)
        hs = (g.uniform(mean - spread, mean + spread, samples) if kind == "uniform"
              else g.normal(mean, spread, samples))
        ds = free_space_D([a, width, a], [U, hs, U], np.full(samples, E), math.sqrt(E))
        if _rel(mean_D, float(np.mean(ds))) > 1e-9:
            return f"ensemble mean {mean_D!r} vs numpy slab products {float(np.mean(ds))!r}"
        return None
    return Task("ensemble", repr((U, a, E, width, kind, mean, spread, seed)), run, check)


def _opaque_pair_probe(a, U=0.9, E=0.3):
    """Resonant pair whose verifier loses digits (known defect from a = 12)."""
    def run():
        L = b1.rect_pair_resonant_L(U, a, E, 1)
        ref = resonant_gap(U, a, E)
        if abs(L - ref) > 1e-9 * ref:
            return f"gap {L!r} vs closed form {ref!r}"
        return None
    return Probe(f"rect_pair_resonant_L(U={U}, a={a!r}, E={E})", run)


# ----------------------------------------------------------------------
# spectra: bound levels, level scans and bands (no slab transfer product)

WELL_COUNTS = (1, 2, 3, 4, 2, 3)
PHASE_LENGTH = 2.2          # mean over the level grid of sum |q| * width
LEVEL_GRID = 800            # default of bound_levels(_shooting) and of CLI wells
SCAN_STEPS = 20             # default of CLI wells
BAND_GRID = 2000            # default of band_structure and of CLI bands
N_BANDS = 20
FACTORS = (1.0, 0.7, 0.4)
CELL_PHASE = 3.0           # mean over the band range of sum |q| * width


def _well_system(rng, n_wells):
    """Random wells rescaled to a fixed mean phase length, which sets the
    number of shooting steps per energy and so the cost of a level set.
    A single well sits between hard walls, more wells in open space (hard
    walls around several narrow wells would leave no level)."""
    depths = rng.uniform(2.0, 5.0, n_wells)
    widths = rng.dirichlet(np.full(n_wells, 4.0)) / np.sqrt(depths)
    barriers = rng.uniform(0.05, 0.2, n_wells - 1)
    es = np.linspace(0.0, depths.max(), 256)
    phase = np.mean(sum(a * np.sqrt(np.abs(u - es)) for u, a in zip(depths, widths))
                    + barriers.sum() * np.sqrt(es))
    scale = PHASE_LENGTH / phase
    return WellSystem(tuple(zip(depths.tolist(), (scale * widths).tolist())),
                      tuple((scale * barriers).tolist()),
                      outer="infinite" if n_wells == 1 else "finite")


def _cell(rng):
    """Two barriers (heights 1-3) and two wells, rescaled to a fixed mean
    phase length over the band range, which keeps the number of bands and
    so the cost of a band set about the same from cell to cell."""
    heights = [_u(rng, 1.0, 3.0), 0.0, _u(rng, 1.0, 3.0), 0.0]
    widths = np.array([_u(rng, 0.3, 0.8), _u(rng, 0.5, 1.5),
                       _u(rng, 0.3, 0.8), _u(rng, 0.5, 1.5)])
    es = np.linspace(0.01, max(heights), 256)
    phase = np.mean(sum(w * np.sqrt(np.abs(es - h)) for w, h in zip(widths, heights)))
    widths *= CELL_PHASE / phase
    return Potential(tuple(Segment(float(w), Constant(h)) for w, h in zip(widths, heights)))


def _cell_slabs(cell, factor=1.0):
    widths = [s.width * factor if s.profile.height > 0.0 else s.width for s in cell.segments]
    return widths, [s.profile.height for s in cell.segments]


def _spectra(rng, workdir):
    tasks = []
    for n_wells in WELL_COUNTS:
        tasks += _level_pair(_well_system(rng, n_wells))
    tasks += [_level_scan_task(rng, int(rng.integers(2, 4))) for _ in range(2)]
    tasks.append(_cli_wells_task(rng, int(rng.integers(2, 4)), workdir, "wells"))
    tasks += [_compression_task(rng) for _ in range(2)]
    tasks.append(_cli_bands_task(rng, workdir, "bands"))
    tasks += [_band_task(rng) for _ in range(N_BANDS)]
    # the defect cell itself, and one within 1% of it (where the narrow band
    # sometimes lands on a grid point)
    probes = [_narrow_band_probe(5.0, 3.0),
              _narrow_band_probe(5.0 * _u(rng, 0.99, 1.01), 3.0 * _u(rng, 0.99, 1.01))]
    return tasks, probes


def _level_pair(ws):
    """Determinant and shooting tasks on one system; each is the other's
    independent route, and the shooting check hands its output on."""
    shot = {}

    def shoot_check(levels):
        shot["levels"] = levels
        return _levels_reason(levels, b1.bound_levels(ws, LEVEL_GRID).energies, "determinant")

    def det_check(levels):
        ref = (shot["levels"] if "levels" in shot
               else b1.bound_levels_shooting(ws, LEVEL_GRID).energies)
        return _levels_reason(levels, ref, "shooting")
    return [Task("levels_shoot", repr(ws),
                 lambda: b1.bound_levels_shooting(ws, LEVEL_GRID).energies, shoot_check),
            Task("levels_det", repr(ws), lambda: b1.bound_levels(ws, LEVEL_GRID).energies,
                 det_check)]


def _scan_args(rng, n_wells):
    ws = _well_system(rng, n_wells)
    vary = "coherent" if rng.integers(0, 2) else int(rng.integers(0, n_wells - 1))
    lo = _u(rng, 0.3, 0.5)
    return ws, vary, (lo, lo + _u(rng, 0.2, 0.5))


def _scan_step_reason(ws, vary, value, levels):
    sys_v = (ws.with_coherent_barriers(value) if vary == "coherent"
             else ws.with_barrier(int(vary), value))
    ref = b1.bound_levels_shooting(sys_v, LEVEL_GRID).energies
    return _levels_reason(sorted(levels), ref, f"shooting at scan value {value!r}")


def _level_scan_task(rng, n_wells):
    ws, vary, span = _scan_args(rng, n_wells)
    step = int(rng.integers(0, SCAN_STEPS))

    def run():
        scan = b1.level_scan(ws, vary, span, SCAN_STEPS, LEVEL_GRID)
        return tuple((r.scan_value, r.level_index, r.energy, r.event) for r in scan.rows)

    def check(rows):
        value = float(np.linspace(span[0], span[1], SCAN_STEPS)[step])
        levels = [e for v, _, e, ev in rows if v == value and ev != "disappear"]
        return _scan_step_reason(ws, vary, value, levels)
    return Task("level_scan", repr((ws, vary, span)), run, check)


def _cli_wells_task(rng, n_wells, workdir, stem):
    ws, vary, span = _scan_args(rng, n_wells)
    step = int(rng.integers(0, SCAN_STEPS))
    ini = workdir / f"{stem}.ini"
    out = workdir / f"{stem}.csv"
    join = lambda xs: ",".join(repr(float(x)) for x in xs)
    ini.write_text(
        "[wells]\nunits = natural\n"
        f"depths = {join(u for u, _ in ws.wells)}\n"
        f"widths = {join(a for _, a in ws.wells)}\n"
        f"barriers = {join(ws.barriers)}\nouter = {ws.outer}\nvary = {vary}\n"
        f"v_min = {span[0]!r}\nv_max = {span[1]!r}\nsteps = {SCAN_STEPS}\n"
        f"e_grid = {LEVEL_GRID}\n")
    argv = ["wells", "--config", str(ini), "--out", str(out)]

    def check(result):
        rc, _ = result
        if rc != 0:
            return f"barrier1d wells exited with {rc}"
        value = float(np.linspace(span[0], span[1], SCAN_STEPS)[step])
        levels = [float(r[2]) for r in _read_csv(out)
                  if float(r[0]) == value and r[3] != "disappear"]
        return _scan_step_reason(ws, vary, value, levels)
    return Task("cli_wells", ini.read_text(), lambda: _cli(argv, out), check)


def _factor_bands_reason(cell, bands_by_factor):
    """Check the band set of each compression factor on the fine grid."""
    lo, hi = _band_range(cell)
    for f in FACTORS:
        reason = _bands_reason(bands_by_factor.get(f, []), *_cell_slabs(cell, f),
                               lo, hi, BAND_GRID)
        if reason:
            return f"factor {f}: {reason}"
    return None


def _band_range(cell):
    return (0.01, max(s.profile.height for s in cell.segments))


def _band_task(rng):
    cell = _cell(rng)
    lo, hi = _band_range(cell)

    def check(bands):
        return _bands_reason(bands, *_cell_slabs(cell), lo, hi, BAND_GRID)
    return Task("band_structure", repr(cell),
                lambda: b1.band_structure(cell, (lo, hi), BAND_GRID).bands, check)


def _compression_task(rng):
    cell = _cell(rng)
    lo, hi = _band_range(cell)

    def run():
        return tuple((f, bs.bands) for f, bs in b1.compression_scan(cell, FACTORS, (lo, hi),
                                                                     BAND_GRID))

    return Task("compression_scan", repr(cell), run,
                lambda out: _factor_bands_reason(cell, dict(out)))


def _cli_bands_task(rng, workdir, stem):
    cell = _cell(rng)
    lo, hi = _band_range(cell)
    ini = workdir / f"{stem}.ini"
    out = workdir / f"{stem}.csv"
    ini.write_text(
        "[potential]\nunits = natural\n"
        f"segments = {_segments_ini(cell.segments)}\n\n"
        f"[bands]\nfactors = {','.join(repr(f) for f in FACTORS)}\n"
        f"e_min = {lo!r}\ne_max = {hi!r}\ngrid = {BAND_GRID}\n")
    argv = ["bands", "--config", str(ini), "--out", str(out)]

    def check(result):
        rc, _ = result
        if rc != 0:
            return f"barrier1d bands exited with {rc}"
        rows = _read_csv(out)
        return _factor_bands_reason(cell, {f: [(float(r[2]), float(r[3])) for r in rows
                                               if float(r[0]) == f] for f in FACTORS})
    return Task("cli_bands", ini.read_text(), lambda: _cli(argv, out), check)


def _narrow_band_probe(barrier, well, height=4.0):
    """Cell whose lower band is narrower than the default grid step."""
    cell = Potential((Segment(barrier, Constant(height)), Segment(well, Constant(0.0))))

    def run():
        bands = b1.band_structure(cell, (0.01, height)).bands
        return _bands_reason(bands, [barrier, well], [height, 0.0], 0.01, height, BAND_GRID)
    return Probe(f"band_structure(barrier={barrier!r}, height={height}, well={well!r})", run)
