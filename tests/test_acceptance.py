"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else; the randomized suites use
fixed seeds so every run exercises the same cases.
"""

import cmath
import math
import warnings
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from barrier1d.compose import (GapJoin, HeightDistribution,
                               averaged_transmittance_center_fluct,
                               compose_chain, compose_pair,
                               three_barrier_closed_form, transmittance_pair)
from barrier1d.oracle import solve_exact
from barrier1d.potential import (Constant, Potential, Segment, UnitSystem,
                                 build_rect_pair)
from barrier1d.resonance import (find_resonant_E, find_resonant_L, pair_chain,
                                 rect_pair_resonant_L, resonance_density)
from barrier1d.riccati import (integrate_alpha_form, integrate_complex,
                               integrate_real)
from barrier1d.spectra import (WellSystem, bound_levels, bound_levels_shooting,
                               compression_scan, level_scan)
from barrier1d.cli import main as cli_main

from conftest import (kronig_penney_band_edges, random_chain,
                      random_slab_potential)

US = UnitSystem()
EV = US.energy_from_ev
ANG = US.length_from_angstrom
ERG = US.energy_from_erg
CM = US.length_from_cm

REFERENCE_CASES = [(0.9, 2.8, 0.1), (0.9, 2.8, 0.3), (1.0, 2.5, 0.3)]
REFERENCE_GAPS_LEGACY = [14.03, 6.271, 6.462]
LEGACY_PREFACTOR = 1.0798519


def report(num, name, detail=""):
    print(f"[acceptance {num:02d}] {name}: PASS {detail}")


def _minimal_n(e, u):
    return 0 if e >= u / 2.0 else 1


def test_criterion_01_unitarity_suite():
    rng = np.random.default_rng(1001)
    worst_oracle = 0.0
    worst_riccati = 0.0
    for _ in range(500):
        p = random_slab_potential(rng)
        E = float(rng.uniform(0.25, 2.0))
        s = solve_exact(p, E)
        worst_oracle = max(worst_oracle, abs(s.flux_defect()))
        for s_r in (integrate_complex(p, E),
                    integrate_real(p, E).scatter_data(),
                    integrate_alpha_form(p, E).scatter_data()):
            worst_riccati = max(worst_riccati, abs(s_r.flux_defect()))
    assert worst_oracle < 1e-10
    assert worst_riccati < 1e-8
    report(1, "unitarity", f"(oracle defect {worst_oracle:.2e}, "
                           f"integrator defect {worst_riccati:.2e}, 500 cases)")


def test_criterion_02_composition_matches_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        whole, pieces, gaps, E = random_chain(rng)
        k = math.sqrt(E)
        items = [solve_exact(pieces[0], E)]
        for i in range(len(gaps)):
            items += [GapJoin(gaps[i], k), solve_exact(pieces[i + 1], E)]
        sc = compose_chain(items)
        so = solve_exact(whole, E)
        worst = max(worst, abs(sc.T - so.T), abs(sc.R - so.R),
                    abs(sc.T_rev - so.T_rev), abs(sc.R_rev - so.R_rev))
    assert worst < 1e-9
    report(2, "composition equals whole-potential solve",
           f"(worst coefficient difference {worst:.2e}, 500 chains)")


def test_criterion_03_resonant_gap_consistency():
    # The closed-form prefactor re-derived from CODATA constants
    # (1.024633...) disagrees with the circulated 1.0798519, so this
    # criterion passes on internal consistency: closed form and the
    # unit-transmission search agree to < 1e-8 Angstrom, and the
    # discrepancy report ships with the repo.  Under the legacy prefactor
    # (an effective mass of ~1.1107 m_e) the quoted gaps are reproduced
    # within 1%.
    worst = 0.0
    for u_ev, a_ang, e_ev in REFERENCE_CASES:
        u, a, e = float(EV(u_ev)), float(ANG(a_ang)), float(EV(e_ev))
        L = rect_pair_resonant_L(u, a, e, _minimal_n(e, u))
        s = solve_exact(Potential((Segment(a, Constant(u)),)), e)
        fam = find_resonant_L(s, s, e, (0.0, 3.0 * L + 1.0))
        l_search = float(fam.members()[np.argmin(np.abs(fam.members() - L))])
        worst = max(worst, abs(float(US.angstrom_from_length(L - l_search))))
    assert worst < 1e-8

    note = Path(__file__).resolve().parents[1] / "docs" / "resonance_constant_note.md"
    assert note.exists(), "discrepancy report is a required artifact"
    text = note.read_text()
    assert "1.0798519" in text and "1.0246" in text

    from barrier1d.potential import M_ELECTRON, HBAR, EV as EV_J, ANGSTROM
    codata = 2.0 * math.sqrt(2.0 * M_ELECTRON * EV_J) / HBAR * ANGSTROM
    legacy_us = UnitSystem(mass=M_ELECTRON * (LEGACY_PREFACTOR / codata) ** 2)
    for (u_ev, a_ang, e_ev), l_ref in zip(REFERENCE_CASES, REFERENCE_GAPS_LEGACY):
        u = float(legacy_us.energy_from_ev(u_ev))
        a = float(legacy_us.length_from_angstrom(a_ang))
        e = float(legacy_us.energy_from_ev(e_ev))
        L = rect_pair_resonant_L(u, a, e, _minimal_n(e, u))
        assert abs(float(legacy_us.angstrom_from_length(L)) - l_ref) / l_ref < 0.01
    report(3, "resonant gaps: closed form vs search",
           f"(worst |closed - search| = {worst:.2e} Angstrom; legacy-constant "
           f"values reproduced within 1%; discrepancy report present)")


def _two_pair_system(l_mid):
    e0 = float(EV(0.3))
    u1, a1 = float(EV(0.9)), float(ANG(2.8))
    u2, a2 = float(EV(1.0)), float(ANG(2.5))
    l1 = rect_pair_resonant_L(u1, a1, e0, 1)
    l2 = rect_pair_resonant_L(u2, a2, e0, 1)
    segs = (Segment(a1, Constant(u1)), Segment(l1, Constant(0.0)), Segment(a1, Constant(u1)),
            Segment(l_mid, Constant(0.0)),
            Segment(a2, Constant(u2)), Segment(l2, Constant(0.0)), Segment(a2, Constant(u2)))
    return Potential(segs), e0


def test_criterion_04_two_distinct_pairs_stay_resonant():
    e0 = float(EV(0.3))
    gaps = np.linspace(float(ANG(0.5)), float(ANG(20.0)), 50)
    worst = 0.0
    for L in gaps:
        p, _ = _two_pair_system(float(L))
        worst = max(worst, 1.0 - solve_exact(p, e0).D)
    assert worst < 1e-6

    # a second exact resonance exists at a fixed separation: tune the
    # inter-pair gap to the energy where the two pairs' reflection moduli
    # cross
    pa = _two_pair_system(1.0)[0]
    pair_a = Potential(pa.segments[:3])
    pair_b = Potential(pa.segments[4:])

    def moduli_gap(e):
        return abs(solve_exact(pair_a, e).R_rev) - abs(solve_exact(pair_b, e).R)

    es = np.linspace(float(EV(0.35)), float(EV(0.85)), 200)
    vals = [moduli_gap(float(e)) for e in es]
    bracket = next(i for i in range(len(es) - 1) if vals[i] * vals[i + 1] < 0)
    e_star = brentq(moduli_gap, es[bracket], es[bracket + 1], rtol=1e-14)
    fam = find_resonant_L(solve_exact(pair_a, e_star), solve_exact(pair_b, e_star),
                          e_star, (float(ANG(0.5)), float(ANG(30.0))))
    p_fixed, _ = _two_pair_system(fam.L0)
    peaks = find_resonant_E(p_fixed, (float(EV(0.05)), float(EV(0.85))), 500)
    others = [e for e in peaks if abs(e - e0) > 1e-3]
    assert others, "expected a second unit-transmission energy at fixed geometry"
    report(4, "two distinct resonant pairs",
           f"(max 1-D = {worst:.1e} over 50 gaps; extra resonance at "
           f"{float(US.ev_from_energy(others[0])):.4f} eV)")


def test_criterion_05_gap_periodicity_and_families():
    worst_period = 0.0
    worst_member = 0.0
    for (u_ev, a_ang, e_ev) in REFERENCE_CASES:
        u, a, e = float(EV(u_ev)), float(ANG(a_ang)), float(EV(e_ev))
        k = math.sqrt(e)
        s = solve_exact(Potential((Segment(a, Constant(u)),)), e)
        for L in (0.4, 1.7, 3.9):
            d0 = transmittance_pair(s, GapJoin(L, k), s).D
            dn = transmittance_pair(s, GapJoin(L + math.pi / k, k), s).D
            worst_period = max(worst_period, abs(dn - d0))
        fam = find_resonant_L(s, s, e, (0.0, 25.0))
        assert len(fam) >= 2
        for L in fam.members():
            d = solve_exact(build_rect_pair(u, a, float(L)), e).D
            worst_member = max(worst_member, 1.0 - d)
    assert worst_period < 1e-10
    assert worst_member < 1e-8
    report(5, "gap periodicity and resonance families",
           f"(|D(L+pi/k)-D(L)| <= {worst_period:.1e}; family member "
           f"1-D <= {worst_member:.1e})")


def test_criterion_06_riccati_forms_reciprocity_monotone_phase():
    rng = np.random.default_rng(1006)
    worst_forms = 0.0
    worst_recip = 0.0
    for _ in range(200):
        p = random_slab_potential(rng, h_lo=-0.5, h_hi=1.3)
        E = float(rng.uniform(0.25, 1.8))
        sc = integrate_complex(p, E)
        sr = integrate_real(p, E).scatter_data()
        sa = integrate_alpha_form(p, E).scatter_data()
        for s in (sr, sa):
            # complex coefficients agree outright (this bounds modulus and
            # modulus-weighted phase together) ...
            worst_forms = max(worst_forms, abs(s.T - sc.T), abs(s.R - sc.R),
                              abs(s.R_rev - sc.R_rev))
            # ... and the phases themselves wherever they are conditioned
            # well enough for an angle comparison to mean anything
            if abs(sc.T) > 0.1:
                d = abs(cmath.phase(s.T) - cmath.phase(sc.T)) % (2 * math.pi)
                worst_forms = max(worst_forms, min(d, 2 * math.pi - d))
            if abs(sc.R) > 0.1:
                d = abs(cmath.phase(s.R) - cmath.phase(sc.R)) % (2 * math.pi)
                worst_forms = max(worst_forms, min(d, 2 * math.pi - d))
        s_rev = integrate_complex(p.reversed(), E)
        worst_recip = max(worst_recip, abs(sc.T - s_rev.T))
    assert worst_forms < 1e-8
    assert worst_recip < 1e-8
    # clockwise transmission phase for nonnegative potentials, pointwise
    for _ in range(50):
        p = random_slab_potential(rng, h_lo=0.0, h_hi=1.5)
        E = float(rng.uniform(0.25, 1.8))
        tr = integrate_real(p, E)
        assert np.all(np.diff(tr.delta) <= 1e-9)
    report(6, "riccati forms agree; transmission reciprocal; phase clockwise",
           f"(forms {worst_forms:.2e}; |T_fwd - T_rev| {worst_recip:.2e}; "
           f"200 + 50 cases)")


def test_criterion_07_three_barrier_closed_form():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(100):
        whole, pieces, gaps, E = random_chain(rng, n_barriers=3)
        k = math.sqrt(E)
        s = [solve_exact(p, E) for p in pieces]
        d_closed = three_barrier_closed_form(s[0], gaps[0], s[1], gaps[1], s[2])
        d_fold = compose_pair(s[0], GapJoin(gaps[0], k),
                              compose_pair(s[1], GapJoin(gaps[1], k), s[2])).D
        worst = max(worst, abs(d_closed - d_fold))
    assert worst < 1e-12
    report(7, "triple-barrier closed form equals nested composition",
           f"(worst |difference| = {worst:.2e}, 100 triples)")


def test_criterion_08_fluctuations_reduce_transparency():
    left = Potential((Segment(float(ANG(4.0)), Constant(float(EV(1.0)))),))
    mean = float(EV(3.63))    # near the transmission maximum in slab height
    res = averaged_transmittance_center_fluct(
        left, left, float(ANG(0.4)),
        HeightDistribution("uniform", mean, 0.2 * mean),
        float(EV(2.0)), samples=100_000, seed=1008)
    sigma = res.half_width / 1.96
    significance = (res.D_at_mean - res.mean_D) / sigma
    assert significance >= 5.0
    report(8, "height fluctuations reduce mean transmittance",
           f"(<D> = {res.mean_D:.6f} vs D(mean) = {res.D_at_mean:.6f}, "
           f"{significance:.0f} sigma, 1e5 samples)")


def test_criterion_09_bound_state_routes_and_scan_contrast():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        wells = tuple((float(rng.uniform(2.0, 6.0)), float(rng.uniform(2.0, 5.0)))
                      for _ in range(n))
        bars = tuple(float(rng.uniform(0.8, 2.5)) for _ in range(n - 1))
        outer = "infinite" if rng.random() < 0.5 else "finite"
        ws = WellSystem(wells, bars, outer=outer)
        det = bound_levels(ws).energies
        sho = bound_levels_shooting(ws).energies
        assert len(det) == len(sho)
        for a, b in zip(det, sho):
            worst = max(worst, abs(a - b) / max(a, 1e-12))
    assert worst < 1e-8

    # distinct wells: moving one separator barely moves the levels;
    # identical wells moved coherently shift them strongly (bound-molecule
    # outer boundary: decaying tails)
    def rel_shift(scan):
        lv0 = sorted(r.energy for r in scan.rows if r.scan_value == scan.values[0])
        spacing = float(np.mean(np.diff(lv0)))
        shifts = [0.0]
        for tid in range(scan.n_tracks()):
            tr = scan.track(tid)
            if len(tr) == len(scan.values):
                es = [e for _, e in tr]
                shifts.append(max(es) - min(es))
        return max(shifts) / spacing

    rng_cm = (float(CM(2.8e-8)), float(CM(5.6e-8)))
    ws5 = WellSystem(((float(ERG(5e-12)), float(CM(8e-8))),
                      (float(ERG(8e-12)), float(CM(8e-8))),
                      (float(ERG(8e-12)), float(CM(1e-7)))),
                     (float(CM(2.8e-8)), float(CM(3.5e-8))), outer="finite")
    ws6 = WellSystem(((float(ERG(5e-12)), float(CM(9e-8))),) * 3,
                     (float(CM(2.8e-8)),) * 2, outer="finite")
    r5 = rel_shift(level_scan(ws5, 0, rng_cm, steps=24))
    r6 = rel_shift(level_scan(ws6, "coherent", rng_cm, steps=24))
    assert r6 >= 5.0 * r5
    report(9, "bound-state routes agree; scan contrast",
           f"(levels worst rel diff {worst:.2e}, 100 systems; distinct-well "
           f"shift {r5:.3f} vs coherent {r6:.3f}, ratio {r6 / r5:.1f})")


def _band_cell():
    u = float(ERG(1.1e-12))
    b = float(CM(2.5e-8))
    wells = [float(CM(c)) for c in (2e-8, 2.5e-8, 2.5e-8, 2e-8)]
    segs = []
    for i in range(4):
        segs.append(Segment(b, Constant(u)))
        segs.append(Segment(wells[i], Constant(0.0)))
    return Potential(tuple(segs)), u


def test_criterion_10_band_compression():
    cell, u = _band_cell()
    window = (u * 1e-4, u)
    scan = dict(compression_scan(cell, (1.0, 0.6, 0.2), window, grid=3000))
    base = scan[1.0]
    assert len(base) >= 2
    for f in (0.6, 0.2):
        comp = scan[f]
        n = min(len(base), len(comp))
        assert all(comp.widths()[i] > base.widths()[i] for i in range(n))
        m = min(len(base) - 1, len(comp) - 1)
        assert all(comp.gaps()[i] < base.gaps()[i] for i in range(m))
        assert all(comp.bands[i][0] < base.bands[i][0] for i in range(min(2, n)))

    # independent dispersion-relation cross-check on the single-barrier cell
    from barrier1d.spectra import band_structure
    V0, b, L = 2.0, 0.6, 2.0
    kp = band_structure(Potential((Segment(b, Constant(V0)),
                                   Segment(L - b, Constant(0.0)))),
                        (1e-4, 6.0), grid=4000)
    edges, _ = kronig_penney_band_edges(V0, b, L, 6.0)
    got = [e for band in kp.bands for e in band if 1e-3 < e < 6.0 - 1e-3]
    assert len(got) == len(edges)
    worst_edge = max(abs(g - e) for g, e in zip(got, edges))
    assert worst_edge < 1e-8
    report(10, "compression widens bands, narrows gaps; dispersion cross-check",
           f"(lattice-edge agreement {worst_edge:.2e})")


def test_criterion_11_resonant_level_spacing_shrinks():
    u, a = float(EV(0.9)), float(ANG(2.8))
    e0 = float(EV(0.3))
    li = rect_pair_resonant_L(u, a, e0, 2)
    lx = float(ANG(4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = resonance_density(lambda n: pair_chain(u, a, li, lx, n), [2, 6],
                                 (float(EV(0.05)), float(EV(0.85))), grid=3000)
    by_n = {r.n_barriers: r for r in rows}
    assert by_n[2].count >= 2 and by_n[6].count >= by_n[2].count
    assert by_n[6].min_spacing < by_n[2].min_spacing
    report(11, "resonant-peak spacing shrinks with barrier count",
           f"(dE: {float(US.ev_from_energy(by_n[2].min_spacing)):.4f} eV at N=2 "
           f"-> {float(US.ev_from_energy(by_n[6].min_spacing)):.4f} eV at N=6)")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("""
[sweep]
seed = 0

[potential]
units = ev_angstrom
segments = const 2.8 0.9 ; gap 6.5854 ; const 2.8 0.9

[transmit]
e_min = 0.05
e_max = 0.6
e_steps = 40
""")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["transmit", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["transmit", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ens = tmp_path / "ens.ini"
    ens.write_text("""
[outer_left]
units = ev_angstrom
segments = const 4.0 1.0

[outer_right]
units = ev_angstrom
segments = const 4.0 1.0

[ensemble]
center_width = 0.4
dist = uniform
mean = 3.63
spread = 0.726
energy = 2.0
samples = 20000
""")
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(["ensemble", "--config", str(ens), "--out", str(c), "--seed", "5"]) == 0
    assert cli_main(["ensemble", "--config", str(ens), "--out", str(d), "--seed", "5"]) == 0
    assert c.read_bytes() == d.read_bytes()
    report(12, "identical spec + seed give byte-identical outputs")
