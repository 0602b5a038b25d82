import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from barrier1d.compose import GapJoin, transmittance_pair
from barrier1d.oracle import ConditioningError, solve_exact
from barrier1d.potential import (Constant, Potential, Segment, UnitSystem,
                                 build_rect_pair, M_ELECTRON, HBAR, EV, ANGSTROM)
from barrier1d.resonance import (find_resonant_E, find_resonant_L, pair_chain,
                                 rect_pair_resonant_L, resonance_density)

REFERENCE_CASES_EV_ANG = [
    # (U [eV], a [Ang], E [eV], gap quoted with the legacy 1.0798519 prefactor [Ang])
    (0.9, 2.8, 0.1, 14.03),
    (0.9, 2.8, 0.3, 6.271),
    (1.0, 2.5, 0.3, 6.462),
]

# the legacy closed-form prefactor corresponds to an effective mass of
# (1.0798519 / (2 sqrt(2 m_e) / hbar))^2 ~ 1.1107 m_e
LEGACY_PREFACTOR = 1.0798519
CODATA_PREFACTOR = 2.0 * math.sqrt(2.0 * M_ELECTRON * EV) / HBAR * ANGSTROM


def legacy_units():
    return UnitSystem(mass=M_ELECTRON * (LEGACY_PREFACTOR / CODATA_PREFACTOR) ** 2)


def case_internal(us, U, a, E):
    return (float(us.energy_from_ev(U)), float(us.length_from_angstrom(a)),
            float(us.energy_from_ev(E)))


def minimal_branch_n(E, U):
    return 0 if E >= U / 2.0 else 1


def test_closed_form_agrees_with_phase_search(units):
    for U, a, E, _ in REFERENCE_CASES_EV_ANG:
        u, ai, e = case_internal(units, U, a, E)
        L = rect_pair_resonant_L(u, ai, e, minimal_branch_n(e, u))
        s = solve_exact(Potential((Segment(ai, Constant(u)),)), e)
        fam = find_resonant_L(s, s, e, (0.0, 3.0 * L + 1.0))
        L_search = float(fam.members()[np.argmin(np.abs(fam.members() - L))])
        # internal-consistency requirement: well below 1e-8 Angstrom
        diff_ang = abs(float(units.angstrom_from_length(L - L_search)))
        assert diff_ang < 1e-8


def test_legacy_prefactor_reproduces_reference_gaps():
    us = legacy_units()
    for U, a, E, L_ref in REFERENCE_CASES_EV_ANG:
        u, ai, e = case_internal(us, U, a, E)
        L = rect_pair_resonant_L(u, ai, e, minimal_branch_n(e, u))
        # reference gaps are quoted to 2-3 decimals
        assert float(us.angstrom_from_length(L)) == pytest.approx(L_ref, abs=2e-3)


def test_physical_constants_shift_reference_gaps(units):
    # the same cases under CODATA constants; documented in the discrepancy note
    expected = [14.7258, 6.5854, 6.7811]
    for (U, a, E, _), L_phys in zip(REFERENCE_CASES_EV_ANG, expected):
        u, ai, e = case_internal(units, U, a, E)
        L = rect_pair_resonant_L(u, ai, e, minimal_branch_n(e, u))
        assert float(units.angstrom_from_length(L)) == pytest.approx(L_phys, abs=1e-3)


def test_branch_rule_continuity_at_half_height():
    U, a = 1.0, 1.3
    for eps in (1e-6, -1e-6):
        E = U / 2.0 + eps
        n = minimal_branch_n(E, U)
        L = rect_pair_resonant_L(U, a, E, n)  # verifies D = 1 internally
        assert L > 0.0
    below = rect_pair_resonant_L(U, a, U / 2.0 - 1e-9, 1)
    above = rect_pair_resonant_L(U, a, U / 2.0 + 1e-9, 0)
    assert below == pytest.approx(above, rel=1e-6)


def test_branch_rule_rejects_wrong_n():
    with pytest.raises(ValueError):
        rect_pair_resonant_L(1.0, 1.0, 0.2, 0)   # lower branch needs n >= 1
    with pytest.raises(ValueError):
        rect_pair_resonant_L(1.0, 1.0, 0.8, -1)
    with pytest.raises(ValueError):
        rect_pair_resonant_L(1.0, 1.0, 1.5, 0)   # closed form needs 0 < E < U


def test_failed_verification_raises_conditioning_error():
    # D - 1 = 1.8e-15 at this gap: any nonzero defect fails a zero tolerance
    with pytest.raises(ConditioningError, match=r"D = \S+ at L = \S+"):
        rect_pair_resonant_L(0.9, 2.0, 0.3, 1, verify_tol=0.0)
    assert isinstance(rect_pair_resonant_L(0.9, 2.0, 0.3, 1), float)


def test_family_matches_closed_form_series():
    U, a, E = 0.9, 1.4, 0.3
    s = solve_exact(Potential((Segment(a, Constant(U)),)), E)
    fam = find_resonant_L(s, s, E, (0.0, 40.0))
    assert not fam.is_empty
    assert fam.period == pytest.approx(math.pi / math.sqrt(E), rel=1e-12)
    for n_closed in (1, 2, 3):
        L = rect_pair_resonant_L(U, a, E, n_closed)
        assert np.min(np.abs(fam.members() - L)) < 1e-10


def test_family_members_all_resonant():
    U, a, E = 1.1, 1.2, 0.45
    s = solve_exact(Potential((Segment(a, Constant(U)),)), E)
    fam = find_resonant_L(s, s, E, (0.0, 30.0))
    for L in fam.members():
        d = solve_exact(build_rect_pair(U, a, float(L)), E).D
        assert d >= 1.0 - 1e-8


def test_tuned_mixed_pair_has_family():
    # different heights; width of the second barrier tuned until the
    # reflection moduli match at this energy
    E, u1, a1, u2 = 0.4, 0.9, 1.2, 1.3
    s1 = solve_exact(Potential((Segment(a1, Constant(u1)),)), E)
    target = abs(s1.R)

    def mismatch(a2):
        s2 = solve_exact(Potential((Segment(float(a2), Constant(u2)),)), E)
        return abs(s2.R) - target

    a2 = brentq(mismatch, 0.05, 3.0, rtol=1e-13)
    s2 = solve_exact(Potential((Segment(a2, Constant(u2)),)), E)
    fam = find_resonant_L(s1, s2, E, (0.0, 20.0))
    assert not fam.is_empty
    k = math.sqrt(E)
    for L in fam.members():
        assert transmittance_pair(s1, GapJoin(float(L), k), s2).D >= 1.0 - 1e-9


def test_mismatched_moduli_reports_empty_family():
    E = 0.4
    s1 = solve_exact(Potential((Segment(1.2, Constant(0.9)),)), E)
    s2 = solve_exact(Potential((Segment(0.8, Constant(1.4)),)), E)
    fam = find_resonant_L(s1, s2, E, (0.0, 20.0))
    assert fam.is_empty and "moduli" in fam.diagnostic
    k = math.sqrt(E)
    grid_max = max(transmittance_pair(s1, GapJoin(float(L), k), s2).D
                   for L in np.linspace(0.0, 20.0, 400))
    assert grid_max < 1.0 - 1e-4


# ----------------------------------------------------------------------
# energy searches

def two_resonant_pairs(units, L_mid_internal):
    e0 = float(units.energy_from_ev(0.3))
    u1, a1, _ = case_internal(units, 0.9, 2.8, 0.3)
    u2, a2, _ = case_internal(units, 1.0, 2.5, 0.3)
    l1 = rect_pair_resonant_L(u1, a1, e0, 1)
    l2 = rect_pair_resonant_L(u2, a2, e0, 1)
    segs = (Segment(a1, Constant(u1)), Segment(l1, Constant(0.0)), Segment(a1, Constant(u1)),
            Segment(L_mid_internal, Constant(0.0)),
            Segment(a2, Constant(u2)), Segment(l2, Constant(0.0)), Segment(a2, Constant(u2)))
    return Potential(segs), e0


def test_designed_energy_always_found(units):
    p, e0 = two_resonant_pairs(units, float(units.length_from_angstrom(5.0)))
    lo, hi = float(units.energy_from_ev(0.05)), float(units.energy_from_ev(0.6))
    peaks = find_resonant_E(p, (lo, hi), 300)
    # the peak top is flat at the 1e-9 transmittance level, so the polished
    # maximiser can sit anywhere inside that plateau
    assert any(abs(e - e0) < 1e-4 * e0 for e in peaks)


def test_single_barrier_has_no_subbarrier_resonance():
    p = Potential((Segment(1.5, Constant(1.0)),))
    assert find_resonant_E(p, (0.05, 0.95), 300) == []


def test_six_barrier_chain_is_richer_than_pair(units):
    u, a, _ = case_internal(units, 0.9, 2.8, 0.3)
    e0 = float(units.energy_from_ev(0.3))
    li = rect_pair_resonant_L(u, a, e0, 2)
    lx = float(units.length_from_angstrom(4.0))
    lo, hi = float(units.energy_from_ev(0.05)), float(units.energy_from_ev(0.85))
    p2 = find_resonant_E(pair_chain(u, a, li, lx, 2), (lo, hi), 2000)
    p6 = find_resonant_E(pair_chain(u, a, li, lx, 6), (lo, hi), 2000)
    assert len(p6) >= len(p2) >= 1
    # the pair resonances survive inside the six-barrier chain
    for e in p2:
        assert min(abs(e - x) for x in p6) < 1e-4


def test_resonance_density_scaling(units):
    u, a, _ = case_internal(units, 0.9, 2.8, 0.3)
    e0 = float(units.energy_from_ev(0.3))
    li = rect_pair_resonant_L(u, a, e0, 2)
    lx = float(units.length_from_angstrom(4.0))
    lo, hi = float(units.energy_from_ev(0.05)), float(units.energy_from_ev(0.85))
    builder = lambda n: pair_chain(u, a, li, lx, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = resonance_density(builder, [1, 2, 6], (lo, hi), grid=2000)
    by_n = {r.n_barriers: r for r in rows}
    assert by_n[1].count <= 1                      # single-barrier baseline
    assert by_n[2].count >= 2
    assert by_n[6].count > by_n[2].count
    assert by_n[6].min_spacing < by_n[2].min_spacing


def test_resonance_density_grid_convergence(units):
    u, a, _ = case_internal(units, 0.9, 2.8, 0.3)
    e0 = float(units.energy_from_ev(0.3))
    li = rect_pair_resonant_L(u, a, e0, 2)
    lx = float(units.length_from_angstrom(4.0))
    lo, hi = float(units.energy_from_ev(0.05)), float(units.energy_from_ev(0.85))
    builder = lambda n: pair_chain(u, a, li, lx, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = resonance_density(builder, [2], (lo, hi), grid=2000)[0]
        r2 = resonance_density(builder, [2], (lo, hi), grid=4000)[0]
    assert r1.count == r2.count
    assert r1.min_spacing == pytest.approx(r2.min_spacing, rel=1e-6)


def test_find_resonant_E_validation():
    p = Potential((Segment(1.0, Constant(0.5)),))
    with pytest.raises(ValueError):
        find_resonant_E(p, (0.1, 0.9), 50)
    with pytest.raises(ValueError):
        find_resonant_E(p, (-0.1, 0.9), 200)
