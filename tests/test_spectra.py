import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrier1d.potential import Constant, Potential, Segment
import barrier1d.spectra as spectra
from barrier1d.spectra import (LevelCountError, LevelSet, WellSystem,
                               _count_brackets, _level_count, band_structure,
                               bound_levels, bound_levels_shooting,
                               compression_scan, level_scan,
                               tight_binding_energy)

from conftest import kronig_penney_band_edges, single_finite_well_depths


def fig_cell(units):
    u = float(units.energy_from_erg(1.1e-12))
    b = float(units.length_from_cm(2.5e-8))
    ws = [float(units.length_from_cm(c)) for c in (2e-8, 2.5e-8, 2.5e-8, 2e-8)]
    segs = []
    for i in range(4):
        segs.append(Segment(b, Constant(u)))
        segs.append(Segment(ws[i], Constant(0.0)))
    return Potential(tuple(segs)), u


def erg(units, v):
    return float(units.energy_from_erg(v))


def cm(units, v):
    return float(units.length_from_cm(v))


def fig5_system(units, outer="finite"):
    return WellSystem(((erg(units, 5e-12), cm(units, 8e-8)),
                       (erg(units, 8e-12), cm(units, 8e-8)),
                       (erg(units, 8e-12), cm(units, 1e-7))),
                      (cm(units, 2.8e-8), cm(units, 3.5e-8)), outer=outer)


def fig6_system(units, outer="finite"):
    w = (erg(units, 5e-12), cm(units, 9e-8))
    return WellSystem((w, w, w), (cm(units, 2.8e-8), cm(units, 2.8e-8)),
                      outer=outer)


# ----------------------------------------------------------------------
# bound states

def test_single_finite_well_matches_transcendental():
    U, a = 5.0, 3.0
    ws = WellSystem(((U, a),), (), outer="finite")
    got = bound_levels(ws).energies
    expected = single_finite_well_depths(U, a)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-10)


def test_single_well_hard_walls_is_particle_in_box():
    U, a = 6.0, 2.5
    ws = WellSystem(((U, a),), ())
    got = bound_levels(ws).energies
    # depths E_m = U - (m pi / a)^2 for every m with (m pi/a)^2 < U
    expected = sorted(U - (m * math.pi / a) ** 2
                      for m in range(1, 100) if (m * math.pi / a) ** 2 < U)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-10, abs=1e-12)


def test_determinant_vs_shooting_randomized():
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        wells = tuple((float(rng.uniform(2.0, 6.0)), float(rng.uniform(2.0, 5.0)))
                      for _ in range(n))
        bars = tuple(float(rng.uniform(0.8, 2.5)) for _ in range(n - 1))
        outer = "infinite" if rng.random() < 0.5 else "finite"
        ws = WellSystem(wells, bars, outer=outer)
        d = bound_levels(ws).energies
        s = bound_levels_shooting(ws).energies
        assert len(d) == len(s)
        for a, b in zip(d, s):
            assert a == pytest.approx(b, rel=1e-8)


def test_level_count_matches_particle_in_box():
    U, a = 6.0, 2.5
    ws = WellSystem(((U, a),), ())
    for E in np.linspace(0.01, U - 0.01, 37):
        # levels deeper than E: every m with (m pi / a)^2 < U - E
        assert _level_count(ws, float(E)) == math.floor(math.sqrt(U - E) * a / math.pi)


def test_three_identical_wells_give_all_six_levels():
    # the default grid misses the tightly split pairs; the count finds them
    ws = WellSystem(((4.0, 3.0),) * 3, (5.0, 5.0), outer="finite")
    single = bound_levels(WellSystem(((4.0, 3.0),), (), outer="finite")).energies
    det = bound_levels(ws).energies
    sho = bound_levels_shooting(ws).energies
    assert len(single) == 2 and len(det) == len(sho) == 6
    for a, b in zip(det, sho):
        assert a == pytest.approx(b, rel=1e-8)
    for k, e0 in enumerate(single):
        assert det[3 * k:3 * k + 3] == pytest.approx([e0] * 3, rel=1e-3)


well = st.tuples(st.floats(1.0, 6.0), st.floats(0.5, 5.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(well, min_size=1, max_size=4), st.data(),
       st.sampled_from(["infinite", "finite"]))
def test_level_count_certifies_both_routes(wells, data, outer):
    bars = data.draw(st.lists(st.floats(0.1, 3.0), min_size=len(wells) - 1,
                              max_size=len(wells) - 1))
    ws = WellSystem(tuple(wells), tuple(bars), outer=outer)
    umax = ws.max_depth
    det = bound_levels(ws).energies
    sho = bound_levels_shooting(ws).energies
    assert _level_count(ws, umax * 1e-7) == len(det) == len(sho)
    counts = [_level_count(ws, float(E)) for E in np.linspace(umax * 1e-7, umax, 200)]
    assert all(n1 >= n2 for n1, n2 in zip(counts, counts[1:]))
    # between adjacent levels the count is the number of deeper levels
    for k in range(len(det) - 1):
        assert _level_count(ws, 0.5 * (det[k] + det[k + 1])) == len(det) - 1 - k


def test_unresolvable_splitting_raises_typed_error(units):
    # barriers so wide that the triplet splitting is below float resolution
    ws = fig6_system(units).with_coherent_barriers(cm(units, 3e-7))
    for route in (bound_levels, bound_levels_shooting):
        with pytest.raises(LevelCountError):
            route(ws)


def test_distant_identical_wells_form_triplets():
    # wide enough for tight clusters, narrow enough that the splitting is
    # still resolvable on the scan grid
    U, a, b = 4.0, 3.0, 3.0
    ws3 = WellSystem(((U, a),) * 3, (b, b), outer="finite")
    single = bound_levels(WellSystem(((U, a),), (), outer="finite")).energies
    trip = bound_levels(ws3, 6000).energies
    assert len(trip) == 3 * len(single)
    for e0 in single:
        cluster = [e for e in trip if abs(e - e0) < 0.05 * max(e0, 0.1)]
        assert len(cluster) == 3
        assert max(cluster) - min(cluster) < 0.05


def test_vanishing_barrier_merges_wells():
    U, a = 4.0, 2.0
    merged = bound_levels(WellSystem(((U, 2 * a + 0.002),), ())).energies
    near = bound_levels(WellSystem(((U, a), (U, a)), (0.002,)), 3000).energies
    assert len(near) == len(merged)
    for x, y in zip(near, merged):
        assert x == pytest.approx(y, abs=0.02)


def test_level_count_monotone_in_depth_and_width():
    base = WellSystem(((3.0, 3.0),), ())
    n0 = len(bound_levels(base))
    assert len(bound_levels(WellSystem(((4.5, 3.0),), ()))) >= n0
    assert len(bound_levels(WellSystem(((3.0, 4.5),), ()))) >= n0


def test_grid_validation():
    ws = WellSystem(((3.0, 3.0),), ())
    with pytest.raises(ValueError):
        bound_levels(ws, 200)
    with pytest.raises(ValueError):
        bound_levels_shooting(ws, 200)


def test_well_system_validation():
    with pytest.raises(ValueError):
        WellSystem(((3.0, 1.0), (3.0, 1.0)), ())          # missing barrier
    with pytest.raises(ValueError):
        WellSystem(((0.0, 1.0),), ())                     # flat "well"
    with pytest.raises(ValueError):
        WellSystem(((3.0, 1.0),), (), outer="periodic")


# ----------------------------------------------------------------------
# level scans

def test_scan_distinct_wells_levels_barely_move(units):
    ws = fig5_system(units)
    scan = level_scan(ws, 0, (cm(units, 2.8e-8), cm(units, 5.6e-8)), steps=20)
    lv0 = sorted(r.energy for r in scan.rows if r.scan_value == scan.values[0])
    spacing = float(np.mean(np.diff(lv0)))
    shifts = []
    for tid in range(scan.n_tracks()):
        tr = scan.track(tid)
        if len(tr) == len(scan.values):
            es = [e for _, e in tr]
            shifts.append(max(es) - min(es))
    assert max(shifts) < 0.15 * spacing


def test_scan_identical_wells_keep_nine_levels_and_shift_strongly(units):
    ws = fig6_system(units)
    scan = level_scan(ws, "coherent", (cm(units, 2.8e-8), cm(units, 5.6e-8)),
                      steps=20)
    assert {r.event for r in scan.rows} == {"none"}
    for v in scan.values:
        assert sorted(r.level_index for r in scan.rows if r.scan_value == v) \
            == list(range(9))
    lv0 = sorted(r.energy for r in scan.rows if r.scan_value == scan.values[0])
    spacing = float(np.mean(np.diff(lv0)))
    shifts = [max(e for _, e in scan.track(k)) - min(e for _, e in scan.track(k))
              for k in range(scan.n_tracks())]
    assert max(shifts) > 0.3 * spacing


def test_scan_identical_wells_level_appears_as_barriers_widen(units):
    ws = fig6_system(units)
    scan = level_scan(ws, "coherent", (cm(units, 2e-9), cm(units, 1e-8)), steps=20)
    counts = [sum(r.scan_value == v and r.event != "disappear" for r in scan.rows)
              for v in scan.values]
    assert counts[0] == 8 and counts[-1] == 9
    assert counts == sorted(counts)
    events = [(r.scan_value, r.level_index, r.event) for r in scan.rows
              if r.event != "none"]
    assert len(events) == 1 and events[0][1:] == (8, "appear")
    assert counts[scan.values.index(events[0][0])] == 9
    # the new level is the most weakly bound one
    first = [r for r in scan.rows if r.scan_value == events[0][0]]
    assert min(first, key=lambda r: r.energy).level_index == 8


def test_scan_labels_tracks_from_the_ground_state(monkeypatch):
    # three levels up to barrier width 1.5, two beyond: the shallowest
    # track disappears and keeps its last energy
    def fake_levels(ws, E_grid):
        b = ws.barriers[0]
        depths = (0.1, 0.5, 0.9) if b < 1.5 else (0.6, 1.0)
        return LevelSet(tuple(e + b for e in depths), 3.0)
    monkeypatch.setattr(spectra, "bound_levels", fake_levels)
    scan = level_scan(WellSystem(((3.0, 1.0),) * 2, (1.0,)), 0, (1.0, 2.0), steps=20)
    step = [v for v in scan.values if v >= 1.5][0]
    last = max(v for v in scan.values if v < 1.5)
    rows = [(r.level_index, r.energy, r.event) for r in scan.rows if r.scan_value == step]
    assert rows == [(1, 0.6 + step, "none"), (0, 1.0 + step, "none"),
                    (2, 0.1 + last, "disappear")]
    assert [r.level_index for r in scan.rows if r.scan_value == scan.values[0]] == [2, 1, 0]
    assert {r.event for r in scan.rows} == {"none", "disappear"}


def test_count_bisection_refuses_rising_or_unresolvable_counts():
    ws = WellSystem(((3.0, 3.0),), ())
    with pytest.raises(LevelCountError):
        _count_brackets(ws, 1.0, 2.0, 1, 3)        # count rises with depth
    with pytest.raises(LevelCountError):
        _count_brackets(ws, 1.0, math.nextafter(1.0, 2.0), 3, 0)


def test_scan_validation(units):
    ws = fig5_system(units)
    with pytest.raises(ValueError):
        level_scan(ws, 0, (1.0, 2.0), steps=5)
    with pytest.raises(ValueError):
        level_scan(ws, 0, (-1.0, 2.0), steps=20)


# ----------------------------------------------------------------------
# bands

def test_free_cell_is_one_band():
    cell = Potential((Segment(2.0, Constant(0.0)),))
    bs = band_structure(cell, (0.01, 4.0), grid=500)
    assert len(bs) == 1
    assert bs.bands[0] == (pytest.approx(0.01), pytest.approx(4.0))


def test_kronig_penney_matches_transcendental():
    V0, b, L = 2.0, 0.6, 2.0
    cell = Potential((Segment(b, Constant(V0)), Segment(L - b, Constant(0.0))))
    bs = band_structure(cell, (1e-4, 6.0), grid=4000)
    edges, inside = kronig_penney_band_edges(V0, b, L, 6.0)
    got_edges = [e for band in bs.bands for e in band
                 if 1e-3 < e < 6.0 - 1e-3]
    assert len(got_edges) == len(edges)
    for g, e in zip(got_edges, edges):
        assert g == pytest.approx(e, abs=1e-8)


def test_fig_cell_bands_converge_with_grid(units):
    cell, u = fig_cell(units)
    b1 = band_structure(cell, (u * 1e-4, u), grid=2000)
    b2 = band_structure(cell, (u * 1e-4, u), grid=4000)
    assert len(b1) == len(b2) >= 2
    for (lo1, hi1), (lo2, hi2) in zip(b1.bands, b2.bands):
        assert abs(lo1 - lo2) < 1e-9 and abs(hi1 - hi2) < 1e-9


def test_compression_expands_bands_and_narrows_gaps(units):
    cell, u = fig_cell(units)
    window = (u * 1e-4, u)
    scan = dict(compression_scan(cell, (1.0, 0.6, 0.2), window, grid=3000))
    base = scan[1.0]
    for f in (0.6, 0.2):
        comp = scan[f]
        n = min(len(base), len(comp))
        assert n >= 2
        assert all(comp.widths()[i] > base.widths()[i] for i in range(n))
        m = min(len(base) - 1, len(comp) - 1)
        assert all(comp.gaps()[i] < base.gaps()[i] for i in range(m))
        assert all(comp.bands[i][0] < base.bands[i][0] for i in range(min(2, n)))


def test_total_band_measure_grows_monotonically_under_compression(units):
    cell, u = fig_cell(units)
    window = (u * 1e-4, u)
    scan = compression_scan(cell, (1.0, 0.8, 0.6, 0.4, 0.2), window, grid=2500)
    measures = [bs.total_measure() for _, bs in scan]
    assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(measures, measures[1:]))


def test_compression_scan_validation(units):
    cell, u = fig_cell(units)
    with pytest.raises(ValueError):
        compression_scan(cell, (1.5,), (u * 1e-4, u))


# ----------------------------------------------------------------------
# tight binding

def test_tight_binding_band_extremes():
    a, E0, al, g = 1.0, 5.0, 1.0, 0.25
    assert tight_binding_energy(0, 0, 0, a, E0, al, g) == pytest.approx(E0 - al - 6 * g)
    kbz = math.pi / a
    assert tight_binding_energy(kbz, kbz, kbz, a, E0, al, g) == pytest.approx(E0 - al + 6 * g)


def test_tight_binding_periodicity():
    a = 0.7
    rng = np.random.default_rng(5)
    k = rng.uniform(-3, 3, 8)
    e1 = tight_binding_energy(k, k * 0.5, -k, a, 4.0, 0.3, 0.4)
    e2 = tight_binding_energy(k + 2 * math.pi / a, k * 0.5, -k, a, 4.0, 0.3, 0.4)
    np.testing.assert_allclose(e1, e2, atol=1e-12)
