import math

import numpy as np
import pytest

from barrier1d.potential import (Constant, Linear, Potential, Sampled, Segment,
                                 build_rect_pair, compress,
                                 load_potential, save_potential, wave_number,
                                 M_ELECTRON, HBAR, EV, ANGSTROM)


def test_unit_round_trips(units):
    for v in (1.0, 0.37, 2.4e-12, 8e-8):
        assert units.ev_from_energy(units.energy_from_ev(v)) == pytest.approx(v, rel=1e-12)
        assert units.erg_from_energy(units.energy_from_erg(v)) == pytest.approx(v, rel=1e-12)
        assert units.angstrom_from_length(units.length_from_angstrom(v)) == pytest.approx(v, rel=1e-12)
        assert units.cm_from_length(units.length_from_cm(v)) == pytest.approx(v, rel=1e-12)


def test_segment_widths_survive_unit_round_trip(units):
    w_ang = 2.8
    w_int = float(units.length_from_angstrom(w_ang))
    assert float(units.angstrom_from_length(w_int)) == pytest.approx(w_ang, rel=1e-12)


def test_wave_number_turning_point():
    assert wave_number(0.7, 0.7) == 0.0


def test_wave_number_natural_normalization():
    assert wave_number(1.0, 0.0) == pytest.approx(1.0)


def test_wave_number_electron_ev_angstrom(units):
    # k for a 0.1 eV electron over flat potential, expressed per Angstrom
    k_int = wave_number(float(units.energy_from_ev(0.1)), 0.0).real
    k_per_ang = float(units.inv_angstrom_from_wavenumber(k_int))
    expected = math.sqrt(2.0 * M_ELECTRON * 0.1 * EV) / HBAR * ANGSTROM
    assert k_per_ang == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5123167 * math.sqrt(0.1), rel=1e-6)


def test_wave_number_continuous_across_turning_point():
    below = wave_number(0.5 - 1e-12, 0.5)
    above = wave_number(0.5 + 1e-12, 0.5)
    assert abs(below) < 2e-6 and abs(above) < 2e-6


def test_build_rect_pair_reference_extents(units):
    a = float(units.length_from_angstrom(2.8))
    L = float(units.length_from_angstrom(14.03))
    p = build_rect_pair(float(units.energy_from_ev(0.9)), a, L)
    assert len(p.segments) == 3
    assert float(units.angstrom_from_length(p.extent)) == pytest.approx(19.63, rel=1e-12)

    a2 = float(units.length_from_angstrom(2.5))
    L2 = float(units.length_from_angstrom(6.462))
    p2 = build_rect_pair(float(units.energy_from_ev(1.0)), a2, L2)
    assert float(units.angstrom_from_length(p2.extent)) == pytest.approx(11.462, rel=1e-12)


def test_build_rect_pair_zero_gap_collapses():
    p = build_rect_pair(0.9, 1.3, 0.0)
    assert len(p.segments) == 1
    assert p.segments[0].width == pytest.approx(2.6)
    assert p.segments[0].profile == Constant(0.9)


def test_build_rect_pair_rejects_bad_width():
    with pytest.raises(ValueError):
        build_rect_pair(0.9, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_rect_pair(0.9, -1.0, 1.0)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0.0, Constant(1.0))
    with pytest.raises(ValueError):
        Sampled((1.0,))
    # negative heights (wells) are fine
    Segment(1.0, Constant(-2.0))
    Segment(1.0, Sampled((-1.0, 0.0, 2.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_heights_and_floors_are_rejected(bad):
    # a NaN or infinite height has no solution; each constructor refuses it
    # rather than let a solver hang or blame the conditioning
    for make in (lambda: Constant(bad), lambda: Linear(bad, 0.1),
                 lambda: Linear(0.5, bad), lambda: Sampled((0.2, bad, 0.4)),
                 lambda: Potential((), v_left=bad), lambda: Potential((), v_right=bad)):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_compress_identity():
    p = build_rect_pair(0.9, 1.3, 2.0)
    q = compress(p, 1.0)
    assert [s.width for s in q.segments] == [s.width for s in p.segments]


def fig_cell(units):
    u = float(units.energy_from_erg(1.1e-12))
    b = float(units.length_from_cm(2.5e-8))
    ws = [float(units.length_from_cm(c)) for c in (2e-8, 2.5e-8, 2.5e-8, 2e-8)]
    segs = []
    for i in range(4):
        segs.append(Segment(b, Constant(u)))
        segs.append(Segment(ws[i], Constant(0.0)))
    return Potential(tuple(segs))


@pytest.mark.parametrize("factor,b_cm", [(0.6, 1.5e-8), (0.2, 0.5e-8)])
def test_compress_scales_barriers_only(units, factor, b_cm):
    cell = fig_cell(units)
    c = compress(cell, factor)
    for s_old, s_new in zip(cell.segments, c.segments):
        if s_old.is_barrier:
            assert float(units.cm_from_length(s_new.width)) == pytest.approx(b_cm, rel=1e-12)
        else:
            assert s_new.width == s_old.width


def test_compress_composes_multiplicatively(units):
    cell = fig_cell(units)
    a = compress(compress(cell, 0.5), 0.6)
    b = compress(cell, 0.3)
    for sa, sb in zip(a.segments, b.segments):
        assert sa.width == pytest.approx(sb.width, rel=1e-14)


def test_compress_rejects_nonpositive():
    p = build_rect_pair(0.9, 1.3, 2.0)
    for f in (0.0, -0.5):
        with pytest.raises(ValueError):
            compress(p, f)


def test_compress_override_flag():
    # a positive-height segment pinned as non-compressible keeps its width
    p = Potential((Segment(1.0, Constant(0.5), compressible=False),
                   Segment(1.0, Constant(0.5))))
    q = compress(p, 0.5)
    assert q.segments[0].width == 1.0
    assert q.segments[1].width == 0.5


def test_sample_piecewise_linear():
    p = Potential((Segment(1.0, Constant(0.4)),
                   Segment(2.0, Linear(0.0, 0.5)),
                   Segment(1.0, Sampled((1.0, 0.0, 1.0)))))
    assert p.sample(0.5) == pytest.approx(0.4)
    assert p.sample(2.0) == pytest.approx(0.5)
    assert p.sample(3.25) == pytest.approx(0.5)   # halfway down the first sub-piece
    assert p.sample(-1.0) == 0.0 and p.sample(10.0) == 0.0


def test_reversed_is_involution():
    p = Potential((Segment(1.0, Linear(0.2, 0.3)),
                   Segment(0.5, Constant(0.0)),
                   Segment(0.8, Sampled((0.1, 0.9, 0.4)))), 0.0, 0.2)
    q = p.reversed().reversed()
    assert q == p
    xs = np.linspace(0.0, p.extent, 57)
    np.testing.assert_allclose(p.reversed().sample(xs), p.sample(p.extent - xs),
                               atol=1e-14)


def test_as_slabs_midpoint_samples_ramp():
    p = Potential((Segment(2.0, Linear(0.0, 1.0)),))
    w, h = p.as_slabs(n_slab=4)
    np.testing.assert_allclose(w, 0.5)
    np.testing.assert_allclose(h, [0.25, 0.75, 1.25, 1.75])


def test_as_slabs_keeps_segment_order_and_midpoints_bit_for_bit():
    # dyadic widths, heights and slopes: every midpoint value below is exact
    p = Potential((Segment(0.5, Constant(3.0)),
                   Segment(2.0, Linear(0.25, -0.5)),
                   Segment(1.5, Constant(-1.0)),
                   Segment(4.0, Sampled((0.0, 1.0, 3.0))),
                   Segment(0.75, Constant(2.0))))
    w, h = p.as_slabs(n_slab=8)
    assert w.dtype == h.dtype == np.float64
    assert w.tolist() == [0.5] + [0.25] * 8 + [1.5] + [0.5] * 8 + [0.75]
    ramp = [0.25 - 0.5 * (i + 0.5) * 0.25 for i in range(8)]
    # nodes at x = 0, 2, 4 of the sampled segment, midpoints 0.25 .. 3.75
    sampled = [0.125, 0.375, 0.625, 0.875, 1.25, 1.75, 2.25, 2.75]
    assert h.tolist() == [3.0] + ramp + [-1.0] + sampled + [2.0]


def test_as_slabs_of_an_empty_potential_is_empty():
    w, h = Potential(()).as_slabs()
    assert w.shape == h.shape == (0,)
    assert w.dtype == h.dtype == np.float64


def test_potential_file_round_trip(tmp_path, units):
    p = Potential((Segment(float(units.length_from_angstrom(2.8)),
                           Constant(float(units.energy_from_ev(0.9)))),
                   Segment(float(units.length_from_angstrom(5.0)),
                           Constant(0.0)),
                   Segment(float(units.length_from_angstrom(1.5)),
                           Sampled(tuple(float(units.energy_from_ev(v))
                                         for v in (0.1, 0.4, 0.2))),
                           compressible=False)),
                  v_left=0.0, v_right=float(units.energy_from_ev(0.05)))
    f = tmp_path / "pot.txt"
    save_potential(p, f, units="ev_angstrom")
    q = load_potential(f)
    assert len(q.segments) == 3
    assert q.v_right == pytest.approx(p.v_right, rel=1e-12)
    for sp, sq in zip(p.segments, q.segments):
        assert sq.width == pytest.approx(sp.width, rel=1e-12)
        assert sq.compressible == sp.compressible
    # probe strictly inside segments; edge points are ambiguous under the
    # 1-ulp width perturbations of a unit round trip
    edges = p.boundaries()
    xs = np.concatenate([np.linspace(edges[i] + 1e-6, edges[i + 1] - 1e-6, 7)
                         for i in range(len(edges) - 1)])
    np.testing.assert_allclose(q.sample(xs), p.sample(xs), rtol=1e-9, atol=1e-12)


def test_load_potential_rejects_malformed(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("segment wedge width=1.0\n")
    with pytest.raises(ValueError):
        load_potential(f)
    f.write_text("units natural\nsegment linear width=1 start=2\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: .*linear segment needs"):
        load_potential(f)
