import cmath
import math
import tracemalloc

import numpy as np
import pytest

from barrier1d._kernels import _BLOCK_ROWS
from barrier1d.compose import (GapJoin, HeightDistribution, LossModel,
                               LossRangeError, averaged_transmittance_center_fluct,
                               compose_chain, compose_pair, compose_pair_lossy,
                               lossy_gap_data, resonance_condition_met,
                               three_barrier_closed_form, transmittance_pair)
from barrier1d.compose import _slab_pair_d
from barrier1d.oracle import ScatterData, free_data, solve_exact
from barrier1d.potential import Constant, Potential, Segment, build_rect_pair
from barrier1d.resonance import rect_pair_resonant_L
from barrier1d.riccati import slab_data

from conftest import random_chain, random_slab_potential


def barrier(U, a):
    return Potential((Segment(a, Constant(U)),))


def test_compose_with_identity_returns_input():
    s1 = solve_exact(barrier(0.9, 1.3), 0.4)
    out = compose_pair(s1, GapJoin(0.0, s1.k_right), free_data(s1.k_right))
    assert out.T == pytest.approx(s1.T, abs=1e-15)
    assert out.R == pytest.approx(s1.R, abs=1e-15)
    assert out.R_rev == pytest.approx(s1.R_rev, abs=1e-15)
    assert out.extent == s1.extent


def test_identical_barriers_at_resonant_gap_transmit_fully():
    U, a, E = 0.9, 1.4, 0.3
    L = rect_pair_resonant_L(U, a, E, 1)
    s = solve_exact(barrier(U, a), E)
    d = transmittance_pair(s, GapJoin(L, s.k_right), s).D
    assert d == pytest.approx(1.0, abs=1e-10)


def test_split_anywhere_matches_whole_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        whole, pieces, gaps, E = random_chain(rng)
        k = math.sqrt(E)
        items = [solve_exact(pieces[0], E)]
        for i in range(len(gaps)):
            items += [GapJoin(gaps[i], k), solve_exact(pieces[i + 1], E)]
        sc = compose_chain(items)
        so = solve_exact(whole, E)
        for a, b in ((sc.T, so.T), (sc.R, so.R), (sc.T_rev, so.T_rev), (sc.R_rev, so.R_rev)):
            assert abs(a - b) < 1e-10


def test_split_inside_evanescent_region():
    p = Potential((Segment(2.0, Constant(1.2)),))
    E = 0.5
    k = math.sqrt(E)
    sc = compose_pair(solve_exact(barrier(1.2, 0.7), E), GapJoin(0.0, k),
                      solve_exact(barrier(1.2, 1.3), E))
    so = solve_exact(p, E)
    assert abs(sc.T - so.T) < 1e-12 and abs(sc.R - so.R) < 1e-12


def test_translation_invariant_pair_identities():
    """The textbook form of the join -- translation-invariant transmission
    amplitudes and the explicit exp(2ik(a1+L)) width phase in the combined
    reflection -- reproduces compose_pair after re-referencing."""
    rng = np.random.default_rng(22)
    for _ in range(20):
        p1 = random_slab_potential(rng, h_lo=0.0)
        p2 = random_slab_potential(rng, h_lo=0.0)
        E = float(rng.uniform(0.3, 1.8))
        L = float(rng.uniform(0.0, 2.0))
        k = math.sqrt(E)
        s1, s2 = solve_exact(p1, E), solve_exact(p2, E)
        out = compose_pair(s1, GapJoin(L, k), s2)

        t1g = s1.T * cmath.exp(-1j * k * s1.extent)
        t1g_rev = s1.T_rev * cmath.exp(-1j * k * s1.extent)
        t2g = s2.T * cmath.exp(-1j * k * s2.extent)
        den = 1.0 - s1.R_rev * s2.R * cmath.exp(2j * k * L)
        t12g = t1g * t2g / den
        r12 = s1.R + t1g * s2.R * t1g_rev * cmath.exp(2j * k * (s1.extent + L)) / den
        assert abs(out.T * cmath.exp(-1j * k * out.extent) - t12g) < 1e-12
        assert abs(out.R - r12) < 1e-12


def test_pair_transmittance_bounds_hold():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p1 = random_slab_potential(rng)
        p2 = random_slab_potential(rng)
        E = float(rng.uniform(0.3, 1.8))
        L = float(rng.uniform(0.0, 3.0))
        s1, s2 = solve_exact(p1, E), solve_exact(p2, E)
        res = transmittance_pair(s1, GapJoin(L, math.sqrt(E)), s2)
        assert res.D_min - 1e-12 <= res.D <= res.D_max + 1e-12


def test_pair_bounds_trivial_and_worst_phase():
    k = 1.0
    s_clear = free_data(k)
    res = transmittance_pair(s_clear, GapJoin(1.0, k), s_clear)
    assert res.D == res.D_min == res.D_max == pytest.approx(1.0)
    # equal moduli rho: the lower bound is (1-rho^2)^2/(1+rho^2)^2
    rho = 0.6
    t = math.sqrt(1 - rho * rho)
    s = ScatterData(T=t, R=rho * 1j, T_rev=t, R_rev=rho * 1j, k_left=k, k_right=k)
    res = transmittance_pair(s, GapJoin(0.7, k), s)
    assert res.D_min == pytest.approx((1 - rho ** 2) ** 2 / (1 + rho ** 2) ** 2, rel=1e-12)


def test_resonance_condition_met():
    U, a, E = 0.9, 1.4, 0.3
    L = rect_pair_resonant_L(U, a, E, 1)
    s = solve_exact(barrier(U, a), E)
    ok, residual = resonance_condition_met(s, s, GapJoin(L, s.k_right), tol=1e-9)
    assert ok and residual < 1e-9
    # trivially met for reflectionless scatterers
    ok0, r0 = resonance_condition_met(free_data(1.0), free_data(1.0), GapJoin(0.5, 1.0))
    assert ok0 and r0 == 0.0


def test_unequal_moduli_never_resonant():
    E = 0.4
    s1 = solve_exact(barrier(0.9, 1.2), E)
    s2 = solve_exact(barrier(1.4, 0.8), E)
    assert abs(abs(s1.R_rev) - abs(s2.R)) > 1e-3
    k = math.sqrt(E)
    for L in np.linspace(0.0, 3.0 * math.pi / k, 400):
        met, _ = resonance_condition_met(s1, s2, GapJoin(float(L), k), tol=1e-6)
        assert not met
        assert transmittance_pair(s1, GapJoin(float(L), k), s2).D < 1.0 - 1e-4


def test_compose_chain_single_and_validation():
    s = solve_exact(barrier(0.9, 1.0), 0.5)
    assert compose_chain([s]) is s
    with pytest.raises(ValueError):
        compose_chain([])
    with pytest.raises(ValueError):
        compose_chain([s, GapJoin(1.0, s.k_right)])
    with pytest.raises(TypeError):
        compose_chain([s, s, s])


def test_left_and_right_folds_agree():
    rng = np.random.default_rng(24)
    for _ in range(20):
        whole, pieces, gaps, E = random_chain(rng, n_barriers=3)
        k = math.sqrt(E)
        s = [solve_exact(p, E) for p in pieces]
        j = [GapJoin(g, k) for g in gaps]
        left = compose_pair(compose_pair(s[0], j[0], s[1]), j[1], s[2])
        right = compose_pair(s[0], j[0], compose_pair(s[1], j[1], s[2]))
        assert abs(left.T - right.T) < 1e-12
        assert abs(left.R - right.R) < 1e-12
        assert abs(left.R_rev - right.R_rev) < 1e-12


def test_three_barrier_closed_form_matches_fold():
    rng = np.random.default_rng(25)
    for _ in range(40):
        whole, pieces, gaps, E = random_chain(rng, n_barriers=3)
        k = math.sqrt(E)
        s = [solve_exact(p, E) for p in pieces]
        d_closed = three_barrier_closed_form(s[0], gaps[0], s[1], gaps[1], s[2])
        d_fold = compose_chain([s[0], GapJoin(gaps[0], k), s[1],
                                GapJoin(gaps[1], k), s[2]]).D
        assert d_closed == pytest.approx(d_fold, abs=1e-12)


def test_gap_periodicity_of_transmittance():
    U, a, E = 1.1, 1.0, 0.45
    k = math.sqrt(E)
    s = solve_exact(barrier(U, a), E)
    for L in (0.3, 1.1, 2.4):
        d0 = transmittance_pair(s, GapJoin(L, k), s).D
        for n in (1, 2, 5):
            dn = transmittance_pair(s, GapJoin(L + n * math.pi / k, k), s).D
            assert abs(dn - d0) < 1e-10


def test_resonant_pairs_stay_transparent_at_any_separation():
    E = 0.3
    la = rect_pair_resonant_L(0.9, 1.4, E, 1)
    lb = rect_pair_resonant_L(1.0, 1.25, E, 1)
    pa = build_rect_pair(0.9, 1.4, la)
    pb = build_rect_pair(1.0, 1.25, lb)
    sa, sb = solve_exact(pa, E), solve_exact(pb, E)
    k = math.sqrt(E)
    for L in np.linspace(0.0, 8.0, 17):
        d = transmittance_pair(sa, GapJoin(float(L), k), sb).D
        assert d >= 1.0 - 1e-9


# ----------------------------------------------------------------------
# fluctuation averaging

def _fluct_setup(units):
    U = float(units.energy_from_ev(1.0))
    a = float(units.length_from_angstrom(4.0))
    E = float(units.energy_from_ev(2.0))
    w_c = float(units.length_from_angstrom(0.4))
    mean = float(units.energy_from_ev(3.63))  # near the transmission maximum in h
    p = Potential((Segment(a, Constant(U)),))
    return p, p, w_c, mean, E


def test_fluct_zero_variance_equals_point_value(units):
    left, right, w_c, mean, E = _fluct_setup(units)
    res = averaged_transmittance_center_fluct(
        left, right, w_c, HeightDistribution("uniform", mean, 0.0), E,
        samples=1000, seed=3)
    assert res.mean_D == pytest.approx(res.D_at_mean, abs=1e-15)
    assert res.half_width == pytest.approx(0.0, abs=1e-15)


def test_fluct_symmetric_spread_reduces_transmittance(units):
    left, right, w_c, mean, E = _fluct_setup(units)
    res = averaged_transmittance_center_fluct(
        left, right, w_c, HeightDistribution("uniform", mean, 0.2 * mean), E,
        samples=20_000, seed=3)
    assert res.mean_D < res.D_at_mean - 3.0 * res.half_width


def test_fluct_seed_consistency(units):
    left, right, w_c, mean, E = _fluct_setup(units)
    dist = HeightDistribution("uniform", mean, 0.2 * mean)
    r1 = averaged_transmittance_center_fluct(left, right, w_c, dist, E,
                                             samples=20_000, seed=101)
    r2 = averaged_transmittance_center_fluct(left, right, w_c, dist, E,
                                             samples=20_000, seed=202)
    combined = math.hypot(r1.half_width / 1.96, r2.half_width / 1.96)
    assert abs(r1.mean_D - r2.mean_D) < 3.0 * combined


@pytest.mark.parametrize("kind", ["uniform", "normal"])
def test_fluct_blocks_keep_the_bits_of_one_evaluation(units, kind):
    # two whole blocks and a partial one against one pass over all samples
    left, right, w_c, mean, E = _fluct_setup(units)
    dist = HeightDistribution(kind, mean, 0.2 * mean)
    samples = 2 * _BLOCK_ROWS + 17
    res = averaged_transmittance_center_fluct(left, right, w_c, dist, E,
                                              samples=samples, seed=7)
    s_l, s_r = solve_exact(left, E), solve_exact(right, E)
    hs = dist.sample(np.random.default_rng(7), samples)
    d = _slab_pair_d(s_l, s_r, w_c, hs, E, s_l.k_right)
    ref = (float(np.mean(d)),
           1.96 * float(np.std(d, ddof=1) / math.sqrt(samples)),
           float(_slab_pair_d(s_l, s_r, w_c, np.array([mean]), E, s_l.k_right)[0]))
    got = (res.mean_D, res.half_width, res.D_at_mean)
    assert [v.hex() for v in got] == [v.hex() for v in ref]


def test_fluct_peak_memory_is_bounded(units):
    left, right, w_c, mean, E = _fluct_setup(units)
    dist = HeightDistribution("uniform", mean, 0.2 * mean)
    averaged_transmittance_center_fluct(left, right, w_c, dist, E, samples=1000)
    tracemalloc.start()
    try:
        averaged_transmittance_center_fluct(left, right, w_c, dist, E, samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # heights and D take 1.6 MB; a full-length evaluation peaked at 17.6 MB
    assert peak < 6e6


def test_fluct_validation(units):
    left, right, w_c, mean, E = _fluct_setup(units)
    with pytest.raises(ValueError):
        averaged_transmittance_center_fluct(
            left, right, w_c, HeightDistribution("uniform", mean, 0.1), E, samples=10)
    with pytest.raises(ValueError):
        HeightDistribution("uniform", math.inf, 0.1)
    with pytest.raises(ValueError):
        HeightDistribution("cauchy", 1.0, 0.1)


# ----------------------------------------------------------------------
# loss channel

def test_zero_loss_reduces_to_compose_pair():
    E = 0.6
    s1 = solve_exact(barrier(0.9, 1.1), E)
    s2 = solve_exact(barrier(1.2, 0.7), E)
    gap = GapJoin(1.3, math.sqrt(E))
    a = compose_pair(s1, gap, s2)
    b = compose_pair_lossy(s1, gap, s2, LossModel(0.0, 0.0))
    assert abs(a.T - b.T) < 1e-14 and abs(a.R - b.R) < 1e-14
    assert abs(a.R_rev - b.R_rev) < 1e-14


def test_lossy_gap_pure_attenuation():
    k, L, wp = 0.8, 1.7, 0.05
    g = lossy_gap_data(GapJoin(L, k), LossModel(0.0, wp))
    assert g.T == pytest.approx(cmath.exp((1j * k - wp) * L), abs=1e-12)
    assert abs(g.R) < 1e-14
    assert 0.0 < g.loss < 1.0


def test_lossy_single_slab_transmission_drops():
    E, U, dx = 0.8, 1.2, 0.005
    s0 = slab_data(U, dx, E)
    s1 = slab_data(U, dx, E, LossModel(0.0, 0.1))
    assert abs(s1.T) < abs(s0.T)
    # first-order loss: |T|^2 deficit ~ 2 w' dx
    assert 1.0 - abs(s1.T) ** 2 / abs(s0.T) ** 2 == pytest.approx(2 * 0.1 * dx, rel=0.02)


def test_lossy_chain_transmission_reciprocal_reflections_not():
    E = 0.8
    k = math.sqrt(E)
    rng = np.random.default_rng(26)
    loss = LossModel(0.02 + 0.01j, 0.05)
    items = []
    heights = rng.uniform(0.0, 2.0, 40)
    for i, h in enumerate(heights):
        if i:
            items.append(GapJoin(0.0, k))
        items.append(slab_data(float(h), 0.004, E, loss))
    s = compose_chain(items)
    assert s.loss > 1e-4                      # genuinely lossy
    assert abs(s.T - s.T_rev) < 1e-12         # transmission reciprocity survives
    dphi = abs(cmath.phase(s.R) - cmath.phase(s.R_rev))
    assert dphi > 1e-3                        # reflection phases split


def test_pumping_loss_detected():
    E = 0.8
    gap = GapJoin(3.0, math.sqrt(E))
    s = free_data(math.sqrt(E))
    with pytest.raises(LossRangeError):
        compose_pair_lossy(s, gap, s, LossModel(0.0, -0.4))
