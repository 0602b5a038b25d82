"""The vectorised grid kernels must agree with the scalar single-energy
paths: bit for bit for shooting, to rounding for slab products."""

import numpy as np
import pytest

from barrier1d._kernels import (_SCALE_LIMIT, _cell_traces, _clip_trace, _cs,
                                _cs_entries, _rk4_region, _rk4_rows,
                                _shoot_mismatch, _transfer_product,
                                _transfer_products)
from barrier1d.spectra import _MAX_PHASE_STEP, WellSystem, _shoot_values


@pytest.mark.parametrize("w", [0.37, 1.0, 4.2])
def test_cs_matches_scalar_entries_on_every_branch(w):
    # t = q2*w^2 above 1e-6 (trig), below -1e-6 (hyperbolic) and within
    # +-1e-6 (series), including q2 = 0 and both sides of each threshold
    t = np.array([3e-6, 1.0000001e-6, 0.7, 25.0, 400.0,
                  -3e-6, -1.0000001e-6, -0.7, -25.0, -400.0,
                  1e-6, 5e-7, 1e-12, 0.0, -1e-12, -5e-7, -1e-6])
    q2 = t / (w * w)
    c, s = _cs(q2, w)
    for i, q in enumerate(q2):
        c_ref, s_ref = _cs_entries(float(q), w)
        assert c[i] == pytest.approx(c_ref, rel=1e-15, abs=0.0)
        assert s[i] == pytest.approx(s_ref, rel=1e-15, abs=0.0)
    zero = np.flatnonzero(q2 == 0.0)
    assert zero.size == 1
    assert c[zero[0]] == 1.0 and s[zero[0]] == w


def _opaque_stack():
    # a 40-slab stack of tall barriers and shallow wells: opaque enough at
    # low energies to trip both the 1e100 rescale and the +-1e300 clip,
    # while energies above the barriers never rescale
    rng = np.random.default_rng(3)
    widths = rng.uniform(1.0, 3.0, 40)
    heights = np.where(np.arange(40) % 2 == 0, rng.uniform(300.0, 600.0, 40),
                       rng.uniform(-2.0, 0.0, 40))
    return widths, heights, np.linspace(0.05, 700.0, 160)


def test_transfer_products_match_scalar_product_per_energy():
    widths, heights, energies = _opaque_stack()
    grid = _transfer_products(widths, heights, energies)
    ref = np.array([_transfer_product(widths, e - heights) for e in energies]).T
    assert np.any(ref[4] == 0.0) and np.any(ref[4] > 0.0)
    # entries and log scale, each with the same tolerance as the traces
    for got, want in zip(grid, ref):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_cell_traces_match_scalar_product_with_rescale_and_clip():
    widths, heights, energies = _opaque_stack()
    tr = _cell_traces(widths, heights, energies)
    ref, log_scales = [], []
    for e in energies:
        m11, _, _, m22, log_scale = _transfer_product(widths, e - heights)
        ref.append(float(_clip_trace(m11 + m22, log_scale)))
        log_scales.append(log_scale)
    ref = np.array(ref)
    log_scales = np.array(log_scales)
    assert np.any(log_scales == 0.0)
    assert np.any(log_scales >= np.log(_SCALE_LIMIT))
    assert np.any(np.abs(ref) == 1e300)
    assert np.any((np.abs(ref) < 1e300) & (log_scales > 0.0))
    # numpy's trig differs from libm by an ulp at times; cancellation in the
    # opaque products lifts that to about 2e-12 here
    np.testing.assert_allclose(tr, ref, rtol=1e-10, atol=0.0)


def test_rk4_rows_match_scalar_region_bit_for_bit():
    # unequal step counts (the rows finish at different steps, in no
    # particular order), both step directions, and rows that cross the
    # 1e120 renormalisation at different steps
    psi = np.array([1.0, 0.3, 1e119, -2e118, 0.0, 5e119])
    dpsi = np.array([0.0, -1.2, 0.0, 3e118, 1.0, -1e119])
    q2 = np.array([4.0, -0.5, -4.0, -9.0, 0.0, 2.5])
    n = np.array([9, 40, 50, 17, 8, 23])
    for w in (3.0, -3.0):
        got_psi, got_dpsi = _rk4_rows(psi, dpsi, q2, w, n)
        for i in range(psi.size):
            ref = _rk4_region(float(psi[i]), float(dpsi[i]), float(q2[i]), w, int(n[i]))
            assert (got_psi[i], got_dpsi[i]) == ref
    # the third row grows by about e^6 over its steps: without the
    # renormalisation it would pass 1e120, with it it stays below
    h, a = 3.0 / 50, 4.0
    c = 1.0 + a * h * h / 2.0 + a * a * h ** 4 / 24.0
    step = np.array([[c, h + a * h ** 3 / 6.0], [a * h + a * a * h ** 3 / 6.0, c]])
    assert np.max(np.abs(np.linalg.matrix_power(step, 50) @ [1e119, 0.0])) > 1e120
    got_psi, got_dpsi = _rk4_rows(psi, dpsi, q2, 3.0, n)
    assert max(abs(got_psi[2]), abs(got_dpsi[2])) < 1e120


def _random_wells(rng, n_wells, outer):
    wells = tuple((float(rng.uniform(2.0, 6.0)), float(rng.uniform(1.0, 3.0)))
                  for _ in range(n_wells))
    bars = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n_wells - 1))
    return WellSystem(wells, bars, outer=outer)


@pytest.mark.parametrize("outer", ["infinite", "finite"])
@pytest.mark.parametrize("n_wells", [1, 2, 3, 4])
def test_shoot_grid_matches_single_rows_bit_for_bit(n_wells, outer):
    ws = _random_wells(np.random.default_rng(10 * n_wells + len(outer)), n_wells, outer)
    es = np.linspace(ws.max_depth * 1e-7, ws.max_depth * (1.0 - 1e-9), 41)
    # the first region takes a different number of steps on different rows
    steps = (np.sqrt(np.abs(ws.region_q2(es)[:, 0])) * ws.region_widths()[0]
             / _MAX_PHASE_STEP).astype(int)
    assert np.unique(steps).size > 10
    grid = _shoot_values(ws, es)
    single = np.array([_shoot_values(ws, es[i:i + 1])[0] for i in range(es.size)])
    assert np.array_equal(grid, single)


def test_shoot_grid_renormalises_like_single_rows():
    # two wells across a barrier of 200, matched at 90% of the barrier:
    # decay constants of 1.7-2.4 grow the left shoot by e^310 to e^440, far
    # past 1e120, so every row renormalises, each at its own steps, while
    # the right shoot stays small enough for the Wronskian norm; a coarse
    # phase step keeps the step count small
    ws = WellSystem(((6.0, 1.0), (6.0, 1.2)), (200.0,), outer="finite")
    es = np.linspace(3.0, 5.9, 13)
    assert np.all(0.9 * np.sqrt(es) * 200.0 > np.log(1e120))
    widths, q2 = ws.region_widths(), ws.region_q2(es)
    kappa = np.sqrt(es)
    bc = (np.ones_like(es), kappa, np.ones_like(es), -kappa)
    grid = _shoot_mismatch(widths, q2, *bc, 1, 0.9, 0.05)
    single = np.array([_shoot_mismatch(widths, q2[i:i + 1], *(b[i:i + 1] for b in bc),
                                       1, 0.9, 0.05)[0]
                       for i in range(es.size)])
    assert np.all(np.isfinite(grid) & (grid != 0.0))
    assert np.array_equal(grid, single)
