"""The vectorised grid kernels must agree with the scalar single-energy
paths: bit for bit for shooting, to rounding for slab products.  The
scalar loops compute on Python numbers and rescale as a max(|m_ij|) test
would."""

import math

import numpy as np
import pytest

from barrier1d._kernels import (RICCATI_ALPHA, RICCATI_COMPLEX, RICCATI_REAL,
                                STATUS_OK, _SCALE_LIMIT, _cell_traces,
                                _clip_trace, _cs, _cs_entries, _riccati_path,
                                _rk4_region, _rk4_rows, _shoot_mismatch,
                                _transfer_product, _transfer_products)
from barrier1d.potential import Constant, Linear, Potential, Segment
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


def _max_abs_product(widths, q2s):
    # the slab product as a plain float loop that rescales whenever
    # max(|m_ij|) > 1e100
    m11, m12, m21, m22, log_scale = 1.0, 0.0, 0.0, 1.0, 0.0
    for w, q2 in zip(widths.tolist(), q2s.tolist()):
        c, s = _cs_entries(q2, w)
        d = -q2 * s
        m11, m12, m21, m22 = (c * m11 + s * m21, c * m12 + s * m22,
                              d * m11 + c * m21, d * m12 + c * m22)
        big = max(abs(m11), abs(m12), abs(m21), abs(m22))
        if big > 1e100:
            m11 /= big; m12 /= big; m21 /= big; m22 /= big
            log_scale += math.log(big)
    return m11, m12, m21, m22, log_scale


def test_transfer_product_rescales_like_the_max_abs_loop():
    widths, heights, energies = _opaque_stack()
    rescaled = 0
    for e in energies:
        got = _transfer_product(widths, e - heights)
        want = _max_abs_product(widths, e - heights)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        rescaled += got[4] > 0.0
    assert 0 < rescaled < energies.size


def test_scalar_kernels_return_python_numbers():
    widths, heights, energies = _opaque_stack()
    for e in (energies[0], energies[-1]):
        assert all(type(v) is float for v in _transfer_product(widths, e - heights))
    # a ramp strong enough to hand every form over to its polar variables
    p = Potential((Segment(3.0, Linear(0.4, 0.3)), Segment(1.0, Constant(0.9))))
    x0, w, u0, sl = p.as_linear_pieces()
    for form in (RICCATI_COMPLEX, RICCATI_REAL, RICCATI_ALPHA):
        status, _, _, rt, lnt, r, _ = _riccati_path(x0, w, u0, sl, 1.1, form, 1e-10,
                                                    1e-12, 2e-6, 1e-6, 10_000)
        assert status == STATUS_OK
        assert type(rt) is complex and type(lnt) is complex and type(r) is complex


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


def _rk4_step_matrix(q2, w, n):
    # one RK4 step of psi'' = -q2 psi, written out as a matrix on (psi, psi')
    h, a = w / n, -q2
    c = 1.0 + a * h * h / 2.0 + a * a * h ** 4 / 24.0
    return np.array([[c, h + a * h ** 3 / 6.0], [a * h + a * a * h ** 3 / 6.0, c]])


def test_rk4_powers_match_step_matrix_powers_and_each_other():
    # unequal step counts with different bit patterns, both step
    # directions, unnormalised starts and regions that grow by up to e^12;
    # a row is rescaled only where it is multiplied, as in the scalar loop
    rng = np.random.default_rng(7)
    psi = np.concatenate([[1.0, 0.3, 1e119, -2e118, 0.0, 5e119], rng.uniform(-3.0, 3.0, 40)])
    dpsi = np.concatenate([[0.0, -1.2, 0.0, 3e118, 1.0, -1e119], rng.uniform(-3.0, 3.0, 40)])
    q2 = np.concatenate([[4.0, -0.5, -4.0, -9.0, 0.0, 2.5], rng.uniform(-16.0, 30.0, 40)])
    n = np.concatenate([[9, 40, 50, 17, 8, 23], rng.integers(8, 20_000, 40)])
    for w in (3.0, -3.0):
        got_psi, got_dpsi = _rk4_rows(psi, dpsi, q2, w, n)
        for i in range(psi.size):
            got = _rk4_region(float(psi[i]), float(dpsi[i]), float(q2[i]), w, int(n[i]))
            assert got == (got_psi[i], got_dpsi[i])
            ref = np.linalg.matrix_power(_rk4_step_matrix(q2[i], w, n[i]), n[i]) \
                @ [psi[i], dpsi[i]]
            ref /= np.max(np.abs(ref))
            # the same vector up to a positive factor: the kernels return it
            # with max norm 1
            assert max(abs(got[0]), abs(got[1])) == 1.0
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-12


def test_rk4_powers_stay_finite_past_the_float_range():
    # kappa = 20 across a width of 40 grows (psi, psi') by about e^800
    q2, w = -400.0, 40.0
    n = int(20.0 * w / _MAX_PHASE_STEP) + 8
    for sign in (1.0, -1.0):
        psi, dpsi = _rk4_region(1.0, 0.0, q2, sign * w, n)
        rows = _rk4_rows(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.full(2, q2),
                         sign * w, np.array([n, n]))
        assert (psi, dpsi) == (rows[0][0], rows[1][0])
        for p, d in ((psi, dpsi), (rows[0][1], rows[1][1])):
            assert math.isfinite(p) and math.isfinite(d) and p != 0.0
            # only the mode growing along the step direction is left
            assert d / p == pytest.approx(sign * 20.0, rel=1e-12)


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
