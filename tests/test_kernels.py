"""The vectorised grid kernels must agree with the scalar single-energy
paths: bit for bit for shooting and for slab products of at least
``_VECTOR_SLABS`` slabs, to rounding for shorter slab products.  The
scalar loops compute on Python numbers and rescale as a max(|m_ij|) test
would."""

import math
import warnings

import numpy as np
import pytest

from barrier1d._kernels import (RICCATI_ALPHA, RICCATI_COMPLEX, RICCATI_REAL,
                                STATUS_OK, _SCALE_LIMIT, _VECTOR_SLABS, _cell_traces,
                                _clip_trace, _cs, _cs_entries, _prufer_walk,
                                _riccati_path, _rk4_region, _rk4_rows, _shoot_mismatch,
                                _transfer_product, _transfer_products)
from barrier1d.oracle import ConditioningError, solve_exact
from barrier1d.potential import Constant, Linear, Potential, Sampled, Segment
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


def _long_opaque_stack(n):
    # n slabs of alternating tall barriers and shallow wells, each thin
    # enough for cosh to stay finite while the product rescales many times
    rng = np.random.default_rng(n)
    widths = rng.uniform(0.2, 0.6, n)
    heights = np.where(np.arange(n) % 2 == 0, rng.uniform(300.0, 600.0, n),
                       rng.uniform(-2.0, 0.0, n))
    return widths, heights, np.linspace(0.05, 700.0, 60)


def test_transfer_product_rescales_like_the_max_abs_loop():
    # below _VECTOR_SLABS slabs the product keeps the float loop's bits
    stacks = [_opaque_stack(), _long_opaque_stack(_VECTOR_SLABS - 1)]
    for widths, heights, energies in stacks:
        rescaled = 0
        for e in energies:
            got = _transfer_product(widths, e - heights)
            want = _max_abs_product(widths, e - heights)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            rescaled += got[4] > 0.0
        assert 0 < rescaled < energies.size


def _long_stacks():
    ramp = Potential((Segment(6.0, Linear(-0.4, 0.5)), Segment(0.7, Constant(1.1))))
    rng = np.random.default_rng(4)
    sampled = Potential((Segment(0.5, Constant(0.3)),
                         Segment(5.0, Sampled(tuple(rng.uniform(-0.3, 1.4, 9))))))
    es = np.linspace(0.02, 3.0, 40)
    return {"linear": (*ramp.as_slabs(), es), "sampled": (*sampled.as_slabs(), es),
            "opaque": _long_opaque_stack(_VECTOR_SLABS),
            "opaque_long": _long_opaque_stack(2049)}


@pytest.mark.parametrize("stack", ["linear", "sampled", "opaque", "opaque_long"])
def test_long_transfer_product_has_the_bits_of_its_grid_row(stack):
    widths, heights, energies = _long_stacks()[stack]
    assert widths.size >= _VECTOR_SLABS
    grid = _transfer_products(widths, heights, energies)
    rescaled = 0
    for i, e in enumerate(energies):
        got = _transfer_product(widths, e - heights)
        assert [v.hex() for v in got] == [float(g[i]).hex() for g in grid]
        rescaled += got[4] > 0.0
    if stack.startswith("opaque"):
        assert 0 < rescaled < energies.size


def _distance(got, want):
    # largest entry difference over the largest entry of want, with got
    # brought to want's log scale: a norm-wise relative error
    g = np.array(got[:4]) * math.exp(got[4] - want[4])
    w = np.array(want[:4])
    return np.max(np.abs(g - w)) / np.max(np.abs(w))


# measured worst cases over the energies of each stack: linear 1.4e-14,
# sampled 9.8e-15, opaque 4.4e-13, opaque_long 8.5e-12
_PAIRING_BOUND = {"linear": 1e-13, "sampled": 1e-13, "opaque": 1e-11, "opaque_long": 1e-10}


@pytest.mark.parametrize("stack", ["linear", "sampled", "opaque", "opaque_long"])
def test_paired_product_keeps_the_digits_of_the_sequential_loop(stack):
    widths, heights, energies = _long_stacks()[stack]
    worst = max(_distance(_transfer_product(widths, e - heights),
                          _max_abs_product(widths, e - heights)) for e in energies)
    assert worst <= _PAIRING_BOUND[stack]


@pytest.mark.parametrize("n", [100, 2049])
def test_opaque_slabs_are_scaled_before_pairing(n):
    # each slab has cosh(kappa*w) near 1e173 at E = 1: a pair of unscaled
    # slabs overflows to inf and NaN.  The row at 1.7e5 lies above the
    # barriers and is never scaled.
    widths = np.full(n, 1.0)
    heights = np.full(n, 1.6e5)
    energies = np.array([1.0, 7.5, 1.7e5])
    grid = _transfer_products(widths, heights, energies)
    for i, e in enumerate(energies):
        got = _transfer_product(widths, e - heights)
        assert [v.hex() for v in got] == [float(g[i]).hex() for g in grid]
        want = _max_abs_product(widths, e - heights)
        if e < 1e5:
            assert got[4] > 400.0 * (n - 1)
            # entries agree in log form within the rounding bound of a
            # sum of n logs, n * eps * log_scale (measured: 1.5e-11 to
            # 4.4e-11 at 100 slabs, 2.1e-9 to 4.3e-8 at 2,049)
            for g, w in zip(got[:4], want[:4]):
                assert math.isfinite(g) and g != 0.0
                dlog = abs(math.log(abs(g)) + got[4] - math.log(abs(w)) - want[4])
                assert dlog <= n * np.finfo(float).eps * want[4]
        else:
            assert got[4] == 0.0
            assert _distance(got, want) <= 1e-13
    if n == 100:
        assert 40_004.0 < _transfer_product(widths, 1.0 - heights)[4] < 40_006.0


def test_long_opaque_profile_raises_conditioning_error_without_a_warning():
    # every slab of the ramp has kappa*w near 2,000: cosh overflows
    p = Potential((Segment(2048.0, Linear(4e6, 1.0)),))
    assert p.as_slabs()[0].size >= _VECTOR_SLABS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError):
            solve_exact(p, 1.0)


def test_scalar_kernels_return_python_numbers():
    for widths, heights, energies in (_opaque_stack(), _long_opaque_stack(2049)):
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


@pytest.mark.parametrize("outer", ["infinite", "finite"])
def test_prufer_walk_ends_parallel_to_the_slab_product(outer):
    # the walk's end state is the product applied to the start vector, up
    # to a positive factor, on evanescent, oscillating and flat legs alike
    rng = np.random.default_rng(29 if outer == "finite" else 31)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        q2s = rng.uniform(-6.0, 8.0, n)
        q2s[rng.random(n) < 0.1] = 0.0
        widths = rng.uniform(0.05, 2.0, n)
        start = (1.0, float(rng.uniform(0.1, 2.5))) if outer == "finite" else (0.0, 1.0)
        _, psi, dpsi = _prufer_walk(list(zip(q2s.tolist(), widths.tolist())), *start)
        m11, m12, m21, m22, _ = _transfer_product(widths, q2s)
        ref = (m11 * start[0] + m12 * start[1], m21 * start[0] + m22 * start[1])
        assert max(abs(psi), abs(dpsi)) == 1.0
        norm = math.hypot(*ref) * math.hypot(psi, dpsi)
        assert abs(psi * ref[1] - dpsi * ref[0]) <= 1e-12 * norm
        assert psi * ref[0] + dpsi * ref[1] > 0.0
