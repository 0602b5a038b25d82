import cmath
import math

import numpy as np
import pytest

from barrier1d import (Barrier1dError, IntegrationError, LevelCountError,
                       LossRangeError, NoResonanceError, ResonantDenominatorError)
from barrier1d.oracle import (ConditioningError, ScatterData, _solve_grid, free_data,
                              solve_exact)
from barrier1d.potential import Constant, Linear, Potential, Segment

from conftest import (random_slab_potential, random_smoothish_potential,
                      rect_barrier_D, step_D)


def test_free_propagation_phase():
    p = Potential((Segment(2.4, Constant(0.0)),))
    E = 0.7
    s = solve_exact(p, E)
    k = math.sqrt(E)
    assert s.T == pytest.approx(cmath.exp(1j * k * 2.4), abs=1e-14)
    assert abs(s.R) < 1e-14
    assert s.D == pytest.approx(1.0, abs=1e-14)


def test_single_rect_barrier_matches_closed_form(units):
    U = float(units.energy_from_ev(1.0))
    a = float(units.length_from_angstrom(2.5))
    E = float(units.energy_from_ev(0.3))
    s = solve_exact(Potential((Segment(a, Constant(U)),)), E)
    assert s.D == pytest.approx(rect_barrier_D(U, a, E), rel=1e-13)


def test_step_transmission_flux_form():
    E, v_r = 0.5, 0.2
    s = solve_exact(Potential((), 0.0, v_r), E)
    assert s.D == pytest.approx(step_D(E, v_r), rel=1e-13)
    # amplitude reciprocity holds in flux-normalised form
    t_flux = math.sqrt(s.k_right / s.k_left) * s.T
    t_flux_rev = math.sqrt(s.k_left / s.k_right) * s.T_rev
    assert t_flux == pytest.approx(t_flux_rev, abs=1e-14)


def test_transmittance_trivial_values():
    one = ScatterData(T=1.0, R=0.0, T_rev=1.0, R_rev=0.0, k_left=1.0, k_right=1.0)
    zero = ScatterData(T=0.0, R=1.0, T_rev=0.0, R_rev=1.0, k_left=1.0, k_right=1.0)
    assert one.D == 1.0
    assert zero.D == 0.0


def test_flux_conservation_randomized():
    rng = np.random.default_rng(11)
    for _ in range(80):
        p = random_slab_potential(rng)
        E = float(rng.uniform(0.2, 2.0))
        s = solve_exact(p, E)
        assert abs(s.flux_defect()) < 1e-10


def test_reciprocity_and_reflection_moduli_randomized():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_slab_potential(rng)
        E = float(rng.uniform(0.2, 2.0))
        s = solve_exact(p, E)
        assert abs(s.T - s.T_rev) < 1e-10            # matched media
        assert abs(abs(s.R) - abs(s.R_rev)) < 1e-10  # always


def test_reflection_moduli_equal_with_mismatched_media():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_slab_potential(rng)
        p = Potential(p.segments, 0.0, float(rng.uniform(-0.4, 0.15)))
        E = float(rng.uniform(0.3, 2.0))
        s = solve_exact(p, E)
        assert abs(abs(s.R) - abs(s.R_rev)) < 1e-10
        assert abs(1.0 - s.D - abs(s.R) ** 2) < 1e-10


def test_slab_refinement_second_order_on_ramp():
    p = Potential((Segment(2.0, Linear(0.2, 0.5)),))
    E = 0.9
    ref = solve_exact(p, E, n_slab=2 ** 15).T
    errs = [abs(solve_exact(p, E, n_slab=n).T - ref) for n in (64, 128, 256)]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.8


def test_turning_point_slab_is_handled():
    # one interior slab sits exactly at E = U: the linear-solution branch
    p = Potential((Segment(0.8, Constant(0.3)),
                   Segment(0.6, Constant(0.5)),
                   Segment(0.8, Constant(0.3)),))
    s = solve_exact(p, 0.5)
    assert np.isfinite(s.T) and np.isfinite(s.R)
    assert abs(s.flux_defect()) < 1e-10


def test_opaque_barrier_stays_finite():
    # kappa * width ~ 400: log-scaled accumulation, no overflow
    p = Potential((Segment(400.0, Constant(2.0)),))
    s = solve_exact(p, 1.0)
    assert np.isfinite(s.R) and abs(abs(s.R) - 1.0) < 1e-10
    assert abs(s.T) < 1e-100


def test_free_data_identity():
    s = free_data(0.9)
    assert s.T == 1.0 and s.R == 0.0 and s.extent == 0.0


def test_rejects_closed_channels():
    p = Potential((Segment(1.0, Constant(0.5)),), v_left=0.0, v_right=1.0)
    with pytest.raises(ValueError):
        solve_exact(p, 0.8)


@pytest.mark.parametrize("make", [random_slab_potential, random_smoothish_potential])
def test_energy_grid_solve_matches_single_energies(make):
    rng = np.random.default_rng(13)
    for _ in range(8):
        p = make(rng)
        p = Potential(p.segments, v_left=float(rng.uniform(-0.3, 0.1)),
                      v_right=float(rng.uniform(-0.3, 0.1)))
        es = np.sort(rng.uniform(0.15, 2.5, 12))
        grid = solve_exact(p, es)
        single = [solve_exact(p, float(e)) for e in es]
        assert grid.extent == p.extent and grid.loss == 0.0
        for name in ("T", "R", "T_rev", "R_rev", "k_left", "k_right"):
            want = np.array([getattr(s, name) for s in single])
            np.testing.assert_allclose(getattr(grid, name), want, rtol=1e-12, atol=0.0,
                                       err_msg=name)


@pytest.mark.parametrize("slabs", ["short", "long"])
def test_energy_lists_and_arrays_of_any_shape_solve_as_their_raveled_grid(slabs):
    # 2 slabs, or 2,049 (a paired product)
    p = (Potential((Segment(1.0, Constant(1.5)), Segment(0.4, Constant(0.2))))
         if slabs == "short" else
         Potential((Segment(6.0, Linear(-0.4, 0.5)), Segment(0.7, Constant(1.1)))))
    es = np.array([0.6, 0.7, 0.8, 0.9, 1.0, 1.1])
    flat = solve_exact(p, es)
    for E in ([0.6, 0.7], (0.6, 0.7, 0.8), es.reshape(2, 3), es.reshape(3, 2),
              es.reshape(6, 1), es[:4].reshape(2, 2)):
        got = solve_exact(p, E)
        n = np.size(E)
        for name in ("T", "R", "T_rev", "R_rev", "k_left", "k_right"):
            field = getattr(got, name)
            assert np.shape(field) == np.shape(E), name
            assert np.array_equal(np.ravel(field), getattr(flat, name)[:n]), name


def test_energy_grid_solve_rejects_a_closed_channel_anywhere():
    p = Potential((Segment(1.0, Constant(0.5)),), v_left=0.0, v_right=1.0)
    with pytest.raises(ValueError, match="0.8"):
        solve_exact(p, np.array([1.5, 0.8, 2.0]))


def test_opaque_slab_raises_conditioning_error_on_both_paths():
    # kappa*w = 50*sqrt(999) ~ 1580: cosh overflows a float on either path
    p = Potential((Segment(50.0, Constant(1000.0)),))
    with pytest.raises(ConditioningError):
        solve_exact(p, 1.0)
    with pytest.raises(ConditioningError):
        solve_exact(p, np.array([1.0, 2.0]))


def test_grid_rows_fail_alone_and_a_closed_channel_is_reported_first():
    # rows below the right floor (0.9) and rows whose opaque slab loses
    # conditioning, beside rows that solve: no warning, one mask each
    p = Potential((Segment(50.0, Constant(1000.0)),), v_right=0.9)
    es = np.array([0.5, 0.9, 1.0, 1500.0, 2000.0])
    s, below, lost = _solve_grid(p, es, *p.as_slabs(), p.extent)
    assert below.tolist() == [True, True, False, False, False]
    assert lost.tolist() == [False, False, True, False, False]
    good = solve_exact(p, es[3:])
    assert np.array_equal(s.T[3:], good.T) and np.array_equal(s.R[3:], good.R)
    with pytest.raises(ValueError, match="E = 0.5 "):
        solve_exact(p, es)
    with pytest.raises(ConditioningError):
        solve_exact(p, es[2:])


@pytest.mark.parametrize("error, base", [
    (ConditioningError, RuntimeError), (IntegrationError, RuntimeError),
    (LevelCountError, RuntimeError), (NoResonanceError, ValueError),
    (LossRangeError, ValueError), (ResonantDenominatorError, ZeroDivisionError),
])
def test_typed_errors_share_one_base_and_keep_their_builtin_one(error, base):
    exc = error("message")
    assert isinstance(exc, Barrier1dError) and isinstance(exc, base)
