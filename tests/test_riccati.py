import cmath
import math

import numpy as np
import pytest

from barrier1d.compose import LossModel
from barrier1d.oracle import solve_exact
from barrier1d.potential import (Constant, Linear, Potential, Segment,
                                 build_rect_pair)
from barrier1d.resonance import rect_pair_resonant_L
from barrier1d.riccati import (integrate_alpha_form, integrate_complex,
                               integrate_real, slab_data,
                               small_slab_coefficients)

from conftest import random_slab_potential, random_smoothish_potential, rect_barrier_D


def endpoint(p, E, form):
    if form == "complex":
        return integrate_complex(p, E)
    traj = integrate_real(p, E) if form == "real" else integrate_alpha_form(p, E)
    return traj.scatter_data()


def test_free_potential_is_transparent():
    p = Potential((Segment(2.0, Constant(0.0)),))
    s = integrate_complex(p, 0.7)
    assert abs(s.R) < 1e-12 and abs(s.R_rev) < 1e-12
    assert s.D == pytest.approx(1.0, abs=1e-12)
    k = math.sqrt(0.7)
    assert s.T == pytest.approx(cmath.exp(1j * k * 2.0), abs=1e-12)


def test_rect_barrier_matches_closed_form(units):
    U = float(units.energy_from_ev(1.0))
    a = float(units.length_from_angstrom(2.5))
    E = float(units.energy_from_ev(0.3))
    s = integrate_complex(Potential((Segment(a, Constant(U)),)), E)
    assert abs(s.T) ** 2 == pytest.approx(rect_barrier_D(U, a, E), abs=1e-6)


def test_linear_ramp_matches_oracle():
    p = Potential((Segment(2.0, Linear(0.1, 0.6)),))
    E = 0.9
    s = integrate_complex(p, E)
    o = solve_exact(p, E, n_slab=2 ** 13)
    assert abs(s.T - o.T) < 1e-6 and abs(s.R - o.R) < 1e-6


def test_appended_free_gap_rotates_reflection_phase():
    """A free gap leaves rho untouched and advances the right-incident
    reflection phase by exactly +2kL (the governing equations fix the sign:
    the edge reference point moves away from the barrier)."""
    E, L = 0.3, 0.9
    pa = Potential((Segment(1.4, Constant(0.9)),))
    pb = Potential((Segment(1.4, Constant(0.9)), Segment(L, Constant(0.0))))
    ta = integrate_real(pa, E)
    tb = integrate_real(pb, E)
    assert tb.rho[-1] == pytest.approx(ta.rho[-1], abs=1e-12)
    k = math.sqrt(E)
    assert tb.phi_rev[-1] - ta.phi_rev[-1] == pytest.approx(2 * k * L, abs=1e-10)
    # oracle agrees on the rotation
    oa, ob = solve_exact(pa, E), solve_exact(pb, E)
    assert ob.R_rev == pytest.approx(oa.R_rev * cmath.exp(2j * k * L), abs=1e-12)


def test_rho_flat_across_interior_zero_potential():
    p = Potential((Segment(1.0, Constant(0.9)),
                   Segment(0.8, Constant(0.0)),
                   Segment(1.2, Constant(1.3))))
    tr = integrate_real(p, 0.5)
    inside = (tr.x >= 1.0 - 1e-12) & (tr.x <= 1.8 + 1e-12)
    assert inside.sum() >= 2          # free stretches take few, large steps
    assert np.ptp(tr.rho[inside]) < 1e-12
    # finite-difference slope of rho vanishes across the zero-height region
    fd = np.diff(tr.rho) / np.diff(tr.x)
    mid = 0.5 * (tr.x[1:] + tr.x[:-1])
    gap = (mid > 1.0) & (mid < 1.8)
    assert np.abs(fd[gap]).max() < 1e-10


def test_rho_extrema_sit_at_reflection_phase_nodes():
    # two-hump barrier, strictly positive: interior extrema of rho require
    # sin(phi_rev) to cross zero
    p = Potential((Segment(1.2, Constant(1.1)),
                   Segment(1.8, Constant(0.45)),
                   Segment(1.0, Constant(1.3))))
    tr = integrate_real(p, 0.8)
    found = 0
    for i in range(2, len(tr) - 2):
        if (tr.rho[i] - tr.rho[i - 1]) * (tr.rho[i + 1] - tr.rho[i]) < 0 and tr.rho[i] > 1e-4:
            found += 1
            window = np.sin(tr.phi_rev[i - 2:i + 3])
            assert window.min() < 0.05 and window.max() > -0.05
    assert found >= 1


def test_alpha_form_boundary_and_identity():
    p = Potential((Segment(1.5, Constant(1.0)),))
    tr = integrate_alpha_form(p, 0.6)
    assert tr.state(0).alpha == pytest.approx(math.pi / 2.0)
    s = tr.scatter_data()
    assert abs(s.T) ** 2 + abs(s.R) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_three_forms_agree_randomized():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = random_slab_potential(rng, h_lo=-0.5, h_hi=1.3)
        E = float(rng.uniform(0.25, 1.8))
        sc = endpoint(p, E, "complex")
        sr = endpoint(p, E, "real")
        sa = endpoint(p, E, "alpha")
        for s in (sr, sa):
            assert abs(s.T - sc.T) < 1e-8
            assert abs(s.R - sc.R) < 1e-8
            assert abs(s.R_rev - sc.R_rev) < 1e-8
            if abs(sc.R) > 0.1:   # angle comparison needs a conditioned modulus
                d = abs(cmath.phase(s.R) - cmath.phase(sc.R)) % (2 * math.pi)
                assert min(d, 2 * math.pi - d) < 1e-8


def test_oracle_agreement_piecewise_and_smooth():
    rng = np.random.default_rng(32)
    for _ in range(15):
        p = random_slab_potential(rng)
        E = float(rng.uniform(0.3, 1.8))
        s = integrate_complex(p, E)
        o = solve_exact(p, E)
        assert abs(s.T - o.T) < 1e-6 and abs(s.R - o.R) < 1e-6
    for _ in range(10):
        p = random_smoothish_potential(rng)
        E = float(rng.uniform(0.3, 1.8))
        s = integrate_complex(p, E)
        o = solve_exact(p, E, n_slab=2 ** 13)
        assert abs(s.T - o.T) < 1e-5 and abs(s.R - o.R) < 1e-5


def test_transmission_is_direction_independent_reflection_is_not():
    p = Potential((Segment(0.9, Constant(1.2)),
                   Segment(0.7, Constant(0.3)),
                   Segment(1.4, Constant(0.8))))
    E = 0.5
    s_fwd = integrate_complex(p, E)
    s_bwd = integrate_complex(p.reversed(), E)
    assert abs(s_fwd.T - s_bwd.T) < 1e-8
    dphi = abs(cmath.phase(s_fwd.R) - cmath.phase(s_fwd.R_rev))
    assert min(dphi, 2 * math.pi - dphi) > 1e-3


def test_delta_monotone_for_nonnegative_potential():
    rng = np.random.default_rng(33)
    for _ in range(10):
        p = random_slab_potential(rng, h_lo=0.0, h_hi=1.5)
        E = float(rng.uniform(0.3, 1.6))
        tr = integrate_real(p, E)   # raises internally if delta increases
        assert np.all(np.diff(tr.delta) <= 1e-9)


def test_delta_identity_along_trajectory():
    p = Potential((Segment(1.0, Constant(0.9)),
                   Segment(0.9, Constant(0.0)),
                   Segment(1.3, Constant(1.4))))
    tr = integrate_real(p, 0.65)
    mask = tr.rho > 1e-6
    ident = tr.delta - 0.5 * (tr.phi_rev + tr.phi - 2.0 * tr.k * tr.x + math.pi)
    assert np.abs(ident[mask]).max() < 1e-9


def test_phi_rate_sign_follows_its_equation():
    p = Potential((Segment(1.0, Constant(0.9)),
                   Segment(0.9, Constant(0.0)),
                   Segment(1.3, Constant(1.4))))
    tr = integrate_real(p, 0.65)
    fd = np.diff(tr.phi) / np.diff(tr.x)
    x_mid = 0.5 * (tr.x[1:] + tr.x[:-1])
    u_mid = p.sample(x_mid) / (2.0 * tr.k)
    rho_m = 0.5 * (tr.rho[1:] + tr.rho[:-1])
    pr_m = 0.5 * (tr.phi_rev[1:] + tr.phi_rev[:-1])
    rhs = u_mid * (1.0 - rho_m ** 2) * np.cos(pr_m) / np.maximum(rho_m, 1e-12)
    sig = np.abs(rhs) > 1e-3
    assert np.all(np.sign(fd[sig]) == np.sign(rhs[sig]))


def test_real_form_survives_resonant_zero_crossing():
    # at a pair resonance rho returns to ~0 at the far edge: coordinate
    # singularity of the polar form, handled by the complex fallback
    E = 0.3
    L = rect_pair_resonant_L(0.9, 1.4, E, 1)
    p = build_rect_pair(0.9, 1.4, L)
    tr = integrate_real(p, E)
    assert tr.rho[-1] < 1e-8
    s = tr.scatter_data()
    o = solve_exact(p, E)
    assert abs(s.T - o.T) < 1e-8


def test_overflowing_trial_stage_is_rejected_not_raised():
    # on this opaque pair a trial stage of the complex form overflows
    # exp(2ikx + 2 lnT); the step is rejected and retried shorter
    p = build_rect_pair(0.9 / 0.0380998, 0.8, 1.5)
    s = integrate_complex(p, 0.3, rtol=1e-6)
    assert s.D == pytest.approx(solve_exact(p, 0.3).D, rel=1e-5)


def test_mismatched_exit_medium():
    p = Potential((Segment(1.2, Constant(1.0)),), v_left=0.0, v_right=0.25)
    E = 0.8
    s = integrate_complex(p, E)
    o = solve_exact(p, E)
    assert abs(s.T - o.T) < 1e-6 and abs(s.R - o.R) < 1e-6
    assert s.k_right == pytest.approx(math.sqrt(E - 0.25))
    assert abs(s.flux_defect()) < 1e-8


def test_scattering_regime_validation():
    p = Potential((Segment(1.0, Constant(0.5)),))
    with pytest.raises(ValueError):
        integrate_complex(p, -0.1)


# ----------------------------------------------------------------------
# thin slabs

def test_small_slab_empty():
    r2, t2 = small_slab_coefficients(0.0, 0.005, 0.8)
    assert r2 == 0.0 and t2 == 1.0


def test_small_slab_depends_on_height_not_energy_sign():
    # same U on both sides of the turning point gives the same coefficients
    r_below, _ = small_slab_coefficients(1.0, 0.004, 0.9)
    r_above, _ = small_slab_coefficients(1.0, 0.004, 1.1)
    assert r_below * math.sqrt(0.9) == pytest.approx(r_above * math.sqrt(1.1), rel=1e-12)


def test_small_slab_second_order_accuracy():
    U, E = 1.3, 0.7
    errs = []
    for dx in (0.008, 0.004, 0.002):
        r2, _ = small_slab_coefficients(U, dx, E)
        exact = solve_exact(Potential((Segment(dx, Constant(U)),)), E).R
        errs.append(abs(r2 - exact))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 1.8


def test_small_slab_rejects_thick():
    with pytest.raises(ValueError):
        small_slab_coefficients(4.0, 0.01, 0.5)


def test_lossy_small_slab_attenuates():
    _, t0 = small_slab_coefficients(1.0, 0.005, 0.8)
    _, t1 = small_slab_coefficients(1.0, 0.005, 0.8, LossModel(0.0, 0.2))
    assert abs(t1) < abs(t0)


def test_slab_data_round_trip_against_oracle():
    E, U, dx = 0.8, 1.1, 0.003
    s = slab_data(U, dx, E)
    o = solve_exact(Potential((Segment(dx, Constant(U)),)), E)
    # first-order coefficients carry O(dx^2) truncation error
    assert abs(s.T - o.T) < dx * dx
    assert abs(s.R - o.R) < dx * dx


def test_trajectory_csv_rows_shape():
    p = Potential((Segment(1.0, Constant(0.8)),))
    tr = integrate_real(p, 0.5)
    rows = tr.to_csv_rows()
    assert rows.shape[1] == 7
    t_mag = np.hypot(rows[:, 5], rows[:, 6])
    np.testing.assert_allclose(t_mag ** 2 + rows[:, 1] ** 2, 1.0, atol=1e-9)
