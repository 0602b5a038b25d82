"""Bound levels against an independent 50-digit reference: the
interface-matching determinant built and bisected in mpmath."""

import mpmath
import numpy as np
import pytest

from barrier1d.spectra import WellSystem, bound_levels

mp = mpmath.mp


def matching_det(ws, E):
    """Determinant of the continuity system of a finite-outer well system
    at the depth E, at mpmath's working precision.  Unknowns: the left
    decay amplitude, (psi, psi') at the left edge of every region, the
    right decay amplitude."""
    E = mp.mpf(E)
    regions = []
    for i, (u, a) in enumerate(ws.wells):
        if i:
            regions.append((-E, mp.mpf(ws.barriers[i - 1])))
        regions.append((mp.mpf(u) - E, mp.mpf(a)))
    n = len(regions)
    dim = 2 * n + 2
    kappa = mp.sqrt(E)
    m = mp.zeros(dim, dim)
    # psi = A exp(kappa x) left of the first region
    m[0, 0], m[0, 1] = 1, -1
    m[1, 0], m[1, 2] = kappa, -1
    for r, (q2, w) in enumerate(regions):
        if q2 > 0:
            q = mp.sqrt(q2)
            c, s = mp.cos(q * w), mp.sin(q * w) / q
        else:
            ka = mp.sqrt(-q2)
            c, s = mp.cosh(ka * w), mp.sinh(ka * w) / ka
        row, col = 2 + 2 * r, 1 + 2 * r
        m[row, col], m[row, col + 1] = c, s
        m[row + 1, col], m[row + 1, col + 1] = -q2 * s, c
        if r < n - 1:
            m[row, col + 2], m[row + 1, col + 3] = -1, -1
        else:
            # psi = B exp(-kappa (x - edge)) right of the last region
            m[row, dim - 1], m[row + 1, dim - 1] = -1, kappa
    return mp.det(m)


def reference_levels(ws, grid, digits=50):
    """Levels bracketed on ``grid`` depths and bisected to 1e-18 relative."""
    roots = []
    with mpmath.workdps(digits):
        es = [mp.mpf(float(e)) for e in np.linspace(ws.max_depth * 1e-7,
                                                     ws.max_depth * (1.0 - 1e-9), grid)]
        vals = [matching_det(ws, e) for e in es]
        for a, b, fa, fb in zip(es, es[1:], vals, vals[1:]):
            if (fa < 0) == (fb < 0):
                continue
            while b - a > mp.mpf(10) ** -18 * b:
                mid = (a + b) / 2
                fm = matching_det(ws, mid)
                if (fm < 0) == (fa < 0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(float((a + b) / 2))
    return roots


@pytest.mark.parametrize("ws", [
    WellSystem(((4.0, 3.5), (3.0, 2.8)), (0.7,), outer="finite"),
    WellSystem(((5.0, 2.0), (4.0, 2.2), (5.0, 1.6)), (0.5, 0.9), outer="finite"),
], ids=["two_wells", "three_wells"])
def test_bound_levels_match_a_50_digit_determinant(ws):
    got = bound_levels(ws).energies
    ref = reference_levels(ws, 100)
    assert len(got) == len(ref) >= 4
    for g, r in zip(got, ref):
        assert g == pytest.approx(r, rel=1e-12, abs=0.0)
