"""The pure-float Brent root finder of :mod:`barrier1d.spectra` against
scipy's ``brentq``, bit for bit and error for error."""

import math

import numpy as np
import pytest

from barrier1d import spectra
from barrier1d.spectra import LevelCountError, WellSystem, _brentq

# the two call shapes of spectra: the level polish of _levels and the
# band-edge polish of band_structure (an energy range up to 6)
LEVEL = {"rtol": 1e-12, "xtol": 1e-300}
BAND_EDGE = {"xtol": 1e-14 * 6.0}


def _outcome(root_finder, f, a, b, **kw):
    try:
        return float(root_finder(f, a, b, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def _trig(rng, scale):
    c, p = rng.normal(size=4), rng.uniform(0.0, 2.0 * math.pi, 4)
    return lambda x: scale * sum(ci * math.cos((i + 1) * x + pi)
                                 for i, (ci, pi) in enumerate(zip(c, p)))


def test_port_matches_scipy_bit_for_bit():
    from scipy.optimize import brentq
    rng = np.random.default_rng(20261019)
    n = 0
    # scale 1e-300 underflows the extrapolation step, which then bisects
    for scale in (1.0, 1e-300, 1e200):
        for _ in range(8):
            f = _trig(rng, scale)
            es = np.linspace(0.1, 6.0, 40)
            sign = np.sign([f(e) for e in es])
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
                for kw in (LEVEL, BAND_EDGE):
                    got = _outcome(_brentq, f, es[i], es[i + 1], **kw)
                    assert got == _outcome(brentq, f, es[i], es[i + 1], **kw)
                    assert got.startswith("0x")
                    n += 1
    assert n > 100


def test_roots_at_the_bracket_ends_match_scipy():
    from scipy.optimize import brentq
    es = np.linspace(0.5, 2.0, 7)
    f = lambda x: x - float(es[3])
    for kw in (LEVEL, BAND_EDGE):
        # a grid point that is itself a root brackets itself
        for a, b in ((es[3], es[3]), (es[3], es[4]), (es[2], es[3])):
            got = _brentq(f, a, b, **kw)
            assert got.hex() == float(brentq(f, a, b, **kw)).hex() == float(es[3]).hex()


@pytest.mark.parametrize("f, a, b, kw, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, BAND_EDGE, "different signs"),
    # f(a) f(b) underflows to zero: the signs must still be compared
    (lambda x: 1e-200, 0.0, 1.0, BAND_EDGE, "different signs"),
    (lambda x: -1e-200, 0.0, 1.0, LEVEL, "different signs"),
    (lambda x: math.nan, 0.0, 1.0, BAND_EDGE, "NaN"),
    (lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0, LEVEL, "NaN"),
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}, "xtol"),
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 1e-300, "rtol": 1e-16}, "rtol"),
])
def test_value_errors_match_scipy(f, a, b, kw, error):
    from scipy.optimize import brentq
    with pytest.raises(ValueError, match=error):
        _brentq(f, a, b, **kw)
    with pytest.raises(ValueError, match=error):
        brentq(f, a, b, **kw)


def test_iteration_limit_raises_runtime_error_like_scipy():
    from scipy.optimize import brentq
    # a step function never lets an interpolation step in, and closing a
    # bracket 1e30 wide to 1e-12 relative takes about 140 bisections
    f = lambda x: 1.0 if x > 0.5 else -1.0
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        _brentq(f, -1.0, 1e30, **LEVEL)
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        brentq(f, -1.0, 1e30, **LEVEL)


def _polished_with(transform):
    """Levels of one well whose polish evaluations pass through
    ``transform``, while the grid keeps the true determinant signs."""
    def values(ws, es):
        dets = spectra._matching_dets(ws, es)
        return dets if len(es) > 1 else transform(dets)
    return spectra._levels(WellSystem(((6.0, 4.0),), ()), values, 800)


def test_polish_bracket_without_sign_change_raises_level_count_error():
    assert len(_polished_with(lambda d: d)) == 3
    with pytest.raises(LevelCountError, match="different signs"):
        _polished_with(np.abs)
    with pytest.raises(LevelCountError, match="NaN"):
        _polished_with(lambda d: d * math.nan)


def test_a_grid_root_is_its_own_level_without_a_polish():
    # the grid value is exactly 0.0 at one depth where the one-depth
    # function is not: the zero-width bracket must not reach _brentq
    ws = WellSystem(((6.0, 4.0),), ())
    umax = ws.max_depth
    es = np.linspace(umax * 1e-7, umax * (1.0 - 1e-9), 800)
    sign = np.sign(spectra._matching_dets(ws, es))
    i = int(np.flatnonzero(sign[:-1] * sign[1:] < 0.0)[0])
    assert spectra._matching_dets(ws, es[i:i + 1])[0] != 0.0

    def values(ws, depths):
        dets = spectra._matching_dets(ws, depths)
        if len(depths) > 1:
            dets[i] = 0.0
        return dets
    levels = spectra._levels(ws, values, 800).energies
    polished = _polished_with(lambda d: d).energies
    assert len(levels) == len(polished) == 3
    assert es[i] in levels
    assert [e for e in levels if e != es[i]] == [e for e in polished if abs(e - es[i]) > 0.1]
