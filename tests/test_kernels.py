"""The vectorised slab kernels must agree with the scalar single-energy path."""

import numpy as np
import pytest

from barrier1d._kernels import (_SCALE_LIMIT, _cell_traces, _clip_trace, _cs,
                                _cs_entries, _transfer_product)


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


def test_cell_traces_match_scalar_product_with_rescale_and_clip():
    # a 40-slab stack of tall barriers and shallow wells: opaque enough at
    # low energies to trip both the 1e100 rescale and the +-1e300 clip,
    # while energies above the barriers never rescale
    rng = np.random.default_rng(3)
    widths = rng.uniform(1.0, 3.0, 40)
    heights = np.where(np.arange(40) % 2 == 0, rng.uniform(300.0, 600.0, 40),
                       rng.uniform(-2.0, 0.0, 40))
    energies = np.linspace(0.05, 700.0, 160)
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
