"""Hot numeric kernels: slab transfer-matrix products, the adaptive
Riccati integrators and the bound-state shooting loop.

Every kernel is a plain Python function over Python numbers and numpy
arrays.  The caller's input picks one of two paths.  An energy grid runs
vectorised over its energies: the slab entries :func:`_cs`, the products
:func:`_transfer_products` (and the Bloch traces :func:`_cell_traces`
built on them) and the RK4 shooting rows :func:`_rk4_rows`.  A single
energy -- one solve, or one evaluation inside a brentq or golden-section
polish -- runs scalar loops (:func:`_cs_entries`,
:func:`_transfer_product`, :func:`_riccati_path`, :func:`_rk4_region`),
because numpy's per-call overhead outweighs the work of one row.  The
scalar loops take ``tolist()`` of their array arguments on entry, so they
compute on Python floats and complex numbers: arithmetic on numpy scalars
costs 3-4x more.  Measured on a 2-core VM (best of several runs):

* ``solve_exact`` on a 12-barrier chain (23 slabs): one energy 23 us
  scalar against 600 us as a one-element grid; 2,000 energies 47 ms as
  single-energy calls against 2.2 ms as one grid;
* ``solve_exact`` on a 2,049-slab profile: one energy 1.4 ms scalar; 50
  energies 69 ms as single-energy calls against 93 ms as one grid, 2,000
  energies 3.8 s against 0.29 s;
* shooting mismatch on a 3-well system (both paths raise the RK4 step
  matrix to its power by repeated squaring): one energy 0.06-0.09 ms
  scalar against 1.1-1.6 ms through :func:`_rk4_rows`; 800 energies
  46-76 ms as single-energy calls against 2.2-3.4 ms as one grid.

Shooting gives the same bits on both paths.  Slab products agree to
rounding: numpy's ``cosh``/``sinh`` differ from libm's in the last bit at
times, and opaque stacks amplify that.

Transfer matrices act on (psi, psi') and for a constant slab with
q^2 = E - U read

    M = [[ C(q^2, w),       S(q^2, w) ],
         [ -q^2 S(q^2, w),  C(q^2, w) ]]

with C = cos(q w) or cosh(kappa w) and S = sin(q w)/q or sinh(kappa w)/kappa
on the propagating / evanescent branch; the q^2 -> 0 limit is the linear
solution C = 1, S = w (evaluated by series to keep full precision).  A
running scale factor is pulled out in log space so opaque stacks cannot
overflow.
"""

from __future__ import annotations

import math
import cmath

import numpy as np

_SCALE_LIMIT = 1e100

# ----------------------------------------------------------------------
# slab matrix entries


def _cs_entries(q2, w):
    """(C, S) entries of the (psi, psi') slab matrix, stable across q2 = 0."""
    t = q2 * w * w
    if t > 1e-6:
        q = math.sqrt(q2)
        return math.cos(q * w), math.sin(q * w) / q
    if t < -1e-6:
        ka = math.sqrt(-q2)
        return math.cosh(ka * w), math.sinh(ka * w) / ka
    # series in t = q2*w^2; relative error < 1e-21 for |t| <= 1e-6
    c = 1.0 - t / 2.0 + t * t / 24.0
    s = w * (1.0 - t / 6.0 + t * t / 120.0)
    return c, s


def _cs(q2, w):
    """Vectorised :func:`_cs_entries`: (C, S) arrays over an array of q2
    values for one slab width w."""
    t = q2 * w * w
    c = np.empty_like(q2)
    s = np.empty_like(q2)
    pos = t > 1e-6
    neg = t < -1e-6
    mid = ~(pos | neg)
    if pos.any():
        q = np.sqrt(q2[pos])
        c[pos] = np.cos(q * w)
        s[pos] = np.sin(q * w) / q
    if neg.any():
        ka = np.sqrt(-q2[neg])
        c[neg] = np.cosh(ka * w)
        s[neg] = np.sinh(ka * w) / ka
    if mid.any():
        tm = t[mid]
        c[mid] = 1.0 - tm / 2.0 + tm * tm / 24.0
        s[mid] = w * (1.0 - tm / 6.0 + tm * tm / 120.0)
    return c, s


def _transfer_product(widths, q2s):
    """Ordered product of slab matrices, left to right.

    Returns (m11, m12, m21, m22, log_scale): the true matrix is
    exp(log_scale) times the returned entries.
    """
    m11 = 1.0; m12 = 0.0; m21 = 0.0; m22 = 1.0
    log_scale = 0.0
    lim = _SCALE_LIMIT
    for w, q2 in zip(widths.tolist(), q2s.tolist()):
        c, s = _cs_entries(q2, w)
        d = -q2 * s
        m11, m12, m21, m22 = (c * m11 + s * m21, c * m12 + s * m22,
                              d * m11 + c * m21, d * m12 + c * m22)
        # the max(abs(...)) test only runs once an entry leaves [-lim, lim]
        # (or is NaN), which is rare
        if not (-lim <= m11 <= lim and -lim <= m12 <= lim
                and -lim <= m21 <= lim and -lim <= m22 <= lim):
            big = max(max(abs(m11), abs(m12)), max(abs(m21), abs(m22)))
            if big > lim:
                m11 /= big; m12 /= big; m21 /= big; m22 /= big
                log_scale += math.log(big)
    return m11, m12, m21, m22, log_scale


def _clip_trace(tr, log_scale):
    """True trace exp(log_scale) * tr of a scaled product, for scalars or
    arrays.  Traces that would overflow are clipped to +-1e300; they sit
    far outside the |trace| <= 2 window either way."""
    over = log_scale + np.log(np.maximum(np.abs(tr), 1e-300)) > 690.0
    return np.where(over, np.where(tr > 0.0, 1e300, -1e300),
                    tr * np.exp(np.where(over, 0.0, log_scale)))


def _transfer_products(widths, heights, energies):
    """:func:`_transfer_product` for every energy of a grid at once: the
    same slab loop, vectorised over energies.  Returns arrays (m11, m12,
    m21, m22, log_scale) over ``energies``."""
    m11 = np.ones(energies.shape[0]); m12 = np.zeros_like(m11)
    m21 = np.zeros_like(m11); m22 = np.ones_like(m11)
    log_scale = np.zeros_like(m11)
    for w, h in zip(widths, heights):
        q2 = energies - h
        c, s = _cs(q2, w)
        d = -q2 * s
        m11, m12, m21, m22 = (c * m11 + s * m21, c * m12 + s * m22,
                              d * m11 + c * m21, d * m12 + c * m22)
        big = np.maximum(np.maximum(np.abs(m11), np.abs(m12)),
                         np.maximum(np.abs(m21), np.abs(m22)))
        over = big > _SCALE_LIMIT
        if over.any():
            big = np.where(over, big, 1.0)
            m11 /= big; m12 /= big; m21 /= big; m22 /= big
            log_scale += np.log(big)
    return m11, m12, m21, m22, log_scale


def _cell_traces(widths, heights, energies):
    """Unit-cell transfer-matrix trace per energy (Bloch scan)."""
    m11, _, _, m22, log_scale = _transfer_products(widths, heights, energies)
    return _clip_trace(m11 + m22, log_scale)


# ----------------------------------------------------------------------
# Riccati integrators
#
# Natural units: k = sqrt(E), kappa1^2 + k^2 = U, kappa1^2 - k^2 = U - 2E.
# Growing-barrier equations for the edge-referenced right-incident
# reflection Rt(x), the translation-invariant log-transmission lnT(x) and
# the left reflection R(x):
#
#   dRt/dx  = -i*(u*Rt^2 + v*Rt + u),       u = U/(2k), v = (U - 2k^2)/k
#   dlnT/dx = -i*u*(1 + Rt)
#   dR/dx   = -i*u*exp(2i k x)*T^2
#
# with Rt(0) = R(0) = 0, lnT(0) = 0.  Real polar form with
# Rt = rho*exp(i*phi_rev), R = rho*exp(i*phi), T = sqrt(1-rho^2)*exp(i*delta):
#
#   drho/dx     = u*(rho^2 - 1)*sin(phi_rev)
#   dphi_rev/dx = (-u*(rho^2 + 1)*cos(phi_rev) - v*rho) / rho
#   dphi/dx     = u*(1 - rho^2)*cos(phi_rev) / rho
#   ddelta/dx   = -u*(1 + rho*cos(phi_rev))
#
# and the angle form rho = cos(alpha), t = sin(alpha), alpha(0) = pi/2.
# The polar/angle forms are singular at rho = 0, so integration starts in
# (and falls back to) the complex form whenever rho is below a switch
# threshold; phases stay consistent through the handoffs via the exact
# relation delta = (phi_rev + phi - 2 k x + pi) / 2.

RICCATI_COMPLEX = 0
RICCATI_REAL = 1
RICCATI_ALPHA = 2

STATUS_OK = 0
STATUS_CAP = 1          # trajectory buffer exhausted
STATUS_UNDERFLOW = 2    # step size underflow (stiff region)
STATUS_DIVERGED = 3     # |Rt| above 1 + tolerance

# Cash-Karp 5(4) embedded pair
_C2 = 1.0 / 5.0; _C3 = 3.0 / 10.0; _C4 = 3.0 / 5.0; _C5 = 1.0; _C6 = 7.0 / 8.0
_A21 = 1.0 / 5.0
_A31 = 3.0 / 40.0; _A32 = 9.0 / 40.0
_A41 = 3.0 / 10.0; _A42 = -9.0 / 10.0; _A43 = 6.0 / 5.0
_A51 = -11.0 / 54.0; _A52 = 5.0 / 2.0; _A53 = -70.0 / 27.0; _A54 = 35.0 / 27.0
_A61 = 1631.0 / 55296.0; _A62 = 175.0 / 512.0; _A63 = 575.0 / 13824.0
_A64 = 44275.0 / 110592.0; _A65 = 253.0 / 4096.0
_B1 = 37.0 / 378.0; _B3 = 250.0 / 621.0; _B4 = 125.0 / 594.0; _B6 = 512.0 / 1771.0
_E1 = _B1 - 2825.0 / 27648.0
_E3 = _B3 - 18575.0 / 48384.0
_E4 = _B4 - 13525.0 / 55296.0
_E5 = -277.0 / 14336.0
_E6 = _B6 - 0.25


def _rhs(mode, x, y0, y1, k, u0, sl, xa):
    """RHS of the complex (mode 0; state Rt, lnT, R, 0), polar (mode 1;
    state rho, phi_rev, phi, delta) or angle (mode 2; alpha in place of
    rho) system.  No form reads slots 2 and 3, so the stage block passes
    slots 0 and 1 only."""
    U = u0 + sl * (x - xa)
    u = U / (2.0 * k)
    v = (U - 2.0 * k * k) / k
    if mode == 0:
        return (-1j * (u * y0 * y0 + v * y0 + u), -1j * u * (1.0 + y0),
                -1j * u * cmath.exp(2j * k * x + 2.0 * y1), 0.0)
    cp = math.cos(y1)
    sp = math.sin(y1)
    if mode == 1:
        rho = y0
        if rho < 1e-12:
            rho = 1e-12
        d0 = u * (y0 * y0 - 1.0) * sp
        d1 = (-u * (rho * rho + 1.0) * cp - v * rho) / rho
        d2 = u * (1.0 - rho * rho) * cp / rho
        d3 = -u * (1.0 + rho * cp)
    else:
        ca = math.cos(y0)
        sa = math.sin(y0)
        rho = ca
        if -1e-12 < rho < 1e-12:
            rho = 1e-12 if rho >= 0.0 else -1e-12
        d0 = u * sa * sp
        d1 = (-u * (ca * ca + 1.0) * cp - v * ca) / rho
        d2 = u * sa * sa * cp / rho
        d3 = -u * (1.0 + ca * cp)
    return d0, d1, d2, d3


def _complex_state(mode, y0, y1, y2, y3):
    """(Rt, lnT, R) of a state of the given form."""
    if mode == 0:
        return y0, y1, y2
    rho = y0 if mode == RICCATI_REAL else math.cos(y0)
    if rho > 1.0:
        rho = 1.0
    one_m = max((1.0 - rho) * (1.0 + rho), 1e-300)
    return (rho * cmath.exp(1j * y1), 0.5 * math.log(one_m) + 1j * y3,
            rho * cmath.exp(1j * y2))


def _riccati_path(x0s, ws, u0s, sls, k, form, rtol, atol, rho_enter, rho_exit, cap):
    """Integrate across all linear pieces; record every accepted step.

    Every form steps through one Cash-Karp block over a four-slot state:
    (Rt, lnT, R, 0) in the complex mode, (rho|alpha, phi_rev, phi, delta)
    in the polar and angle modes.  Returns (status, nrows, rows, rt, lnt,
    r, x_stop), the endpoints taken where integration stopped; row columns
    are (x, rho, phi_rev, phi, delta, ln|T|).
    """
    x0s = x0s.tolist(); ws = ws.tolist(); u0s = u0s.tolist(); sls = sls.tolist()
    rows = np.empty((cap, 6))
    half_pi = 0.5 * math.pi
    two_pi = 2.0 * math.pi
    y0 = y1 = y2 = 0j
    y3 = 0.0
    mode = 0
    phi_rev_u = -half_pi   # unwrapped phase trackers for complex mode
    phi_u = -half_pi
    rows[0] = (x0s[0] if x0s else 0.0, 0.0, -half_pi, -half_pi, 0.0, 0.0)
    nrows = 1
    total = 0.0
    for w in ws:
        total += w
    if total <= 0.0:
        return STATUS_OK, nrows, rows, y0, y1, y2, 0.0
    hmin = 1e-14 * total
    h = total
    if k > 0.0 and 0.25 / k < h:
        h = 0.25 / k
    x = 0.0
    for ip in range(len(ws)):
        xa = x0s[ip]
        xb = xa + ws[ip]
        u0 = u0s[ip]
        sl = sls[ip]
        x = xa
        if h > ws[ip]:
            h = ws[ip]
        while x < xb - 1e-15 * total:
            if h > xb - x:
                h = xb - x
            try:
                a1, b1, c1, d1 = _rhs(mode, x, y0, y1, k, u0, sl, xa)
                a2, b2, c2, d2 = _rhs(mode, x + _C2 * h, y0 + h * _A21 * a1,
                                      y1 + h * _A21 * b1, k, u0, sl, xa)
                a3, b3, c3, d3 = _rhs(mode, x + _C3 * h,
                                      y0 + h * (_A31 * a1 + _A32 * a2),
                                      y1 + h * (_A31 * b1 + _A32 * b2), k, u0, sl, xa)
                a4, b4, c4, d4 = _rhs(mode, x + _C4 * h,
                                      y0 + h * (_A41 * a1 + _A42 * a2 + _A43 * a3),
                                      y1 + h * (_A41 * b1 + _A42 * b2 + _A43 * b3),
                                      k, u0, sl, xa)
                a5, b5, c5, d5 = _rhs(mode, x + _C5 * h,
                                      y0 + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4),
                                      y1 + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4),
                                      k, u0, sl, xa)
                a6, b6, c6, d6 = _rhs(mode, x + _C6 * h,
                                      y0 + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5),
                                      y1 + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5),
                                      k, u0, sl, xa)
                q0 = y0 + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B6 * a6)
                q1 = y1 + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B6 * b6)
                q2 = y2 + h * (_B1 * c1 + _B3 * c3 + _B4 * c4 + _B6 * c6)
                q3 = y3 + h * (_B1 * d1 + _B3 * d3 + _B4 * d4 + _B6 * d6)
                e0 = abs(h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6))
                e1 = abs(h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6))
                e2 = abs(h * (_E1 * c1 + _E3 * c3 + _E4 * c4 + _E5 * c5 + _E6 * c6))
                s0 = atol + rtol * max(abs(y0), abs(q0))
                s1 = atol + rtol * max(abs(y1), abs(q1))
                s2 = atol + rtol * max(abs(y2), abs(q2))
                err = (e0 / s0) ** 2 + (e1 / s1) ** 2 + (e2 / s2) ** 2
                if mode == 0:
                    # slot 3 is idle in the complex form
                    err = math.sqrt(err / 3.0)
                else:
                    e3 = abs(h * (_E1 * d1 + _E3 * d3 + _E4 * d4 + _E5 * d5 + _E6 * d6))
                    s3 = atol + rtol * max(abs(y3), abs(q3))
                    err = math.sqrt((err + (e3 / s3) ** 2) / 4.0)
            except OverflowError:
                # a trial stage or its error norm left the float range:
                # reject the step
                err = math.inf
            if err <= 1.0:
                x += h
                if err > 1e-30:
                    fac = 0.9 * err ** -0.2
                    if fac > 5.0:
                        fac = 5.0
                else:
                    fac = 5.0
                h *= fac
                y0 = q0; y1 = q1; y2 = q2; y3 = q3
                if mode == 0:
                    rho = abs(y0)
                    if rho > 1.0 + 1e-8:
                        return STATUS_DIVERGED, nrows, rows, y0, y1, y2, x
                    if rho > 1e-30:
                        ang = cmath.phase(y0)
                        phi_rev_u = ang + two_pi * round((phi_rev_u - ang) / two_pi)
                    if abs(y2) > 1e-30:
                        ang = cmath.phase(y2)
                        phi_u = ang + two_pi * round((phi_u - ang) / two_pi)
                    if nrows >= cap:
                        return STATUS_CAP, nrows, rows, y0, y1, y2, x
                    rows[nrows] = (x, rho, phi_rev_u, phi_u, y1.imag, y1.real)
                    nrows += 1
                    if form != RICCATI_COMPLEX and rho >= rho_enter:
                        # hand off to the polar/angle form; phi from the
                        # delta identity keeps all four fields consistent
                        delta = y1.imag
                        y2 = 2.0 * delta - phi_rev_u + 2.0 * k * x - math.pi
                        y0 = rho if form == RICCATI_REAL else math.acos(min(rho, 1.0))
                        y1 = phi_rev_u
                        y3 = delta
                        mode = form
                else:
                    rho = y0 if mode == RICCATI_REAL else math.cos(y0)
                    if rho > 1.0 + 1e-8:
                        return (STATUS_DIVERGED, nrows, rows,
                                *_complex_state(mode, y0, y1, y2, y3), x)
                    if rho > 1.0:
                        rho = 1.0
                    if nrows >= cap:
                        return (STATUS_CAP, nrows, rows,
                                *_complex_state(mode, y0, y1, y2, y3), x)
                    one_m = (1.0 - rho) * (1.0 + rho)
                    if one_m < 1e-300:
                        one_m = 1e-300
                    rows[nrows] = (x, rho, y1, y2, y3, 0.5 * math.log(one_m))
                    nrows += 1
                    if rho < rho_exit:
                        # back to the complex form near the coordinate
                        # singularity at rho = 0
                        phi_rev_u = y1
                        phi_u = y2
                        y0, y1, y2 = _complex_state(mode, y0, y1, y2, y3)
                        y3 = 0.0
                        mode = 0
            else:
                fac = 0.9 * err ** -0.2
                if fac < 0.2:
                    fac = 0.2
                h *= fac
                if h < hmin:
                    return (STATUS_UNDERFLOW, nrows, rows,
                            *_complex_state(mode, y0, y1, y2, y3), x)
    return STATUS_OK, nrows, rows, *_complex_state(mode, y0, y1, y2, y3), x


# ----------------------------------------------------------------------
# bound-state shooting
#
# psi'' = -q^2 psi integrated by fixed-step RK4.  For constant q^2 one RK4
# step is a fixed matrix P = [[a, b], [c, a]] (the degree-4 Taylor
# polynomial of the exact propagator), so n steps are P^n, formed by binary
# powering: P is squared once per bit of n, and (psi, psi') is multiplied
# by the square at each set bit.  Powers of P keep equal diagonal entries.
# Each square is divided by its largest |entry|, and (psi, psi') by its max
# norm after each multiplication, so no region overflows however much it
# grows; the factors are positive, so the sign of the matching Wronskian is
# untouched.


def _rk4_step(q2, w, n):
    """Entries (a, b, c) of the RK4 step matrix [[a, b], [c, a]] for n
    steps across width w, for scalars or arrays."""
    h = w / n
    a = -q2
    h2 = h * h
    return (1.0 + a * h2 / 2.0 + a * a * h2 * h2 / 24.0,
            h + a * h2 * h / 6.0,
            a * h + a * a * h2 * h / 6.0)


def _rk4_region(psi, dpsi, q2, w, n):
    """Advance (psi, psi') across one constant-q^2 region with n RK4
    steps; the result is returned up to a positive factor."""
    a, b, c = _rk4_step(q2, w, n)
    while True:
        if n & 1:
            psi, dpsi = a * psi + b * dpsi, c * psi + a * dpsi
            big = max(abs(psi), abs(dpsi))
            psi /= big
            dpsi /= big
        n >>= 1
        if not n:
            return psi, dpsi
        a, b, c = a * a + b * c, 2.0 * a * b, 2.0 * a * c
        big = max(abs(a), abs(b), abs(c))
        a /= big; b /= big; c /= big


def _rk4_rows(psi, dpsi, q2, w, n):
    """:func:`_rk4_region` on arrays over rows, row i taking its own n[i]
    steps: each row reads its own bits of n[i] and sees the same
    arithmetic as in the scalar loop, so the results agree bit for bit.
    A row not multiplied at a bit is divided by 1.0 there, as rescaling
    it would round it differently from the scalar loop."""
    a, b, c = _rk4_step(q2, w, n)
    while True:
        odd = (n & 1) == 1
        p = np.where(odd, a * psi + b * dpsi, psi)
        d = np.where(odd, c * psi + a * dpsi, dpsi)
        big = np.where(odd, np.maximum(np.abs(p), np.abs(d)), 1.0)
        psi = p / big
        dpsi = d / big
        n = n >> 1
        if not n.any():
            return psi, dpsi
        a, b, c = a * a + b * c, 2.0 * a * b, 2.0 * a * c
        big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        a = a / big; b = b / big; c = c / big


def _shoot_mismatch(widths, q2rows, bc_left_psi, bc_left_dpsi,
                    bc_right_psi, bc_right_dpsi, match_region, match_frac,
                    max_phase_step):
    """Scale-free Wronskian mismatch at the match point per row of q2rows.

    q2rows has shape (nE, nregions); boundary (psi, psi') pairs may depend
    on E and are passed as arrays over nE.  The right shoot integrates with
    negative step from the right edge.  A single row (a root polish) runs
    the float loop :func:`_rk4_region`; an energy grid advances all its
    rows at once through :func:`_rk4_rows`.  Both give the same bits.
    """
    ws = widths.tolist()
    m = match_region
    # (region, signed width) legs of the left and the right shoot
    legs = ([(reg, ws[reg]) for reg in range(m)] + [(m, ws[m] * match_frac)],
            [(reg, -ws[reg]) for reg in range(len(ws) - 1, m, -1)]
            + [(m, -(ws[m] * (1.0 - match_frac)))])
    if q2rows.shape[0] == 1:
        cols = q2rows[0].tolist()
        starts = ((float(bc_left_psi[0]), float(bc_left_dpsi[0])),
                  (float(bc_right_psi[0]), float(bc_right_dpsi[0])))

        def advance(psi, dpsi, q2, w):
            n = int(math.sqrt(abs(q2)) * abs(w) / max_phase_step) + 8
            return _rk4_region(psi, dpsi, q2, w, n)
    else:
        cols = q2rows.T
        starts = ((bc_left_psi, bc_left_dpsi), (bc_right_psi, bc_right_dpsi))

        def advance(psi, dpsi, q2, w):
            n = (np.sqrt(np.abs(q2)) * abs(w) / max_phase_step).astype(np.int64) + 8
            return _rk4_rows(psi, dpsi, q2, w, n)
    ends = []
    for (psi, dpsi), path in zip(starts, legs):
        for reg, w in path:
            psi, dpsi = advance(psi, dpsi, cols[reg], w)
        ends.append((psi, dpsi))
    (psi_l, dpsi_l), (psi_r, dpsi_r) = ends
    norm = np.maximum(np.sqrt((psi_l * psi_l + dpsi_l * dpsi_l)
                              * (psi_r * psi_r + dpsi_r * dpsi_r)), 1e-300)
    return np.atleast_1d((psi_l * dpsi_r - psi_r * dpsi_l) / norm)
