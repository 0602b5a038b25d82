"""First-order reflection/transmission equations for arbitrary barriers.

Instead of matching wave functions, the scattering coefficients of the
barrier grown from the left edge up to x are evolved directly (equations
and conventions in :mod:`barrier1d._kernels`).  The right-incident
reflection obeys a self-contained Riccati equation; log-transmission and
the left reflection follow from it in the same pass, so one triangular
system of three complex ODEs yields the full scattering data.  Two real
reformulations of the same flow -- the polar variables
(rho, phi_rev, phi, delta) and the angle form with t = sin(alpha),
rho = cos(alpha) -- are integrated as independent cross-checks; both are
singular at rho = 0 and hand over to the complex form below a threshold.

Everything here is for the scattering regime E above both media floors;
bound states live in :mod:`barrier1d.spectra`.

Useful facts that the integrators expose (and the tests pin down):

* a free gap leaves rho untouched and advances phi_rev by exactly 2kL;
* d(delta)/dx = -u (1 + rho cos phi_rev) <= 0 wherever U >= 0;
* interior extrema of rho sit where U(x) = 0 or sin(phi_rev) = 0;
* the transmission amplitude is direction-independent, while the two
  reflection phases differ for asymmetric barriers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .compose import GapJoin, LossModel, compose_pair
from .oracle import Barrier1dError, ScatterData, _below_floors, solve_exact
from .potential import Potential

__all__ = [
    "IntegrationError",
    "RiccatiState",
    "Trajectory",
    "integrate_complex",
    "integrate_real",
    "integrate_alpha_form",
    "small_slab_coefficients",
    "slab_data",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
RHO_SWITCH = 1e-6       # fall back to the complex form below this rho
RHO_ENTER = 2e-6        # enter the polar/angle form above this rho
TRAJECTORY_CAP = 400_000


class IntegrationError(Barrier1dError, RuntimeError):
    """Adaptive integration failed (stiff underflow, divergence, overflow)."""


@dataclass(frozen=True)
class RiccatiState:
    """Snapshot of the growing-barrier variables at one position."""

    x: float
    r_rev: complex        # right-incident reflection of the barrier [0, x]
    log_t: complex        # ln T, transmission referenced relative to free space
    rho: float            # |r_rev| = |r|
    phi_rev: float        # unwrapped phase of r_rev
    phi: float            # unwrapped phase of the left reflection
    delta: float          # phase of T
    alpha: float          # angle with t = sin(alpha), rho = cos(alpha)


class Trajectory:
    """Dense record of accepted integrator steps.

    Columns: x, rho, phi_rev, phi, delta, log|T|.  ``scatter_data()``
    converts the endpoint to extent-referenced scattering coefficients
    (attaching the exit step when the outgoing medium differs).
    """

    def __init__(self, rows: np.ndarray, k: float, potential: Potential, E: float):
        self.x = rows[:, 0].copy()
        self.rho = rows[:, 1].copy()
        self.phi_rev = rows[:, 2].copy()
        self.phi = rows[:, 3].copy()
        self.delta = rows[:, 4].copy()
        self.log_t_mag = rows[:, 5].copy()
        self.k = k
        self.potential = potential
        self.energy = E

    def __len__(self) -> int:
        return self.x.size

    def state(self, i: int) -> RiccatiState:
        rho = float(self.rho[i])
        return RiccatiState(
            x=float(self.x[i]),
            r_rev=rho * cmath.exp(1j * self.phi_rev[i]),
            log_t=complex(self.log_t_mag[i], self.delta[i]),
            rho=rho,
            phi_rev=float(self.phi_rev[i]),
            phi=float(self.phi[i]),
            delta=float(self.delta[i]),
            alpha=math.acos(min(rho, 1.0)),
        )

    def endpoint(self) -> RiccatiState:
        return self.state(len(self) - 1)

    def scatter_data(self) -> ScatterData:
        end = self.endpoint()
        return _finalize(self.potential, self.energy, self.k,
                         end.r_rev, end.log_t, end.rho * cmath.exp(1j * end.phi))

    def to_csv_rows(self):
        """Rows (x, rho, phi_rev, phi, delta, ReT, ImT) for the CLI dump."""
        t = np.exp(self.log_t_mag + 1j * self.delta)
        return np.column_stack([self.x, self.rho, self.phi_rev, self.phi,
                                self.delta, t.real, t.imag])


def _pieces(p: Potential, E: float):
    if not (E > p.v_left and E > p.v_right):
        raise _below_floors(p, E)
    x0, w, u0, sl = p.as_linear_pieces()
    # measure the barrier against the incoming medium
    return x0, w, u0 - p.v_left, sl, math.sqrt(E - p.v_left)


def _run(p: Potential, E: float, form: int, rtol: float, atol: float) -> tuple:
    x0, w, u0, sl, k = _pieces(p, E)
    status, n, rows, rt, lnt, r, x_stop = K._riccati_path(
        x0, w, u0, sl, k, form, rtol, atol, RHO_ENTER, RHO_SWITCH, TRAJECTORY_CAP)
    if status == K.STATUS_UNDERFLOW:
        raise IntegrationError(f"step size underflow near x = {x_stop:.6g} "
                               "(stiff region); raise rtol/atol")
    if status == K.STATUS_DIVERGED:
        raise IntegrationError(f"|R_rev| exceeded 1 + 1e-8 near x = {x_stop:.6g}; "
                               "integration diverged")
    if status == K.STATUS_CAP:
        raise IntegrationError("trajectory buffer exhausted; loosen tolerances")
    return rows[:n], rt, lnt, r, k


def _finalize(p: Potential, E: float, k: float, rt: complex, lnt: complex,
              r: complex) -> ScatterData:
    t_ext = cmath.exp(lnt + 1j * k * p.extent)
    base = ScatterData(T=t_ext, R=r, T_rev=t_ext, R_rev=rt,
                       k_left=k, k_right=k, extent=p.extent)
    if p.v_right != p.v_left:
        step = solve_exact(Potential((), p.v_left, p.v_right), E)
        base = compose_pair(base, GapJoin(0.0, k), step)
    return base


def integrate_complex(p: Potential, E: float, rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL, keep_trajectory: bool = False,
                      cross_check_tol: float = 1e-6):
    """Scattering data from the complex-variable integration.

    The left reflection is obtained twice -- alongside the forward pass
    and from a second pass over the axis-reversed potential (where it
    appears as the right-incident reflection) -- and the two are required
    to agree within ``cross_check_tol``.  Returns the ScatterData, or
    ``(ScatterData, Trajectory)`` with ``keep_trajectory``.
    """
    rows, rt, lnt, r, k = _run(p, E, K.RICCATI_COMPLEX, rtol, atol)
    # reversal path: shift both floors equally so the mirrored barrier sees
    # the same incoming medium
    pm = p.reversed()
    x0, w, u0, sl = pm.as_linear_pieces()
    status, _, _, rt_m, _, _, x_stop = K._riccati_path(
        x0, w, u0 - p.v_left, sl, k, K.RICCATI_COMPLEX, rtol, atol,
        RHO_ENTER, RHO_SWITCH, TRAJECTORY_CAP)
    if status != K.STATUS_OK:
        raise IntegrationError(f"axis-reversed pass failed near x = {x_stop:.6g}")
    if abs(rt_m - r) > cross_check_tol:
        raise IntegrationError(
            f"left-reflection cross-check failed: direct {r:.12g} vs "
            f"axis-reversed {rt_m:.12g} (|diff| = {abs(rt_m - r):.3e})")
    sd = _finalize(p, E, k, rt, lnt, r)
    if keep_trajectory:
        return sd, Trajectory(rows, k, p, E)
    return sd


def integrate_real(p: Potential, E: float, rtol: float = DEFAULT_RTOL,
                   atol: float = DEFAULT_ATOL) -> Trajectory:
    """Trajectory of the polar variables (rho, phi_rev, phi, delta).

    For a nowhere-negative potential the transmission phase must wind
    clockwise; d(delta) <= 0 is enforced pointwise as a sanity check.
    """
    rows, rt, lnt, r, k = _run(p, E, K.RICCATI_REAL, rtol, atol)
    traj = Trajectory(rows, k, p, E)
    if p.min_height() >= 0.0 and len(traj) > 1:
        dd = np.diff(traj.delta)
        worst = float(dd.max())
        if worst > 1e-9:
            raise IntegrationError(
                f"delta increased by {worst:.3e} on a step although U >= 0")
    return traj


def integrate_alpha_form(p: Potential, E: float, rtol: float = DEFAULT_RTOL,
                         atol: float = DEFAULT_ATOL) -> Trajectory:
    """Trajectory from the angle form (t = sin(alpha), rho = cos(alpha));
    endpoint data agrees with the other two formulations."""
    rows, rt, lnt, r, k = _run(p, E, K.RICCATI_ALPHA, rtol, atol)
    return Trajectory(rows, k, p, E)


# ----------------------------------------------------------------------
# thin slabs

def small_slab_coefficients(U: float, dx: float, E: float,
                            loss: LossModel | None = None) -> tuple[complex, complex]:
    """First-order (R, T) of a thin slab of height U and width dx.

    Valid for |kappa1| dx < 0.01 (enforced); note kappa1^2 + k^2 = U, so
    the coefficients depend on U itself, not on the sign of U - E:

        R = -i U dx / (2 k) - w dx
        T = 1 - i U dx / (2 k) - w' dx
    """
    if not (E > 0.0):
        raise ValueError("scattering regime requires E > 0")
    kappa1_dx = abs(cmath.sqrt(complex(U - E))) * dx
    if kappa1_dx >= 0.01:
        raise ValueError(f"thin-slab approximation needs |kappa1| dx < 0.01, "
                         f"got {kappa1_dx:.4g}")
    k = math.sqrt(E)
    core = -1j * U * dx / (2.0 * k)
    if loss is None or loss.is_zero:
        r2 = core
        t2 = 1.0 + core
    else:
        r2 = core - loss.w * dx
        t2 = 1.0 + core - loss.w_prime * dx
    return r2, t2


def slab_data(U: float, dx: float, E: float,
              loss: LossModel | None = None) -> ScatterData:
    """Thin-slab coefficients wrapped as extent-referenced ScatterData
    (symmetric slab: both incident directions coincide)."""
    r2, t2 = small_slab_coefficients(U, dx, E, loss)
    k = math.sqrt(E)
    t_ext = t2 * cmath.exp(1j * k * dx)
    w = 1.0 - abs(t2) ** 2 - abs(r2) ** 2
    return ScatterData(T=t_ext, R=r2, T_rev=t_ext, R_rev=r2,
                       k_left=k, k_right=k, extent=dx,
                       loss=w if abs(w) > 1e-15 else 0.0)
