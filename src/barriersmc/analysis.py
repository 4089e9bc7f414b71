"""Post-hoc trajectory metrics: band convergence, escape/return events,
chattering (total variation), the settled gain peak, and the analytic
convergence-time bound for the saturated controller.

All functions are read-only over immutable trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from barriersmc.gains import GainLaw, gain_inverse, ultimate_bound
from barriersmc.simkernel import Trajectory

# Post-convergence settle pad before gain levels are judged, and the default
# chattering window as a fraction of the horizon.
SETTLE_PAD = 1.0
DEFAULT_CHATTER_FRACTION = 0.2


class AssumptionViolatedError(ValueError):
    """Saturation cap does not dominate the disturbance bound."""


class InvalidComparisonError(ValueError):
    """Convergence comparison premise (same accuracy/setup) violated."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Permanent entry into |s| <= sigma_target, suffix criterion.

    t_conv is the smallest sampled t with |s| inside the band from t to the
    end of the record; None if no such suffix exists. When t_conv is absent,
    escapes lists (t_exit, t_reentry-or-None) intervals relative to the
    first entry, and sigma_measured is the max |s| after that first entry
    (max over the whole record if the band was never entered).
    """

    t_conv: Optional[float]
    sigma_target: float
    sigma_measured: float
    escapes: Tuple[Tuple[float, Optional[float]], ...] = ()


@dataclass(frozen=True)
class ChatteringReport:
    total_variation: float
    window: Tuple[float, float]


def convergence_time(traj: Trajectory, sigma: float) -> ConvergenceReport:
    """Detect permanent band membership and escape/return events."""
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    abs_s = np.abs(traj.s)
    inside = abs_s <= sigma
    out = np.flatnonzero(~inside)

    if out.size == 0:
        return ConvergenceReport(float(traj.t[0]), sigma, float(abs_s.max()))
    if out[-1] < len(traj) - 1:
        start = out[-1] + 1
        return ConvergenceReport(float(traj.t[start]), sigma, float(abs_s[start:].max()))

    # Final sample outside the band: no convergence.
    first_in = np.flatnonzero(inside)
    if first_in.size == 0:
        return ConvergenceReport(None, sigma, float(abs_s.max()))
    i0 = int(first_in[0])
    escapes = []
    flips = np.flatnonzero(np.diff(inside[i0:].astype(np.int8))) + i0 + 1
    t_exit = None
    for i in flips:
        if inside[i]:
            escapes.append((float(traj.t[t_exit]), float(traj.t[i])))
            t_exit = None
        else:
            t_exit = i
    if t_exit is not None:
        escapes.append((float(traj.t[t_exit]), None))
    return ConvergenceReport(None, sigma, float(abs_s[i0:].max()), tuple(escapes))


def total_variation(traj: Trajectory, window: Tuple[float, float]) -> ChatteringReport:
    """Sum of |delta u_applied| over consecutive samples within the window."""
    t0, t1 = window
    t_end = float(traj.t[-1])
    if not (0.0 <= t0 < t1 <= t_end + 1e-12):
        raise ValueError(f"window {window!r} invalid for horizon [0, {t_end:g}]")
    mask = (traj.t >= t0 - 1e-12) & (traj.t <= t1 + 1e-12)
    u = traj.u_applied[mask]
    if len(u) < 2:
        raise ValueError(f"window {window!r} contains fewer than two samples")
    tv = float(np.abs(np.diff(u)).sum())
    return ChatteringReport(tv, (t0, t1))


def default_chatter_window(traj: Trajectory) -> Tuple[float, float]:
    t_end = float(traj.t[-1])
    return ((1.0 - DEFAULT_CHATTER_FRACTION) * t_end, t_end)


def settled_peak_gain(traj: Trajectory, t_conv: float) -> Optional[Tuple[float, float]]:
    """(t, gain) at the largest commanded gain from t_conv plus the settle
    pad on; None when the pad leaves no samples."""
    mask = traj.t >= t_conv + SETTLE_PAD
    if not mask.any():
        return None
    gains = traj.gain[mask]
    worst = int(np.argmax(gains))
    return float(traj.t[mask][worst]), float(gains[worst])


def sat_time_bound(s0: float, law: GainLaw, k_max: float, d_bar: float) -> float:
    """Two-phase convergence-time estimate for the gain-capped relay:
    linear descent at k_max - d_bar down to sigma_s = K^{-1}(k_max), then
    descent at K(s*) - d_bar with s* the midpoint of the remaining
    interval. A midpoint heuristic, not an upper bound: on the bundled
    sec7 `sat` experiment it gives 0.2208 s, while the measured
    convergence into the 3.52e-3 band takes 0.228 s. Raises
    UnsupportedVariantError for a law without an inverse.
    """
    sigma1 = gain_inverse(law, d_bar)
    if not (k_max > d_bar):
        raise AssumptionViolatedError(
            f"k_max = {k_max:g} must exceed d_bar = {d_bar:g}"
        )
    sigma_s = gain_inverse(law, k_max)
    a0 = abs(s0)
    if a0 <= sigma1:
        return 0.0
    if a0 > sigma_s:
        t_a = (a0 - sigma_s) / (k_max - d_bar)
        upper = sigma_s
    else:
        t_a = 0.0
        upper = a0
    s_star = sigma1 + 0.5 * (upper - sigma1)
    t_b = (upper - sigma1) / (law.gain(s_star) - d_bar)
    return t_a + t_b


def _law_of(traj: Trajectory) -> GainLaw:
    law = getattr(traj.controller, "law", None)
    if law is None:
        raise InvalidComparisonError(
            f"controller {type(traj.controller).__name__} has no class-Kinf gain law"
        )
    return law


@dataclass(frozen=True)
class ComparisonResult:
    faster: str  # "first", "second" or "tie"
    t_conv_first: Optional[float]
    t_conv_second: Optional[float]


def compare_convergence(
    traj_a: Trajectory, traj_b: Trajectory, sigma: float
) -> ComparisonResult:
    """Order two runs by convergence time into the same band.

    Premise: shared initial condition, step and disturbance, and gain laws
    with matching ultimate bounds at the declared d_bar (within 1%).
    """
    ca, cb = traj_a.config, traj_b.config
    if ca is None or cb is None or traj_a.disturbance is None:
        raise InvalidComparisonError("trajectories lack simulation metadata")
    if ca.s0 != cb.s0 or ca.h != cb.h or traj_a.disturbance != traj_b.disturbance:
        raise InvalidComparisonError("runs differ in s0, step or disturbance")
    d_bar = traj_a.disturbance.d_bar
    ba = ultimate_bound(_law_of(traj_a), d_bar).sigma
    bb = ultimate_bound(_law_of(traj_b), d_bar).sigma
    if abs(ba - bb) > 0.01 * max(ba, bb):
        raise InvalidComparisonError(
            f"ultimate bounds differ by more than 1%: {ba:g} vs {bb:g}"
        )
    ta = convergence_time(traj_a, sigma).t_conv
    tb = convergence_time(traj_b, sigma).t_conv
    fa = math.inf if ta is None else ta
    fb = math.inf if tb is None else tb
    if fa < fb:
        faster = "first"
    elif fb < fa:
        faster = "second"
    else:
        faster = "tie"
    return ComparisonResult(faster, ta, tb)
