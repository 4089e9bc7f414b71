"""Post-hoc trajectory metrics: band convergence, escape/return events,
chattering (total variation), the settled gain peak, and a midpoint
estimate of the saturated controller's convergence time.

All functions are read-only over immutable trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Tuple

import numpy as np

from barriersmc.gains import GainLaw, gain_inverse
from barriersmc.simkernel import Trajectory

# Post-convergence settle pad before gain levels are judged, and the default
# chattering window as a fraction of the horizon.
SETTLE_PAD = 1.0
DEFAULT_CHATTER_FRACTION = 0.2


class AssumptionViolatedError(ValueError):
    """Saturation cap does not dominate the disturbance bound."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Permanent entry into |s| <= sigma_target, suffix criterion.

    t_conv is the smallest sampled t with |s| inside the band from t to the
    end of the record; None if no such suffix exists. escapes lists the
    (t_exit, t_reentry-or-None) intervals after the first entry: when the
    run converges, those before t_conv, each re-entered. sigma_measured is
    the max |s| from t_conv on, else after the first entry (max over the
    whole record if the band was never entered).
    """

    t_conv: Optional[float]
    sigma_target: float
    sigma_measured: float
    escapes: Tuple[Tuple[float, Optional[float]], ...] = ()


def convergence_time(traj: Trajectory, sigma: float) -> ConvergenceReport:
    """Detect permanent band membership and escape/return events."""
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    abs_s = np.abs(traj.s)
    inside = abs_s <= sigma
    first_in = np.flatnonzero(inside)
    if first_in.size == 0:
        return ConvergenceReport(None, sigma, float(abs_s.max()))
    i0 = int(first_in[0])
    # the samples where |s| crosses the band: exits and re-entries, alternating
    flips = np.flatnonzero(inside[i0 + 1:] != inside[i0:-1]) + i0 + 1
    times = traj.t[flips].tolist()
    escapes = tuple(zip_longest(times[0::2], times[1::2]))
    if len(flips) % 2:  # the final sample is outside the band: no convergence
        return ConvergenceReport(None, sigma, float(abs_s[i0:].max()), escapes)
    start = int(flips[-1]) if len(flips) else i0
    return ConvergenceReport(float(traj.t[start]), sigma, float(abs_s[start:].max()), escapes)


def total_variation(traj: Trajectory, window: Tuple[float, float]) -> float:
    """Sum of |delta u_applied| over consecutive samples within the window."""
    t0, t1 = window
    t_end = float(traj.t[-1])
    if not (0.0 <= t0 < t1 <= t_end + 1e-12):
        raise ValueError(f"window {window!r} invalid for horizon [0, {t_end:g}]")
    mask = (traj.t >= t0 - 1e-12) & (traj.t <= t1 + 1e-12)
    u = traj.u_applied[mask]
    if len(u) < 2:
        raise ValueError(f"window {window!r} contains fewer than two samples")
    return float(np.abs(np.diff(u)).sum())


def default_chatter_window(traj: Trajectory) -> Tuple[float, float]:
    t_end = float(traj.t[-1])
    return ((1.0 - DEFAULT_CHATTER_FRACTION) * t_end, t_end)


def settled_peak_gain(traj: Trajectory, t_conv: float) -> Optional[float]:
    """The largest commanded gain from t_conv plus the settle pad on; None
    when the pad leaves no samples."""
    mask = traj.t >= t_conv + SETTLE_PAD
    return float(traj.gain[mask].max()) if mask.any() else None


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
