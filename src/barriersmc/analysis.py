"""Post-hoc trajectory metrics: band convergence, escape/return events,
chattering (total variation) and the settled gain peak; and an upper
bound on the time a class-Kinf relay takes to first reach its band.

All functions are read-only over immutable trajectories and descriptors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Tuple

from barriersmc.controllers import KInfty, SaturatedKInfty
from barriersmc.simkernel import SimConfig, Trajectory

# Post-convergence settle pad before gain levels are judged, and the default
# chattering window as a fraction of the horizon.
SETTLE_PAD = 1.0
DEFAULT_CHATTER_FRACTION = 0.2
# Intervals of the geometric grid that `reach_time_bound` sums over.
REACH_INTERVALS = 256


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
    import numpy as np  # here: importing the package does not pay for it
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
    import numpy as np  # here: importing the package does not pay for it
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


def reach_time_bound(controller, d_bar: float, sim: SimConfig, sigma: float) -> float:
    """An upper bound on the time of the first sample with |s| <= sigma,
    for the KInfty or SaturatedKInfty relay `controller` from `sim.s0`
    under any |d| <= d_bar, while s keeps its sign.

    With g = min(K, cap, u_max) the applied gain, each Euler step from
    |s_k| > sigma gives |s_{k+1}| <= |s_k| - h*(g(|s_k|) - d_bar). So the
    first sample inside comes by h plus the integral of 1/(g(x) - d_bar)
    from sigma to |s0|. The integrand decreases in x, so its left Riemann
    sum over a geometric grid of REACH_INTERVALS intervals over-estimates
    the integral. 0.0 when |s0| <= sigma; inf when g(sigma) <= d_bar.
    """
    if not isinstance(controller, (KInfty, SaturatedKInfty)):
        raise ValueError(f"no reaching-time bound for {type(controller).__name__}")
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if abs(sim.s0) <= sigma:
        return 0.0
    import numpy as np  # here: importing the package does not pay for it
    x = np.geomspace(sigma, abs(sim.s0), REACH_INTERVALS + 1)
    cap = min(controller.cap, sim.u_max or math.inf)
    rate = np.array([min(controller.law.gain(v), cap) for v in x[:-1].tolist()]) - d_bar
    return float(np.sum(np.diff(x) / rate)) + sim.h if rate[0] > 0.0 else math.inf
