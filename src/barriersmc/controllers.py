"""Stateful control laws u = f(t, s) for the scalar plant s' = u + d.

Controller descriptors are frozen dataclasses (safe to embed in configs),
and each carries its own law as `control(state, t, s, h)`. A `Controller`
wraps one descriptor with the per-simulation mutable state (adaptive gain
integrator, phase flag, auxiliary state) and delegates every sample to the
descriptor's `control`, so no step dispatches over variants. Adaptive
state is advanced by explicit Euler at the sample step, matching the plant
loop. A new variant is a descriptor class with its `control`, added to
`ControllerSpec` and to the config schema in `experiment`. The
descriptors built on a class-Kinf law also give `fused_terms()`, the bound
`law.gain` and the cap on the commanded gain, and `rate_column(h, n)`,
the TBG rate column or None for a relay, from which `simkernel.simulate`
inlines their control without this state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

from barriersmc.gains import KinfLaw, PsbParams, saturate_gain


def sign(x: float) -> float:
    """Signum with sign(0) = 0, so u vanishes on the ideal surface."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


@dataclass(frozen=True)
class TbgParams:
    """Time base generator: prescribed settling time t_f and regularization
    delta (small positive; the auxiliary state lands at delta/(1+delta)*s0)."""

    t_f: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_f) and self.t_f > 0):
            raise ValueError(f"t_f must be positive, got {self.t_f!r}")
        if not (math.isfinite(self.delta) and 0 < self.delta < 1):
            raise ValueError(f"delta must be in (0, 1), got {self.delta!r}")


def tbg_zeta(t: float, t_f: float) -> float:
    """Cosine ramp (1 - cos(pi*t/t_f))/2 for t <= t_f, exactly 1 after."""
    if t >= t_f:
        return 1.0
    return 0.5 * (1.0 - math.cos(math.pi * t / t_f))


def tbg_zeta_dot(t: float, t_f: float) -> float:
    """pi*sin(pi*t/t_f)/(2*t_f) for t <= t_f, exactly 0 after."""
    if t >= t_f:
        return 0.0
    return 0.5 * math.pi * math.sin(math.pi * t / t_f) / t_f


def tbg_kg(t: float, p: TbgParams) -> float:
    """Scheduled decay rate zeta'/(1 - zeta + delta); finite everywhere
    (denominator >= delta) and 0 for t >= t_f."""
    return tbg_zeta_dot(t, p.t_f) / (1.0 - tbg_zeta(t, p.t_f) + p.delta)


def tbg_z_closed_form(t: float, s0: float, p: TbgParams) -> float:
    """Analytic solution s0*(1 - zeta + delta)/(1 + delta) of z' = -kg*z,
    used as a reference for the Euler-integrated auxiliary state."""
    return s0 * (1.0 - tbg_zeta(t, p.t_f) + p.delta) / (1.0 + p.delta)


# --- controller descriptors ------------------------------------------------


@dataclass(frozen=True)
class _KinfLawSpec:
    """Base of the descriptors driven by a class-Kinf gain law `law`."""

    law: KinfLaw

    def __post_init__(self) -> None:
        if not isinstance(self.law, KinfLaw):
            raise ValueError(f"{type(self).__name__} requires a concave or convex gain law")

    def fused_terms(self) -> tuple:
        """What `simulate`'s fused loop needs in place of `control`: the
        bound `law.gain` and the cap on the commanded gain. A subclass that
        overrides `control` overrides this too, and `rate_column`."""
        return self.law.gain, math.inf

    def rate_column(self, h: float, n: int) -> Optional[array]:
        """The TBG rate column for the fused loop's TBG branch; None for a
        relay."""
        return None


@dataclass(frozen=True)
class KInfty(_KinfLawSpec):
    """Pure class-Kinf relay u = -K(|s|) sign(s)."""

    def control(self, st: ControllerState, t: float, s: float, h: float) -> float:
        g = self.law.gain(abs(s))
        st.gain = g
        return -g * sign(s)


@dataclass(frozen=True)
class SaturatedKInfty(_KinfLawSpec):
    """Class-Kinf relay with the commanded gain capped at k_max."""

    k_max: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.k_max) and self.k_max > 0):
            raise ValueError(f"k_max must be positive, got {self.k_max!r}")

    def fused_terms(self) -> tuple:
        return self.law.gain, self.k_max

    def control(self, st: ControllerState, t: float, s: float, h: float) -> float:
        g = saturate_gain(self.law.gain(abs(s)), self.k_max)
        st.gain = g
        return -g * sign(s)


@dataclass(frozen=True)
class ObeidTwoPhase:
    """Two-phase adaptive relay: integrate k_a' = k_bar*|s| until the first
    sample with |s| <= epsilon/2, then switch permanently to the legacy
    pole barrier."""

    params: PsbParams

    def control(self, st: ControllerState, t: float, s: float, h: float) -> float:
        p = self.params
        if st.phase == REACHING and abs(s) <= 0.5 * p.epsilon:
            st.phase = BARRIER
            st.t_bar = t
        if st.phase == REACHING:
            g = st.k_a
            st.k_a += h * p.k_bar * abs(s)
        else:
            g = p.gain(abs(s))
        st.gain = g
        return -g * sign(s)


@dataclass(frozen=True)
class TbgIntegral(_KinfLawSpec):
    """Integral design u = -kg(t)*z - K(|e|) sign(e) with e = s - z and
    auxiliary state z' = -kg(t)*z started at z(0) = s(0).

    The auxiliary drift is kept as the plain function kg(t)*z; the time base
    generator is the only scheduled rate shipped here, but any bounded drift
    with the same sign convention slots into the same place.
    """

    tbg: TbgParams

    def rate_column(self, h: float, n: int) -> array:
        """kg(k*h) for k = 0..n, ending early at the first k*h >= t_f, whose
        kg is exactly 0.0, as it stays from there on."""
        rate = array("d")
        for k in range(n + 1):
            rate.append(tbg_kg(k * h, self.tbg))
            if k * h >= self.tbg.t_f:
                break
        return rate

    def control(self, st: ControllerState, t: float, s: float, h: float) -> float:
        if st.z is None:
            st.z = s  # first sample defines s0
        kg = tbg_kg(t, self.tbg)
        e = s - st.z
        g = self.law.gain(abs(e))
        u = -kg * st.z - g * sign(e)
        st.z -= h * kg * st.z
        st.gain = g
        return u


@dataclass(frozen=True)
class FixedSign:
    """Constant-gain relay u = -k sign(s); chattering baseline."""

    k: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"k must be nonnegative, got {self.k!r}")

    def control(self, st: ControllerState, t: float, s: float, h: float) -> float:
        st.gain = self.k
        return -self.k * sign(s)


ControllerSpec = KInfty | SaturatedKInfty | ObeidTwoPhase | TbgIntegral | FixedSign

REACHING = "reaching"
BARRIER = "barrier"


@dataclass
class ControllerState:
    """Mutable per-simulation state; fields unused by a variant stay at
    their initial values."""

    k_a: float = 0.0
    phase: str = REACHING
    z: Optional[float] = None
    t_bar: Optional[float] = None
    gain: float = 0.0  # commanded gain at the last sample, for recording


class Controller:
    """One descriptor plus its mutable state; single-owner, one simulation.

    `control` must be called once per sample in non-decreasing time order.
    """

    def __init__(self, spec: ControllerSpec):
        if not isinstance(spec, ControllerSpec):
            raise TypeError(f"not a controller descriptor: {spec!r}")
        self.spec = spec
        self.state = ControllerState()

    def control(self, t: float, s: float, h: float) -> float:
        return self.spec.control(self.state, t, s, h)
