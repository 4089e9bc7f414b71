"""Fixed-step closed-loop simulation of the scalar plant s' = u + d.

Explicit Euler at the controller's sample step, disturbance sampled at the
left endpoint. Deterministic: identical inputs give bit-identical
trajectories.

Each disturbance signal is a frozen dataclass whose `__call__(t)` samples
it, just as each controller descriptor carries its `control`;
`DisturbanceSpec.sample` and `simulate` bind them once and run no dispatch
over variants per step. A new signal
is a class with its `__call__`, added to `Signal` and to the config schema
in `experiment`.

The kernel's contract
---------------------
- Time is a Python float, t_k = k * h, equal to `np.arange(n + 1) * h`
  element for element; no numpy scalar reaches a signal or a controller.
- The disturbance does not depend on the state, so its whole column
  d(t_k), k = 0..n, is sampled before the loop by
  `DisturbanceSpec.sample(h, n)`. A caller that runs one disturbance
  many times, as a sweep does over its grid points, samples the column
  once and passes it in: `simulate(c, d, cfg, column)` requires that
  `column` equals `d.sample(cfg.h, n_steps(cfg))`, and samples it itself
  when none is passed. The kernel keeps no state between calls.
- Three loops, one per controller shape. A descriptor with
  `fused_terms()`, that is one built on a class-Kinf law (`KInfty`,
  `SaturatedKInfty`, `TbgIntegral`), has its control inlined from the
  bound `law.gain` and the cap on the commanded gain that `fused_terms()`
  returns, and does not have `Controller.state` written. It runs in the
  relay loop when its `tbg_columns(s0, h, n)` is None, else in the TBG
  loop. Every other descriptor (`ObeidTwoPhase`, `FixedSign`) runs in the
  reference loop, which calls its `control(state, t, s, h)` once per step
  and stores s, u and the gain. The relay and TBG loops give the bytes
  that the reference loop gives, with zero tolerance; the
  reference-oracle test and the variant pins hold them to that.
- The relay loop (u = -g*sign(s), g = min(K(|s|), cap)) stores only s
  and u per step; its gain column is |u|. That is exact: both laws give
  g >= +0.0 with K(0) = +0.0, so |u| = g whether sign(s) is +-1 or a
  signed zero, and a step whose g is not finite has a non-finite u, so
  it is never recorded.
- The TBG loop is the same relay acting on e = s - z, shifted by a
  feedforward w: u = w - g*sign(e), storing s, u and g. Neither z nor w
  depends on the plant, so both are columns, z_k and w_k for k = 0..n,
  that the descriptor's `tbg_columns(s0, h, n)` builds before the loop:
  `TbgIntegral`'s auxiliary state and feedforward term as its `control`
  computes them, bit for bit. A caller may build them once and pass them
  in, as a sweep does for the grid points of one base: then `tbg` must
  equal `c.spec.tbg_columns(cfg.s0, cfg.h, n_steps(cfg))`.
- Each step raises its errors in this order: a non-finite state
  (SimulationDiverged), then a sample outside a custom table
  (ExtrapolationError) or over d_bar (DisturbanceBoundError), then a
  controller pole or a non-finite control (SimulationDiverged). So a
  table that ends early raises at its first uncovered sample, unless
  the state blew up first. The steps themselves check no finiteness: one
  scan after the loop, or when an exception leaves it, finds the first
  non-finite state or control, so a diverged run computes to its horizon
  and a later exception (a pole, say) never hides an earlier divergence.
- The records are `array('d')` columns of the clean steps' length, filled
  by item stores through a `memoryview` of each (cheaper per store than
  the array's own) and wrapped by `np.frombuffer`; the returned
  trajectory owns them, and its `d` is a copy of the column, which may be
  shared. `u_applied` is `u_commanded` clipped to +-u_max, which is the
  loop's clamp on every finite control. The loops read h, u_max and the
  record columns as plain locals: only the `record` and `diverged`
  helpers close over the record columns, through one tuple.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from barriersmc.controllers import Controller, ControllerSpec
from barriersmc.gains import BarrierPoleError


class ExtrapolationError(ValueError):
    """Custom disturbance table queried outside its time domain."""


class DisturbanceBoundError(ValueError):
    """Sampled disturbance exceeded its declared bound d_bar."""


class SimulationDiverged(RuntimeError):
    """Simulation aborted on a non-finite state or a controller pole.

    Carries the abort time and the partial trajectory recorded so far.
    """

    def __init__(self, message: str, t: float, trajectory: "Trajectory"):
        super().__init__(message)
        self.t = t
        self.trajectory = trajectory


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(omega*t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t + self.phase)


@dataclass(frozen=True)
class PiecewiseVII:
    """0.1*sin(3t) for t <= 5 s (inclusive), 0.2*cos(5t) after."""

    def __call__(self, t: float) -> float:
        if t <= 5.0:
            return 0.1 * math.sin(3.0 * t)
        return 0.2 * math.cos(5.0 * t)


@dataclass(frozen=True)
class CustomTable:
    """Sampled signal with linear interpolation; no extrapolation."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("table needs >= 2 aligned (time, value) samples")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("table times must be strictly increasing")

    def __call__(self, t: float) -> float:
        if t < self.times[0] or t > self.times[-1]:
            raise ExtrapolationError(
                f"t = {t:g} outside table domain [{self.times[0]:g}, {self.times[-1]:g}]"
            )
        i = bisect.bisect_right(self.times, t) - 1
        if i == len(self.times) - 1:
            return self.values[-1]
        t0, t1 = self.times[i], self.times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


Signal = Sinusoid | PiecewiseVII | CustomTable


@dataclass(frozen=True)
class DisturbanceSpec:
    """A disturbance signal plus its analysis-side bound d_bar.

    d_bar is never visible to controllers; |d(t)| <= d_bar is checked over
    the sampled trajectory during simulation. A custom table is checked at
    its nodes up front, which is exact because linear interpolation peaks
    at the nodes.
    """

    signal: Signal
    d_bar: float

    def __post_init__(self) -> None:
        if not isinstance(self.signal, Signal):
            raise TypeError(f"not a disturbance signal: {self.signal!r}")
        if not (math.isfinite(self.d_bar) and self.d_bar > 0):
            raise ValueError(f"d_bar must be positive, got {self.d_bar!r}")
        if (isinstance(self.signal, CustomTable)
                and max(map(abs, self.signal.values)) > self.d_bar):
            raise ValueError(f"table |d| exceeds declared d_bar = {self.d_bar!r}")

    def sample(self, h: float, n: int) -> array:
        """signal(k*h) for k = 0..n.

        The column stops before the first sample that raises; `simulate`
        samples that step again and raises there, after the checks that
        come first.
        """
        column = array("d")
        append, signal = column.append, self.signal
        try:
            for k in range(n + 1):
                append(signal(k * h))
        except Exception:
            pass  # re-raised in step order by simulate
        return column


@dataclass(frozen=True)
class SimConfig:
    s0: float
    h: float
    t_end: float
    u_max: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s0)):
            raise ValueError(f"s0 must be finite, got {self.s0!r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive, got {self.h!r}")
        if not (self.t_end >= self.h and math.isfinite(self.t_end / self.h)):
            raise ValueError(f"t_end must be >= h with t_end / h finite, got {self.t_end!r}")
        if self.u_max is not None and not (math.isfinite(self.u_max) and self.u_max > 0):
            raise ValueError(f"u_max must be positive when present, got {self.u_max!r}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop record; immutable once returned.

    u_applied is u_commanded clamped to +-u_max when the limit is present;
    gain is the commanded (pre-actuator) gain.
    """

    t: np.ndarray
    s: np.ndarray
    u_commanded: np.ndarray
    u_applied: np.ndarray
    gain: np.ndarray
    d: np.ndarray
    config: Optional[SimConfig] = None
    controller: Optional[ControllerSpec] = None
    disturbance: Optional[DisturbanceSpec] = None

    def __len__(self) -> int:
        return len(self.t)


def n_steps(cfg: SimConfig) -> int:
    return int(math.floor(cfg.t_end / cfg.h + 1e-9))


def simulate(c: Controller, d: DisturbanceSpec, cfg: SimConfig,
             column: Optional[array] = None,
             tbg: Optional[Tuple[array, array]] = None) -> Trajectory:
    """Run the explicit-Euler loop s_{k+1} = s_k + h*(u_applied + d(t_k)).

    `column`, when passed, must equal `d.sample(cfg.h, n_steps(cfg))`, and
    `tbg` must equal `c.spec.tbg_columns(cfg.s0, cfg.h, n_steps(cfg))`;
    either one is computed here when it is not passed.

    Raises SimulationDiverged (with the partial record) if the state or the
    control goes non-finite, or the controller hits a gain-law pole;
    DisturbanceBoundError if a sample exceeds d_bar; ExtrapolationError if
    a custom table misses a sample time. The module docstring gives the
    order.
    """
    n = n_steps(cfg)
    h, u_max = cfg.h, cfg.u_max
    if column is None:
        column = d.sample(h, n)
    over = np.flatnonzero(np.abs(np.frombuffer(column)) > d.d_bar * (1.0 + 1e-12))
    m = int(over[0]) if len(over) else len(column)  # the steps that sample d cleanly
    # the loops read plain locals, and store through memoryviews: their item
    # stores are cheaper than array's. Only the helpers below see `records`.
    records = s_rec, u_cmd, g_rec = tuple(memoryview(array("d", [0.0]) * m) for _ in range(3))

    def record(k: int) -> Trajectory:
        s, u, g = (np.frombuffer(a, count=k) for a in records)
        return Trajectory(np.arange(k) * cfg.h, s, u,  # the clip is the loop's clamp on finite u
                          u.copy() if cfg.u_max is None else np.clip(u, -cfg.u_max, cfg.u_max),
                          np.abs(u) if relay else g, np.frombuffer(column, count=k).copy(),
                          cfg, c.spec, d)

    def diverged(k: int, s: float) -> Optional[SimulationDiverged]:
        """The divergence at the first non-finite state or control of steps
        0..k-1, else at step k if its state s is non-finite, else None."""
        states, controls = (np.frombuffer(a, count=k) for a in records[:2])
        ok = np.isfinite(states) & np.isfinite(controls)
        j = k if ok.all() else int(ok.argmin())
        if j == k and math.isfinite(s):
            return None
        what = "state" if j == k or not math.isfinite(records[0][j]) else "control"
        return SimulationDiverged(f"{what} non-finite at t = {j * cfg.h:g}", j * cfg.h, record(j))

    fused = getattr(c.spec, "fused_terms", None)
    gain, cap = (None, None) if fused is None else fused()
    tbg = c.spec.tbg_columns(cfg.s0, h, n) if fused and tbg is None else tbg
    relay = fused is not None and tbg is None
    s, k = cfg.s0, 0
    try:
        if fused is None:  # the reference path: the descriptor's own control
            control, state = c.spec.control, c.state
            for k, dk in zip(range(m), column):
                u = control(state, k * h, s, h)
                ua = u if u_max is None else min(u_max, max(-u_max, u))
                s_rec[k], u_cmd[k], g_rec[k] = s, u, state.gain
                s = s + h * (ua + dk)  # past the last sample the new state is unused
        elif relay:  # -g*sign(s), its sign(0) = 0 kept as a signed product
            for k, dk in zip(range(m), column):
                g = gain(abs(s))
                g = g if g < cap else cap
                u = -g if s > 0.0 else g if s < 0.0 else -g * 0.0
                s_rec[k], u_cmd[k] = s, u  # the gain is |u|, taken by record
                s = s + h * ((u if u_max is None else min(u_max, max(-u_max, u))) + dk)
        else:  # TBG: the relay on e = s - z, shifted by the feedforward w
            for k, dk, z, w in zip(range(m), column, *tbg):
                e = s - z
                g = gain(abs(e))
                g = g if g < cap else cap
                u = w - (g if e > 0.0 else -g if e < 0.0 else g * 0.0)
                s_rec[k], u_cmd[k], g_rec[k] = s, u, g
                s = s + h * ((u if u_max is None else min(u_max, max(-u_max, u))) + dk)
    except Exception as exc:  # a divergence up to step k's state comes first
        err = diverged(k, s)
        if err is not None:
            raise err from None
        if not isinstance(exc, BarrierPoleError):
            raise
        raise SimulationDiverged(f"controller pole at t = {k * h:g}: {exc}", k * h,
                                 record(k)) from exc
    err = diverged(m, s if m <= n else 0.0)
    if err is not None:
        raise err
    if m <= n:  # step m is outside a custom table, or its |d| exceeds d_bar
        tk = m * h
        dk = d.signal(tk)  # raises where the column stopped
        raise DisturbanceBoundError(
            f"|d({tk:g})| = {abs(dk):g} exceeds declared d_bar = {d.d_bar:g}"
        )
    return record(n + 1)
