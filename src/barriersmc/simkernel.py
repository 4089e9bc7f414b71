"""Fixed-step closed-loop simulation of the scalar plant s' = u + d.

Explicit Euler at the controller's sample step, disturbance sampled at the
left endpoint. Deterministic: identical inputs give bit-identical
trajectories.

Each disturbance signal is a frozen dataclass whose `__call__(t)` samples
it, just as each controller descriptor carries its `control`, and whose
`column(t)` is its array form: `__call__` at every time of an ascending
float64 grid, bit for bit, up to the first time at which `__call__`
would raise. `DisturbanceSpec.sample` calls `column` once, and no step
dispatches over variants. A new signal is a class with both, added to
`Signal` and to the config schema in `experiment`.

numpy is imported inside the functions that make or read arrays (each
`column`, `DisturbanceSpec.sample`, `simulate`), not with the module, so
that a process which only builds and checks descriptors, such as
`barriersmc validate`, does not pay its ~0.1 s import.

The kernel's contract
---------------------
- Time is a Python float, t_k = k * h, equal to `np.arange(n + 1) * h`
  element for element; no numpy scalar reaches a signal or a controller.
- The disturbance does not depend on the state, so its whole column
  d(t_k), k = 0..n, is sampled before the loop by
  `DisturbanceSpec.sample(h, n)`, at array speed: the signal's `column`
  applies numpy's elementwise + - * / in the order of its `__call__`,
  which rounds each operation as Python's float arithmetic does, and maps
  `math.sin`/`math.cos` over the arguments as Python floats (numpy's own
  differ from libm in the last bit). A table finds its intervals with
  `searchsorted(side="right")` where `__call__` uses `bisect_right`. A
  caller that runs one disturbance many times, as a sweep does over its
  grid points, samples the column once and passes it in:
  `simulate(c, d, cfg, column)` requires that `column` equals
  `d.sample(cfg.h, n_steps(cfg))`, and samples it itself when none is
  passed. The kernel keeps no state between calls. `__call__` stays the
  reference: `simulate` samples a step with it where the column stopped,
  to raise that step's error, and the tests compare `column` with it.
- A signal that can be sampled at the first and at the last sample time
  can be sampled at every sample time between them: a table's domain is
  an interval, and the arguments of the sinusoid's `sin` and of
  `PiecewiseVII`'s `sin` and `cos` are monotone in t, so finite at both
  ends means finite between. `DisturbanceSpec.check_samples` rests on
  this premise: it calls `__call__` at t = 0 and t = n * h only, so a
  new signal must keep it. `SimConfig` keeps n * h finite.
- Three loops, one per controller shape. A descriptor with a `law`,
  that is one built on a class-Kinf law (`KInfty`, `SaturatedKInfty`,
  `TbgIntegral`), has its control inlined from the bound `law.gain` and
  its `cap` on the commanded gain, which its own `control` reads too.
  It runs in the relay loop when its `tbg_columns(s0, h, n)` is None,
  else in the TBG loop. Every other descriptor (`ObeidTwoPhase`,
  `FixedSign`) runs in the reference loop, which calls its
  `control(state, t, s, h)` once per step on a fresh `ControllerState`
  and records u and the gain. No loop reads or writes
  `Controller.state`, so one `Controller` gives the same run every
  time. The relay and TBG loops give the bytes
  that the reference loop gives, with zero tolerance; the
  reference-oracle test and the variant pins hold them to that.
- The relay loop (u = -g*sign(s), g = min(K(|s|), cap)) records only u
  per step; its gain column is |u|. That is exact: both laws give
  g >= +0.0 with K(0) = +0.0, so |u| = g whether sign(s) is +-1 or a
  signed zero, and a step whose g is not finite has a non-finite u, so
  it is never recorded. Its sign test already knows |s|: it calls the
  law on s for s > 0 and on -s for s < 0, and on abs(s) only for a
  signed zero or a NaN.
- The TBG loop is the same relay acting on e = s - z, shifted by a
  feedforward w: u = w - g*sign(e), recording u and g. Its cap is inf,
  so the loop applies none: the cap differs from K(|e|) only on a NaN,
  which comes with a NaN e and so a NaN u, never recorded. Neither z nor w
  depends on the plant, so both are columns, z_k and w_k for k = 0..n,
  that the descriptor's `tbg_columns(s0, h, n)` builds before the loop:
  `TbgIntegral`'s auxiliary state and feedforward term as its `control`
  computes them, bit for bit: one Python loop steps `control`'s
  recurrence with `tbg_kg(t_k)` up to the first t_k >= t_f, where kg is
  0.0 and both columns freeze. A caller may build them once and pass
  them in, as a sweep does for the grid points of one base: then `tbg`
  must equal `c.spec.tbg_columns(cfg.s0, cfg.h, n_steps(cfg))`.
- The three loops are one generator, which yields each step's u (and,
  outside the relay loop, then its gain) into `np.fromiter`; the
  trajectory's u and gain are that array, or its even and odd items. A
  class-Kinf law's gain raises on no magnitude, so the relay and TBG loops
  run every clean step and `fromiter` is given their count. A reference
  control that raises ends its loop at the step it was on, so the record
  holds the steps before. No loop stores its state: after the loop, one
  `np.add.accumulate` over [s_0, h*(ua_0 + d_0), h*(ua_1 + d_1), ...]
  rebuilds s_0..s_k from the applied u, which is the loop's own
  `s + h*(ua + d)` in the same order, bit for bit: numpy's elementwise
  + and * round as Python's floats do, and `accumulate` adds in
  sequence (where `np.sum` pairs). `u_applied` is `u_commanded` clipped
  to +-u_max, which equals the loops' clamp on every finite control;
  their chained comparisons cost a tenth of `min(u_max, max(-u_max, u))`
  and, as it does, send a NaN to -u_max, where the clip keeps the NaN.
  The rebuilt states therefore agree with the loop's up to the first
  non-finite control, and no record reaches past that. The rebuild runs
  under `np.errstate`, so an overflowing state is inf, as in the loop,
  with no warning.
- Each step raises its errors in this order: a non-finite state
  (SimulationDiverged), then a sample outside a custom table
  (ExtrapolationError) or over d_bar (DisturbanceBoundError), then a
  controller pole or a non-finite control (SimulationDiverged). So a
  table that ends early raises at its first uncovered sample, unless
  the state blew up first. The steps themselves check no finiteness: one
  scan of the rebuilt states and the controls, after the loop, finds
  the first non-finite one, so a diverged run computes to its horizon
  and a later exception (a pole, say) never hides an earlier divergence.
- The returned trajectory owns its columns; its `d` is a copy of the
  disturbance column, which may be shared.
"""

from __future__ import annotations

import bisect
import math
import operator
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

from barriersmc.controllers import Controller, ControllerState
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

    def __reduce__(self):  # pickle calls __init__ with all three arguments
        return type(self), (self.args[0], self.t, self.trajectory)


def _trig(f, x: np.ndarray, scale: float) -> np.ndarray:
    """scale * f(x) (f is `math.sin` or `math.cos`, which numpy's differ
    from in the last bit) for each x as a Python float, up to the first
    infinite x, on which f raises."""
    import numpy as np  # here: importing the package does not pay for it
    try:
        out = list(map(f, x.tolist()))
    except ValueError:  # math domain error: x holds an infinity
        out = list(map(f, x[:int(np.isinf(x).argmax())].tolist()))
    v = np.frombuffer(array("d", out))
    return np.multiply(scale, v, out=v)


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(omega*t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.amplitude, self.omega, self.phase))):
            raise ValueError("sinusoid amplitude, omega and phase must be finite")

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t + self.phase)

    def column(self, t: np.ndarray) -> np.ndarray:
        import numpy as np  # here: importing the package does not pay for it
        with np.errstate(all="ignore"):  # inf and 0*inf as in the scalar form
            x = self.omega * t
            x += self.phase
            return _trig(math.sin, x, self.amplitude)


@dataclass(frozen=True)
class PiecewiseVII:
    """0.1*sin(3t) for t <= 5 s (inclusive), 0.2*cos(5t) after."""

    def __call__(self, t: float) -> float:
        if t <= 5.0:
            return 0.1 * math.sin(3.0 * t)
        return 0.2 * math.cos(5.0 * t)

    def column(self, t: np.ndarray) -> np.ndarray:
        import numpy as np  # here: importing the package does not pay for it
        with np.errstate(all="ignore"):  # inf and 0*inf as in the scalar form
            i = int(t.searchsorted(5.0, side="right"))  # the samples with t <= 5
            v = _trig(math.sin, 3.0 * t[:i], 0.1)
            if i == len(t):
                return v
            return np.concatenate((v, _trig(math.cos, 5.0 * t[i:], 0.2)))


@dataclass(frozen=True)
class CustomTable:
    """Sampled signal with linear interpolation; no extrapolation."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        times = self.times
        if len(times) != len(self.values) or len(times) < 2:
            raise ValueError("table needs >= 2 aligned (time, value) samples")
        # strictly increasing times between finite ends are all finite
        if not (math.isfinite(times[0]) and math.isfinite(times[-1])
                and all(map(math.isfinite, self.values))):
            raise ValueError("table times and values must be finite")
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("table times must be strictly increasing")
        # bounds every interval's (v1 - v0) * (t - t0), so no NaN in the
        # domain. Conservative: it also rejects a table whose intervals each
        # stay finite, such as times (0, 1e308, 1.5e308) with values
        # (0, 0, 2); a per-interval check would cost every table a loop
        if not math.isfinite((max(self.values) - min(self.values)) * (times[-1] - times[0])):
            raise ValueError("table value range times time span must be finite")

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

    def column(self, t: np.ndarray) -> np.ndarray:
        import numpy as np  # here: importing the package does not pay for it
        times, values = np.array(self.times, float), np.array(self.values, float)
        # the samples up to the first one outside the table's domain
        t = t[:0 if t[0] < times[0] else int(t.searchsorted(times[-1], side="right"))]
        # bisect_right - 1, capped below the last node, whose sample is set below
        i = times[:-1].searchsorted(t, side="right") - 1
        t0, v0 = times.take(i), values.take(i)
        i += 1
        t1, v1 = times.take(i), values.take(i)
        with np.errstate(all="ignore"):  # inf and 0*inf as in the scalar form
            v1 -= v0
            v1 *= t - t0
            v1 /= t1 - t0
            v = np.add(v0, v1, out=v0)
        if len(t) and t[-1] == times[-1]:  # only the last sample can sit on the last node
            v[-1] = values[-1]
        return v


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
        """signal(k*h) for k = 0..n, from the signal's `column`.

        The column stops before the first sample that raises; `simulate`
        samples that step again and raises there, after the checks that
        come first.
        """
        import numpy as np  # here: importing the package does not pay for it
        return array("d", self.signal.column(np.arange(n + 1) * h).tobytes())

    def check_samples(self, h: float, n: int) -> None:
        """Raise ValueError unless the signal can be sampled at k*h for
        k = 0..n, naming the time and carrying the signal's message. By
        the kernel's contract samples 0 and n decide it."""
        for t in (0.0, n * h):
            try:
                self.signal(t)
            except ValueError as exc:
                raise ValueError(f"disturbance cannot be sampled at t = {t!r}: {exc}") from None


# The most Euler steps a run may take: 1e8 steps hold ~3.2 GB of records
# and write ~12 GB of trajectory CSV. A longer run is a configuration error,
# which `validate` reports instead of `run` looping for hours.
MAX_STEPS = 10**8


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
        if not (self.t_end >= self.h and self.t_end / self.h <= MAX_STEPS):
            raise ValueError(f"t_end must be >= h and <= {MAX_STEPS:.0e} * h, got {self.t_end!r}")
        # n_steps rounds up by 1e-9: t_end near the largest float can overflow
        if not math.isfinite(n_steps(self) * self.h):
            raise ValueError(f"last sample time n_steps * h overflows, got t_end = {self.t_end!r}")
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
    import numpy as np  # here: importing the package does not pay for it
    n = n_steps(cfg)
    h, u_max = cfg.h, cfg.u_max
    if column is None:
        column = d.sample(h, n)
    dcol = np.frombuffer(column)
    over = np.abs(dcol) > d.d_bar * (1.0 + 1e-12)
    m = int(over.argmax()) if over.any() else len(column)  # the steps that sample d cleanly
    law = getattr(c.spec, "law", None)  # a class-Kinf relay, as `sweep` tells one
    gain, cap = (None, None) if law is None else (law.gain, c.spec.cap)
    tbg = c.spec.tbg_columns(cfg.s0, h, n) if law is not None and tbg is None else tbg
    relay = law is not None and tbg is None
    raised = []  # the exception that ended the reference loop early, if one did

    def steps():
        """u at each clean step, followed by its gain outside the relay
        loop, up to the step whose control raises."""
        s, clean = cfg.s0, memoryview(column)[:m]
        if law is None:  # the reference path: the descriptor's own control
            control, state = c.spec.control, ControllerState()
            try:
                for k, dk in enumerate(clean):
                    u = control(state, k * h, s, h)
                    yield u
                    yield state.gain
                    ua = u if u_max is None or -u_max <= u <= u_max else u_max if u > 0.0 else -u_max
                    s = s + h * (ua + dk)  # past the last sample the new state is unused
            except Exception as exc:  # checked after the divergence scan below
                raised.append(exc)
        elif relay:  # -g*sign(s), its sign(0) = 0 kept as a signed product
            for dk in clean:
                g = gain(s) if s > 0.0 else gain(-s) if s < 0.0 else gain(abs(s))
                g = g if g < cap else cap
                u = -g if s > 0.0 else g if s < 0.0 else -g * 0.0
                yield u  # the gain is |u|
                ua = u if u_max is None or -u_max <= u <= u_max else u_max if u > 0.0 else -u_max
                s = s + h * (ua + dk)
        else:  # TBG: the relay on e = s - z, shifted by the feedforward w
            for dk, z, w in zip(clean, *tbg):
                e = s - z
                g = gain(e) if e > 0.0 else gain(-e) if e < 0.0 else gain(abs(e))
                u = w - (g if e > 0.0 else -g if e < 0.0 else g * 0.0)  # uncapped: cap is inf
                yield u
                yield g
                ua = u if u_max is None or -u_max <= u <= u_max else u_max if u > 0.0 else -u_max
                s = s + h * (ua + dk)

    # a class-Kinf law's gain raises on no magnitude, so only the reference loop can end early
    ug = np.fromiter(steps(), float, -1 if law is None else m if relay else 2 * m)
    u, g = (ug, np.abs(ug)) if relay else (ug[0::2], ug[1::2])
    k = len(u)  # the steps taken: m, unless step k's control raised
    drec = dcol[:k]
    ua = u.copy() if u_max is None else np.minimum(np.maximum(u, -u_max), u_max)
    s = np.empty(k + 1)  # s_0..s_k, summed as the loop sums them
    s[0], inc = cfg.s0, s[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as Python's floats
        np.add(ua, drec, out=inc)
        inc *= h
        np.add.accumulate(s, out=s)

    def record(j: int) -> Trajectory:
        return Trajectory(np.arange(j) * h, s[:j], u[:j], ua[:j], g[:j], drec[:j].copy())

    # a divergence up to step k's state comes first: the first non-finite
    # state or control of steps 0..k-1, else step k's state, if k is a step.
    # A non-finite state stays non-finite, and so does the state after an
    # unclamped non-finite u: a finite s_k alone rules both out
    if not (math.isfinite(s[k]) and (u_max is None or np.isfinite(u).all())):
        ok = np.isfinite(s[:k])
        ok &= np.isfinite(u)
        j = k if ok.all() else int(ok.argmin())
        if j < k or (k <= n and not math.isfinite(s[k])):
            what = "state" if not math.isfinite(s[j]) else "control"
            raise SimulationDiverged(f"{what} non-finite at t = {j * h:g}", j * h, record(j))
    if raised:
        if not isinstance(raised[0], BarrierPoleError):
            raise raised[0]
        raise SimulationDiverged(f"controller pole at t = {k * h:g}: {raised[0]}", k * h,
                                 record(k)) from raised[0]
    if m <= n:  # step m is outside a custom table, or its |d| exceeds d_bar
        tk = m * h
        dk = d.signal(tk)  # raises where the column stopped
        raise DisturbanceBoundError(
            f"|d({tk:g})| = {abs(dk):g} exceeds declared d_bar = {d.d_bar:g}"
        )
    return record(n + 1)
