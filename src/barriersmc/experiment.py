"""Declarative experiment configs, batch runner, parameter sweeps, and
columnar plot-data emission.

Config format: INI sections, one experiment per section, read by a strict
reader of our own. A line is blank, a full-line comment whose first
non-blank character is `#` or `;`, a `[name]` header (the name is taken
verbatim between the brackets; nothing may follow the `]`), or a
`key = value` line, split at the first `=`, with the key and the value
stripped of surrounding blanks. Anything else is a ConfigError that names
`source:line`: a `key: value` line, an indented continuation line, a
`[DEFAULT]` section, a header followed by text, an empty header, a key
before any section, and a duplicate section or key; so is a file that
does not decode as text. The schema is strict too: unknown keys and
missing required keys are rejected with the section and field named, so a
typo fails loudly instead of silently simulating the wrong controller.
Numeric fields are plain floats (scientific notation accepted); booleans
are true/false. One schema table, below, drives both `loads_config` and
`dumps_config`.

Section keys
------------
controller   kinfty | saturated | obeid | tbg | fixed_sign
  kinfty:     law (concave|convex), rho, lam
  saturated:  law, rho, lam, k_max
  obeid:      epsilon, k_bar
  tbg:        law, rho, lam, t_f, delta
  fixed_sign: k
disturbance  piecewise_vii | sin_two | sinusoid | custom
  sin_two:    alias for sinusoid with amplitude 2, omega 1, phase_rad 0;
              `dumps_config` writes it back as that sinusoid
  sinusoid:   amplitude, omega, phase_rad; omega*t + phase_rad must stay
              finite up to the last sample time, n_steps * h
  custom:     table_t, table_d (comma-separated floats); the table must
              cover every sample time, [0, n_steps * h], and its values
              must stay within d_bar
d_bar        declared disturbance bound (required)
s0, h, t_end plant initial condition, step, horizon (required)
u_max        optional actuator limit on |u|
sigma_target optional band radius for convergence analysis
chatter_t0, chatter_t1   optional chattering window (both or neither)
expect_t_conv_max, expect_sigma_max, expect_gain_max_post,
expect_final_inside, expect_escapes_all_reenter,
expect_no_reentry_after_last_escape   optional declared expectations

A simulation that diverges or whose disturbance exceeds d_bar does not
raise out of `run_experiment`: it becomes an `error` row of the summary.

Work split over the CPUs
------------------------
Four loops run through `_fork_map`, which splits its items into one
contiguous share per CPU in the process's affinity mask, computes the
first share itself and each other one in a forked child that pickles its
results back: `run_batch` over its experiments, `_write_columns` over
blocks of rows, `emit_plot_data` over its trajectory files and `sweep`
over its grid points. None of them runs inside another. A share under
_FORK_MIN_SAMPLES samples stays in this process, and so does everything
on a platform without `os.fork`. The results, and so every output byte,
are those of the serial loop, and an error is the first one in item
order, as the serial loop raises it. `taskset -c 0` runs everything in
one process.

Trajectory CSV
--------------
`write_trajectory_csv` writes the header line
`t,s,u_commanded,u_applied,gain,d`, then one row per sample of exactly 6
`%.17g` fields, which round-trip every double bit for bit; `emit_plot_data`
writes its figure columns in the same number format. `read_trajectory_csv`
accepts only that form: a wrong header, no data rows, a blank or `#` line,
a row of another field count or a field that is not a number, in any
column, is a ConfigError that names the first bad line by its 1-based
number in the file (the header is line 1), so `barriersmc plot` exits 2
on a malformed file.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from barriersmc import analysis
from barriersmc.controllers import (
    Controller,
    ControllerSpec,
    FixedSign,
    KInfty,
    ObeidTwoPhase,
    SaturatedKInfty,
    TbgIntegral,
    TbgParams,
)
from barriersmc.gains import (
    ConcaveParams,
    ConvexParams,
    PsbParams,
    ultimate_bound,
)
from barriersmc.simkernel import (
    CustomTable,
    DisturbanceBoundError,
    DisturbanceSpec,
    PiecewiseVII,
    SimConfig,
    Sinusoid,
    SimulationDiverged,
    Trajectory,
    n_steps,
    simulate,
)

FLOAT_FMT = "%.17g"  # round-trips doubles exactly

# `_fork_map` forks only when each share holds at least this many samples
# (Euler steps to simulate, or trajectory rows to format or parse): below
# it, the fork, the pipe and the pickled results cost more than the share
_FORK_MIN_SAMPLES = 5000
_WRITE_CHUNK_ROWS = 1000  # `_write_columns` formats rows in parts this long

TRAJECTORY_COLUMNS = ("t", "s", "u_commanded", "u_applied", "gain", "d")


class ConfigError(ValueError):
    """Config file failed to parse or validate; message names the spot."""


@dataclass(frozen=True)
class Expectations:
    """Declared pass/fail expectations; all optional."""

    t_conv_max: Optional[float] = None
    sigma_max: Optional[float] = None
    gain_max_post: Optional[float] = None
    final_inside: Optional[bool] = None
    escapes_all_reenter: Optional[bool] = None
    no_reentry_after_last_escape: Optional[bool] = None


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    controller: ControllerSpec
    disturbance: DisturbanceSpec
    sim: SimConfig
    sigma_target: Optional[float] = None
    chatter_window: Optional[Tuple[float, float]] = None
    expect: Expectations = field(default_factory=Expectations)

    def __post_init__(self) -> None:
        if self.sigma_target is not None and not self.sigma_target > 0:
            raise ValueError("sigma_target must be positive")
        if self.chatter_window is not None:
            t0, t1 = self.chatter_window
            if not 0.0 <= t0 < t1 <= self.sim.t_end:
                raise ValueError("chattering window must satisfy 0 <= t0 < t1 <= t_end")
        if self.expect != Expectations() and self.sigma_target is None:
            raise ValueError("declared expectations require sigma_target")
        signal = self.disturbance.signal
        # the last sample time, computed as simulate computes it
        t_last = n_steps(self.sim) * self.sim.h
        if isinstance(signal, CustomTable):
            if signal.times[0] > 0.0 or signal.times[-1] < t_last:
                raise ValueError(f"custom table does not cover the samples [0, {t_last!r}]")
        elif isinstance(signal, Sinusoid):
            # finite at t_last means finite at every earlier sample; sin(inf)
            # raises in the middle of a run
            if not math.isfinite(signal.omega * t_last + signal.phase):
                raise ValueError(f"sinusoid argument omega*t + phase overflows by "
                                 f"t = {t_last!r}")


# --- work split over the CPUs ---------------------------------------------

def _fork_map(fn, items, samples: int) -> list:
    """`[fn(x) for x in items]`, in item order, computed in contiguous
    shares of the items, one per CPU in this process's affinity mask: this
    process computes the first share, and a forked child each other one,
    which pickles its results, or its error, back through a pipe.

    Serial when the platform has no `os.fork` or `os.sched_getaffinity`,
    when one CPU is available, or when a share would cover fewer than
    _FORK_MIN_SAMPLES of the `samples` that all the items cover. Every
    child is reaped before this returns or raises, and the error raised is
    the one the serial loop raises: the first in item order. A child that
    ends without a complete result is a RuntimeError. `fn` must not call
    `_fork_map` itself.
    """
    items = list(items)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    shares = min(len(os.sched_getaffinity(0)) if can_fork else 1, len(items),
                 samples // _FORK_MIN_SAMPLES)
    if shares < 2:
        return [fn(x) for x in items]
    # rounded up, so the first share, which is not pickled, is the largest
    cuts = [-(-len(items) * i // shares) for i in range(shares + 1)]
    children = []  # (pid, read end of its pipe)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve_share(fn, items[lo:hi], w)  # never returns
            os.close(w)  # so that the read end sees EOF once the child exits
            children.append((pid, r))
        results = [fn(x) for x in items[:cuts[1]]]
    finally:  # every pipe read to EOF, every child reaped
        ends = []
        for pid, r in children:
            with os.fdopen(r, "rb") as pipe:
                ends.append((pid, pipe.read(), os.waitpid(pid, 0)[1]))
    for pid, data, status in ends:
        if status or not data:
            raise RuntimeError(f"worker {pid} ended without a result (wait status {status})")
        tag, value = pickle.loads(data)
        if tag == "err":
            raise value
        results += value
    return results


def _serve_share(fn, share: list, w: int) -> None:
    """In a child of `_fork_map`: pickle ("ok", results) or ("err", exc)
    for one share to the pipe's write end w, then exit the process without
    running atexit handlers or flushing the parent's buffers a second time."""
    try:
        try:
            out = ("ok", [fn(x) for x in share])
        except BaseException as exc:  # re-raised by the parent, in item order
            out = ("err", exc)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        os._exit(0)
    finally:  # reached only if the result could not be written
        os._exit(1)


# --- config schema ---------------------------------------------------------

class _Section:
    """The keys of one config section that are not read yet."""

    def __init__(self, name: str, items: Dict[str, str]):
        self.name = name
        self.items = items  # consumed: each key read is popped

    def take(self, key: str) -> str:
        try:
            return self.items.pop(key)
        except KeyError:
            raise ConfigError(f"[{self.name}] missing required key '{key}'") from None

    def take_float(self, key: str) -> float:
        return self._float(key, self.take(key))

    def take_opt_float(self, key: str) -> Optional[float]:
        raw = self.items.pop(key, None)
        return None if raw is None else self._float(key, raw)

    def take_opt_bool(self, key: str) -> Optional[bool]:
        raw = self.items.pop(key, None)
        if raw is None:
            return None
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ConfigError(f"[{self.name}] key '{key}': expected true/false, got {raw!r}")

    def _float(self, key: str, raw: str) -> float:
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] key '{key}': not a number: {raw!r}"
            ) from None
        if not math.isfinite(v):
            raise ConfigError(f"[{self.name}] key '{key}': must be finite, got {raw!r}")
        return v

    def take_float_list(self, key: str) -> Tuple[float, ...]:
        parts = self.take(key).split(",")
        try:  # float() ignores the blanks around each entry
            values = tuple(map(float, parts))
            if all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
        return tuple(self._float(key, part.strip()) for part in parts)  # names the bad entry


class _Key:
    """One config key: the `_Section` method that reads it and the function
    that writes its value back. A None value (an absent optional key) is not
    written."""

    def __init__(self, name, read=_Section.take_float, write=repr):
        self.name, self.read, self.write = name, read, write

    def parse(self, sec: _Section):
        return self.read(sec, self.name)

    def dump(self, value, out: List[str]) -> None:
        if value is not None:
            out.append(f"{self.name} = {self.write(value)}\n")


class _Record:
    """A dataclass and one schema node per field, in field order. A node is
    anything with `parse` and `dump`; a plain string stands for a `_Key`
    holding one float."""

    def __init__(self, cls, *keys):
        self.cls = cls
        keys = [_Key(k) if isinstance(k, str) else k for k in keys]
        self.keys = tuple(zip(keys, (f.name for f in fields(cls)), strict=True))

    def parse(self, sec: _Section):
        values = [key.parse(sec) for key, _ in self.keys]
        try:
            return self.cls(*values)
        except ValueError as exc:
            raise ConfigError(f"[{sec.name}] invalid {self.cls.__name__}: {exc}") from exc

    def dump(self, obj, out: List[str]) -> None:
        for key, name in self.keys:
            key.dump(getattr(obj, name), out)


class _Family:
    """Variants chosen by the value of one key: config name -> `_Record`,
    plus aliases, config names that stand for one fixed value."""

    def __init__(self, key: str, variants: Dict[str, _Record], aliases=None):
        self.key = key
        self.variants = variants
        self.aliases = aliases or {}
        self.by_class = {rec.cls: (f"{key} = {name}\n", rec) for name, rec in variants.items()}

    def parse(self, sec: _Section):
        name = sec.take(self.key)
        if name in self.aliases:
            return self.aliases[name]
        if name not in self.variants:
            raise ConfigError(f"[{sec.name}] unknown {self.key} '{name}' (expected one "
                              f"of {sorted([*self.variants, *self.aliases])})")
        return self.variants[name].parse(sec)

    def dump(self, obj, out: List[str]) -> None:
        line, rec = self.by_class[type(obj)]
        out.append(line)
        rec.dump(obj, out)


class _Window:
    """The optional chattering window: two keys, both or neither."""

    keys = (_Key("chatter_t0", _Section.take_opt_float),
            _Key("chatter_t1", _Section.take_opt_float))

    def parse(self, sec: _Section) -> Optional[Tuple[float, float]]:
        window = tuple(key.parse(sec) for key in self.keys)
        if window.count(None) == 1:
            t0, t1 = self.keys
            raise ConfigError(f"[{sec.name}] {t0.name} and {t1.name} must appear together")
        return None if window[0] is None else window

    def dump(self, window, out: List[str]) -> None:
        for key, t in zip(self.keys, window or ()):
            key.dump(t, out)


class _SectionName:
    """ExperimentSpec.name: the section header, not a key."""

    def parse(self, sec: _Section) -> str:
        return sec.name

    def dump(self, name: str, out: List[str]) -> None:
        out.append(f"[{name}]\n")


_LAW = _Family("law", {name: _Record(cls, "rho", "lam") for name, cls in
                       (("concave", ConcaveParams), ("convex", ConvexParams))})
_FLOAT_LIST = (_Section.take_float_list, lambda values: ", ".join(map(repr, values)))
_SPEC = _Record(
    ExperimentSpec,
    _SectionName(),
    _Family("controller", {
        "kinfty": _Record(KInfty, _LAW),
        "saturated": _Record(SaturatedKInfty, _LAW, "k_max"),
        "obeid": _Record(ObeidTwoPhase, _Record(PsbParams, "epsilon", "k_bar")),
        "tbg": _Record(TbgIntegral, _LAW, _Record(TbgParams, "t_f", "delta")),
        "fixed_sign": _Record(FixedSign, "k"),
    }),
    _Record(DisturbanceSpec, _Family("disturbance", {
        "piecewise_vii": _Record(PiecewiseVII),
        "sinusoid": _Record(Sinusoid, "amplitude", "omega", "phase_rad"),
        "custom": _Record(CustomTable, _Key("table_t", *_FLOAT_LIST),
                          _Key("table_d", *_FLOAT_LIST)),
    }, aliases={"sin_two": Sinusoid(2.0, 1.0, 0.0)}), "d_bar"),
    _Record(SimConfig, "s0", "h", "t_end", _Key("u_max", _Section.take_opt_float)),
    _Key("sigma_target", _Section.take_opt_float),
    _Window(),
    _Record(Expectations, *(
        [_Key(k, _Section.take_opt_float) for k in (
            "expect_t_conv_max", "expect_sigma_max", "expect_gain_max_post")]
        + [_Key(k, _Section.take_opt_bool, lambda v: "true" if v else "false")
           for k in ("expect_final_inside", "expect_escapes_all_reenter",
                     "expect_no_reentry_after_last_escape")])),
)


# --- config reading and writing --------------------------------------------

def _parse_section(name: str, items: Dict[str, str]) -> ExperimentSpec:
    sec = _Section(name, items)
    spec = _SPEC.parse(sec)
    if sec.items:
        raise ConfigError(f"[{name}] unknown keys: {', '.join(sorted(sec.items))}")
    return spec


def _read_ini(text: str, source: str) -> Dict[str, Dict[str, str]]:
    """Split config text into {section: {key: value}} by the grammar in the
    module docstring; any other line is a ConfigError naming source:line."""
    sections: Dict[str, Dict[str, str]] = {}
    items = None
    for n, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            why = "indented line (continuation lines are not supported)"
        elif stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name:
                why = "a section header is [name] alone on its line"
            elif name == "DEFAULT":
                why = "[DEFAULT] sections are not supported"
            elif name in sections:
                why = f"duplicate section [{name}]"
            else:
                items = sections[name] = {}
                continue
        else:
            key, eq, value = stripped.partition("=")
            key = key.rstrip()
            if not eq or not key or ":" in key:
                why = "expected 'key = value'"
            elif items is None:
                why = f"key '{key}' before any section header"
            elif key in items:
                why = f"duplicate key '{key}'"
            else:
                items[key] = value.strip()
                continue
        raise ConfigError(f"{source}:{n}: {why}")
    return sections


def loads_config(text: str, source: str = "<string>") -> List[ExperimentSpec]:
    sections = _read_ini(text, source)
    if not sections:
        raise ConfigError(f"{source}: no experiment sections found")
    return [_parse_section(name, items) for name, items in sections.items()]


def load_config(path) -> List[ExperimentSpec]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return loads_config(text, source=str(path))


def _check_unique_names(specs: Sequence[ExperimentSpec]) -> None:
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("experiment names must be unique within a batch")


def check_output_names(specs: Sequence[ExperimentSpec]) -> None:
    """Reject a name whose `<name>.csv` would leave the output directory,
    clash with `summary.csv` or a `fig_*.csv` that `plot` writes there, or
    hold a NUL, which no file name can."""
    for name in (s.name for s in specs):
        if name in (".", "..", "summary") or name.startswith("fig_") or set("/\\\0") & set(name):
            raise ConfigError(f"[{name}] cannot name an output file: no path separator, "
                              "NUL, '.', '..', 'summary' or 'fig_' prefix")


def dumps_config(specs: Sequence[ExperimentSpec]) -> str:
    _check_unique_names(specs)
    out: List[str] = []
    for spec in specs:
        _SPEC.dump(spec, out)
        out.append("\n")
    return "".join(out)


# --- trajectory CSV --------------------------------------------------------

def _write_columns(path, header: Sequence[str], cols: Sequence[np.ndarray]) -> None:
    """Write equal-length float columns as CSV, every value as FLOAT_FMT."""
    row = ",".join([FLOAT_FMT] * len(cols)) + "\n"

    def rows(lo: int) -> str:
        part = [c[lo:lo + _WRITE_CHUNK_ROWS].tolist() for c in cols]
        return "".join(map(row.__mod__, zip(*part)))

    parts = _fork_map(rows, range(0, len(cols[0]), _WRITE_CHUNK_ROWS), len(cols[0]))
    Path(path).write_text(",".join(header) + "\n" + "".join(parts))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    _write_columns(path, TRAJECTORY_COLUMNS, [getattr(traj, c) for c in TRAJECTORY_COLUMNS])


def _first_bad_line(lines: List[str], width: int) -> str:
    """Name the first data line the strict parse rejects, as `line N: ...`
    with N the 1-based file line (the header is line 1). Runs on the error
    path only."""
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",") if line else []
        if len(fields) != width:
            return f"line {n}: {len(fields)} fields, expected {width}"
        for col, value in enumerate(fields):
            try:  # the parser that rejected the file, one field at a time
                np.loadtxt([line], delimiter=",", comments=None, usecols=col)
            except ValueError:
                return f"line {n}: {TRAJECTORY_COLUMNS[col]} is not a number: {value!r}"
    return "data rows do not parse as numbers"


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a bare trajectory (no simulation metadata) from a CSV in the
    format `write_trajectory_csv` writes; any other file is a ConfigError."""
    header, width = ",".join(TRAJECTORY_COLUMNS), len(TRAJECTORY_COLUMNS)
    try:  # ConfigError and UnicodeDecodeError are ValueErrors: both get the path
        lines = Path(path).read_text().splitlines()
        if len(lines) < 2 or lines[0] != header:
            raise ConfigError(f"not a trajectory CSV: needs the header {header}, "
                              "then data rows")
        data = None
        if "" not in lines:  # loadtxt would skip a blank line
            try:  # with comments=None a '#' line is a bad number
                data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, skiprows=1)
            except ValueError:
                pass
        if data is None or data.shape[1] != width:
            raise ConfigError(_first_bad_line(lines, width))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return Trajectory(*data.T)


# --- batch execution -------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    trajectory: Optional[Trajectory]
    report: Optional[analysis.ConvergenceReport]
    gain_max_post: Optional[float]
    chatter: Optional[analysis.ChatteringReport]
    failures: Tuple[str, ...]
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None and not self.failures


@dataclass(frozen=True)
class BatchSummary:
    results: Tuple[ExperimentResult, ...]

    @property
    def any_failed(self) -> bool:
        return any(r.failures for r in self.results)

    @property
    def any_diverged(self) -> bool:
        return any(r.error is not None for r in self.results)


def _check_expectations(spec: ExperimentSpec, traj: Trajectory,
                        report: Optional[analysis.ConvergenceReport],
                        gain_max_post: Optional[float]) -> Tuple[str, ...]:
    e = spec.expect
    failures = []

    def fail(msg):
        failures.append(msg)

    if e.t_conv_max is not None:
        if report.t_conv is None:
            fail("expect_t_conv_max: no convergence")
        elif report.t_conv > e.t_conv_max:
            fail(f"expect_t_conv_max: {report.t_conv:g} > {e.t_conv_max:g}")
    if e.sigma_max is not None:
        if report.t_conv is None:
            fail("expect_sigma_max: no convergence")
        elif report.sigma_measured > e.sigma_max:
            fail(f"expect_sigma_max: {report.sigma_measured:g} > {e.sigma_max:g}")
    if e.gain_max_post is not None:
        if gain_max_post is None:
            fail("expect_gain_max_post: no post-convergence window")
        elif gain_max_post > e.gain_max_post:
            fail(f"expect_gain_max_post: {gain_max_post:g} > {e.gain_max_post:g}")
    if e.final_inside is not None:
        inside = abs(float(traj.s[-1])) <= spec.sigma_target
        if inside != e.final_inside:
            fail(f"expect_final_inside: final |s| = {abs(float(traj.s[-1])):g}")
    if e.escapes_all_reenter:
        if any(reentry is None for _, reentry in report.escapes):
            fail("expect_escapes_all_reenter: open escape found")
    if e.no_reentry_after_last_escape:
        if report.t_conv is not None or not report.escapes:
            fail("expect_no_reentry_after_last_escape: no terminal escape")
        elif report.escapes[-1][1] is not None:
            fail("expect_no_reentry_after_last_escape: last escape reentered")
    return tuple(failures)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Simulate one spec and evaluate its analysis requests. A divergence
    or a disturbance-bound violation is returned as the result's error; a
    chattering window that holds fewer than two samples gives no total
    variation."""
    try:
        traj = simulate(Controller(spec.controller), spec.disturbance, spec.sim)
    except (SimulationDiverged, DisturbanceBoundError) as exc:
        # only a divergence carries a partial trajectory
        return ExperimentResult(spec, getattr(exc, "trajectory", None), None, None,
                                None, (), error=str(exc))
    report = None
    gain_max_post = None
    if spec.sigma_target is not None:
        report = analysis.convergence_time(traj, spec.sigma_target)
        if report.t_conv is not None:
            peak = analysis.settled_peak_gain(traj, report.t_conv)
            gain_max_post = None if peak is None else peak[1]
    t0, t1 = spec.chatter_window or analysis.default_chatter_window(traj)
    try:  # over the samples in [t0, t1], the last of which may lie before t1
        chatter = analysis.total_variation(traj, (t0, min(t1, float(traj.t[-1]))))
    except ValueError:  # fewer than two samples in the window: no total variation
        chatter = None
    failures = _check_expectations(spec, traj, report, gain_max_post)
    return ExperimentResult(spec, traj, report, gain_max_post, chatter, failures)


def _fmt_opt(v: Optional[float]) -> str:
    return "" if v is None else FLOAT_FMT % v


def summary_csv(summary: BatchSummary) -> str:
    lines = ["name,t_conv,sigma_target,sigma_measured,gain_max_post,"
             "total_variation,status,detail"]
    for r in summary.results:
        rep = r.report
        status = "error" if r.error else ("fail" if r.failures else "pass")
        detail = r.error if r.error else ";".join(r.failures)
        lines.append(",".join([
            r.spec.name,
            _fmt_opt(rep.t_conv if rep else None),
            _fmt_opt(rep.sigma_target if rep else None),
            _fmt_opt(rep.sigma_measured if rep else None),
            _fmt_opt(r.gain_max_post),
            _fmt_opt(r.chatter.total_variation if r.chatter else None),
            status,
            (detail or "").replace(",", ";"),
        ]))
    return "\n".join(lines) + "\n"


def run_batch(specs: Sequence[ExperimentSpec], out_dir) -> BatchSummary:
    """Run every spec, write per-experiment trajectory CSVs plus one
    summary.csv, and return the summary. Rerunning a batch overwrites the
    outputs with identical content. A name `check_output_names` rejects is
    a ConfigError raised before anything is written."""
    _check_unique_names(specs)
    check_output_names(specs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _fork_map(run_experiment, specs, sum(n_steps(s.sim) + 1 for s in specs))
    for r in results:
        if r.trajectory is not None:
            write_trajectory_csv(r.trajectory, out_dir / f"{r.spec.name}.csv")
    summary = BatchSummary(tuple(results))
    (out_dir / "summary.csv").write_text(summary_csv(summary))
    return summary


# --- parameter sweep -------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    rho: float
    lam: float
    bound: float
    peak_u: float
    t_conv: Optional[float]
    feasible: bool


def sweep(base: ExperimentSpec, grid: Sequence[Tuple[float, float]],
          target_sigma: float, u_budget: float) -> List[SweepRow]:
    """Evaluate (rho, lam) grid points on the base experiment: predicted
    ultimate bound, peak |u|, convergence time into the target band.
    Feasible points (bound <= target and peak within budget) rank first,
    ordered by convergence time. A non-finite target or budget, or a grid
    point with no valid law or no finite bound, is a ConfigError that names
    it, raised before anything is simulated."""
    if not grid:
        raise ConfigError("sweep grid is empty")
    for name, value in (("target", target_sigma), ("budget", u_budget)):
        if not math.isfinite(value):
            raise ConfigError(f"sweep {name} must be finite, got {value!r}")
    base_law = getattr(base.controller, "law", None)
    if base_law is None:
        raise ConfigError(
            f"controller {type(base.controller).__name__} has no gain law to sweep")
    points = []  # every point is checked before the first one is simulated
    for rho, lam in grid:
        try:
            law = type(base_law)(rho, lam)
            bound = ultimate_bound(law, base.disturbance.d_bar).sigma
        except ValueError as exc:  # GainRangeError included
            raise ConfigError(f"grid point rho={rho!r}, lam={lam!r}: {exc}") from None
        points.append((rho, lam, law, bound))
    s0, h, n = base.sim.s0, base.sim.h, n_steps(base.sim)  # shared by every point
    column, tbg = base.disturbance.sample(h, n), base.controller.tbg_columns(s0, h, n)

    def evaluate(point) -> SweepRow:
        rho, lam, law, bound = point
        ctrl = replace(base.controller, law=law)
        traj = simulate(Controller(ctrl), base.disturbance, base.sim, column, tbg)
        peak_u = float(np.abs(traj.u_applied).max())
        # a non-positive target admits no real sliding band at all
        t_conv = (analysis.convergence_time(traj, target_sigma).t_conv
                  if target_sigma > 0 else None)
        feasible = bound <= target_sigma and peak_u <= u_budget
        return SweepRow(rho, lam, bound, peak_u, t_conv, feasible)

    rows = _fork_map(evaluate, points, len(points) * (n + 1))
    rows.sort(key=lambda r: (not r.feasible,
                             math.inf if r.t_conv is None else r.t_conv))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["rho,lam,bound,peak_u,t_conv,feasible"]
    for r in rows:
        lines.append(",".join([
            FLOAT_FMT % r.rho, FLOAT_FMT % r.lam, FLOAT_FMT % r.bound,
            FLOAT_FMT % r.peak_u, _fmt_opt(r.t_conv),
            "true" if r.feasible else "false",
        ]))
    return "\n".join(lines) + "\n"


# --- plot data -------------------------------------------------------------

FIGURE_SIGNALS = {
    "sliding": ("s",),
    "gains": ("gain",),
    "inputs": ("u_applied",),
    "escape": ("s", "u_applied"),
}


def emit_plot_data(traj_files: Sequence, figure: str, out_path) -> None:
    """Write aligned columnar data (t plus one column per experiment and
    signal) for a figure id. Trajectories must share the exact time grid;
    no resampling is attempted. The escape overlay also appends the shared
    disturbance column."""
    if figure not in FIGURE_SIGNALS:
        raise ConfigError(
            f"unknown figure '{figure}' (expected one of {sorted(FIGURE_SIGNALS)})"
        )
    files = sorted(Path(f) for f in traj_files)
    if not files:
        raise ConfigError("no trajectory files given")
    # a trajectory CSV row takes ~120 bytes: the file sizes estimate the rows
    rows = sum(f.stat().st_size for f in files if f.is_file()) // 120
    trajs = list(zip((f.stem for f in files), _fork_map(read_trajectory_csv, files, rows)))
    first = trajs[0][1]
    for name, traj in trajs[1:]:
        if not np.array_equal(traj.t, first.t):
            raise ConfigError(f"time grid of '{name}' does not match; no resampling")
        if figure == "escape" and not np.array_equal(traj.d, first.d):
            raise ConfigError("escape overlay requires a shared disturbance")

    short = {"s": "s", "gain": "gain", "u_applied": "u"}
    header = ["t"]
    cols = [first.t]
    for signal in FIGURE_SIGNALS[figure]:
        for name, traj in trajs:
            header.append(f"{short[signal]}_{name}")
            cols.append(getattr(traj, signal))
    if figure == "escape":
        header.append("d")
        cols.append(first.d)
    _write_columns(out_path, header, cols)
