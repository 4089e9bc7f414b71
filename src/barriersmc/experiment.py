"""Declarative experiment configs, batch runner, parameter sweeps, and
columnar plot-data emission.

Config format: INI sections, one experiment per section, read by a strict
reader of our own. A line ends at "\n" alone, in a file as in a string,
and a "\r" before it is stripped as a blank. A line is blank, a full-line
comment whose first non-blank character is `#` or `;`, a `[name]` header
(the name is taken verbatim between the brackets; nothing may follow the
`]`), or a `key = value` line, split at the first `=`, with the key and
the value stripped of surrounding blanks. Anything else is a ConfigError
that names `source:line`: a `key: value` line, an indented continuation
line, a `[DEFAULT]` section, a header followed by text, an empty header, a
key before any section, and a duplicate section or key; so is a file that
does not decode as text. The schema is strict too: unknown keys and
missing required keys are rejected with the section and field named, so a
typo fails loudly instead of silently simulating the wrong controller.
Numeric fields are plain finite floats (scientific notation accepted);
booleans are true/false. One schema table, below, drives both
`loads_config` and `dumps_config`. Each value goes through one converter,
`_number`, `_numbers` (a comma-separated list) or `_truth`, and `_Key`
turns a converter's ValueError into `[section] key 'name': <message>`, so
a new value type is one converter.

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
  sinusoid:   amplitude, omega, phase_rad
  custom:     table_t, table_d (comma-separated floats); the values must
              stay within d_bar, and their range times the table's time
              span must be finite
  every signal must be sampleable at each sample time, 0 to n_steps * h
  (`DisturbanceSpec.check_samples`): a table must cover them, and the
  argument of a sin or cos must stay finite
d_bar        declared disturbance bound (required)
s0, h, t_end plant initial condition, step, horizon (required); the last
             sample time, n_steps * h, must be finite
u_max        optional actuator limit on |u|
sigma_target optional band radius for convergence analysis
chatter_t0, chatter_t1   optional chattering window (both or neither)
expect_t_conv_max, expect_sigma_max, expect_gain_max_post,
expect_final_inside, expect_escapes_all_reenter,
expect_no_reentry_after_last_escape   optional declared expectations

numpy is imported inside the functions that make or read arrays (the
trajectory CSV and plot-data code), and `pickle` inside `_fork_map`, so
that loading and checking a config, as `barriersmc validate` does,
loads neither.

`run_experiment` is the one code path that simulates and evaluates an
experiment: `run_batch` calls it once per spec, and `sweep` once per grid
point. A simulation that diverges or whose disturbance exceeds d_bar does
not raise out of it: it becomes the `error` of the `ExperimentResult`, and
a `sweep` point with an error is an infeasible `SweepRow` that carries it.

Work split over the CPUs
------------------------
Only `sweep` forks, through `_fork_map`, because each of its grid points
returns one small row: the experiments of `run_batch` and the files of
`emit_plot_data` give whole trajectories, and the copy-on-write faults on
the pages written after a fork cost as much as a forked share saves.

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
on a malformed file. A line ends at "\n" or "\r\n" alone.

Both writers build their rows from column text that one function makes,
`_texts`: it cuts each float column into chunks of _CHUNK_ROWS values,
keys each chunk by the sha256 of its float64 bytes and formats each
distinct chunk once, so equal chunks share one text object. A chunk's
text is a run of fixed-width fields, each value's `%.17g` text padded
with spaces to `fieldtext.WIDTH` (24) bytes, the longest that text is for
any double. `fieldtext.fields` makes those bytes at array speed,
_SLAB_CHUNKS chunks a call: each value's 17 digits come from a longdouble
product that is exact but for near-ties, which go through `%` with
zeros, infinities and NaNs (about 3% of a replay's values). A writer
copies the fields of a chunk of rows into one uint8 array, a separator
after each field (`,`, or `\n` after the last column), drops the padding
with one mask and writes the bytes in binary mode, the header in the
encoding text mode would use: no Python object per value.

`run_batch` calls `_texts` once over every column it writes: within a
batch, `t` and a shared `d` are the same bytes in every experiment. Its
record, `_WRITTEN`, maps the sha256 of each trajectory CSV it wrote to
the text of that file's figure columns (FIGURE_COLUMNS). Each batch
clears it first, so it holds one batch: 24 bytes of text per distinct
value, and no floats. `emit_plot_data` looks each file up by its sha256
and parses the misses: a file edited since, or one that cannot be read,
is parsed and fails as before. A hit gives the text that a parse and a
format would, since `%.17g` round-trips every double. The grid and
disturbance checks take equal text as equal values, and otherwise
compare floats, read back from the text where needed. Only the parsed
columns go through `_texts`, and the record gains nothing. While it is
empty, as in a fresh `barriersmc plot` process, no file is hashed.
"""

from __future__ import annotations

import locale
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

# `_fork_map` forks only when each share holds at least this many Euler
# steps: below it, the fork, the pipe and the pickled results cost more
# than the share (two sweep grid points, serial against forked, 2-vCPU host)
_FORK_MIN_STEPS = 10000
_CHUNK_ROWS = 1000  # values per chunk of column text, and rows per write
_SLAB_CHUNKS = 8  # chunks per `fieldtext.fields` call: ~75 bytes of arrays a value

TRAJECTORY_COLUMNS = ("t", "s", "u_commanded", "u_applied", "gain", "d")
FIGURE_COLUMNS = ("t", "s", "gain", "u_applied", "d")  # what a figure can chart


# The record of the last `run_batch` of this process (see the module
# docstring): the sha256 of each trajectory CSV it wrote -> the `_texts`
# text of that file's figure columns, by column name.
_WRITTEN: Dict[bytes, Dict[str, Tuple[bytearray, ...]]] = {}


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


_NO_EXPECTATIONS = Expectations()


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
        if self.sigma_target is None and self.expect != _NO_EXPECTATIONS:
            raise ValueError("declared expectations require sigma_target")
        self.disturbance.check_samples(self.sim.h, n_steps(self.sim))


# --- work split over the CPUs ---------------------------------------------

def _fork_map(fn, items, steps: int) -> list:
    """`[fn(x) for x in items]`, in item order, computed in contiguous
    shares of the items, one per CPU in this process's affinity mask: this
    process computes the first share, and a forked child each other one,
    which pickles its results, or its error, back through a pipe.

    Serial when the platform has no `os.fork` or `os.sched_getaffinity`,
    when one CPU is available, or when a share would cover fewer than
    _FORK_MIN_STEPS of the Euler `steps` that all the items take. Every
    child is reaped before this returns or raises, and the error raised is
    the one the serial loop raises: the first in item order. A child that
    ends without a complete result is a RuntimeError. `fn` must not call
    `_fork_map` itself.
    """
    import pickle  # here: a command that forks nothing does not load it
    items = list(items)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    shares = min(len(os.sched_getaffinity(0)) if can_fork else 1, len(items),
                 steps // _FORK_MIN_STEPS)
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
                try:  # as it arrives: the pickled bytes are never held whole
                    out = pickle.load(pipe)
                except Exception as exc:  # raised below, once every child is reaped
                    out = exc
                pipe.read()
                ends.append((pid, out, os.waitpid(pid, 0)[1]))
    for pid, out, status in ends:
        if status or isinstance(out, EOFError):  # EOFError: the child wrote nothing
            raise RuntimeError(f"worker {pid} ended without a result (wait status {status})")
        if isinstance(out, Exception):
            raise out
        tag, value = out
        if tag == "err":
            raise value
        results += value
    return results


def _serve_share(fn, share: list, w: int) -> None:
    """In a child of `_fork_map`: pickle ("ok", results) or ("err", exc)
    for one share to the pipe's write end w, then exit the process without
    running atexit handlers or flushing the parent's buffers a second time."""
    import pickle  # loaded already by `_fork_map`, the caller
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

def _number(raw: str) -> float:
    """A finite float, in any form `float` accepts."""
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw!r}")
    return v


def _numbers(raw: str) -> Tuple[float, ...]:
    """Comma-separated finite floats; an error names the first bad entry."""
    parts = raw.split(",")
    try:  # float() ignores the blanks around each entry
        values = tuple(map(float, parts))
        if math.isfinite(sum(values)):  # no inf or nan; an overflow reads below
            return values
    except ValueError:
        pass
    return tuple(_number(part.strip()) for part in parts)  # names the bad entry


def _truth(raw: str) -> bool:
    """true or false, in any letter case."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


class _Key:
    """One config key: the converter that reads its text, which raises
    ValueError with the tail of the message, and the function that writes
    its value back. `parse(sec, items)` pops the key from the items of
    section `sec` and builds every per-key ConfigError. An absent optional
    key reads as None, and a None value is not written."""

    def __init__(self, name, read=_number, write=repr, optional=False):
        self.name, self.read, self.write, self.optional = name, read, write, optional

    def parse(self, sec: str, items: Dict[str, str]):
        raw = items.pop(self.name, None)
        if raw is None:
            if self.optional:
                return None
            raise ConfigError(f"[{sec}] missing required key '{self.name}'")
        try:
            return self.read(raw)
        except ValueError as exc:
            raise ConfigError(f"[{sec}] key '{self.name}': {exc}") from None

    def dump(self, value, out: List[str]) -> None:
        if value is not None:
            out.append(f"{self.name} = {self.write(value)}\n")


class _Record:
    """A dataclass and one schema node per field, in field order. A node is
    anything with `parse(sec, items)` and `dump`; a plain string stands for
    a required `_Key` holding one float."""

    def __init__(self, cls, *keys):
        self.cls = cls
        keys = [_Key(k) if isinstance(k, str) else k for k in keys]
        self.keys = tuple(zip(keys, (f.name for f in fields(cls)), strict=True))

    def parse(self, sec: str, items: Dict[str, str]):
        values = [key.parse(sec, items) for key, _ in self.keys]
        try:
            return self.cls(*values)
        except ValueError as exc:
            raise ConfigError(f"[{sec}] invalid {self.cls.__name__}: {exc}") from exc

    def dump(self, obj, out: List[str]) -> None:
        for key, name in self.keys:
            key.dump(getattr(obj, name), out)


class _Family:
    """Variants chosen by the value of one key: config name -> `_Record`,
    plus aliases, config names that stand for one fixed value."""

    def __init__(self, key: str, variants: Dict[str, _Record], aliases=None):
        self.key, self.selector = key, _Key(key, str)
        self.variants = variants
        self.aliases = aliases or {}
        self.by_class = {rec.cls: (f"{key} = {name}\n", rec) for name, rec in variants.items()}

    def parse(self, sec: str, items: Dict[str, str]):
        name = self.selector.parse(sec, items)
        if name in self.aliases:
            return self.aliases[name]
        if name not in self.variants:
            raise ConfigError(f"[{sec}] unknown {self.key} '{name}' (expected one "
                              f"of {sorted([*self.variants, *self.aliases])})")
        return self.variants[name].parse(sec, items)

    def dump(self, obj, out: List[str]) -> None:
        line, rec = self.by_class[type(obj)]
        out.append(line)
        rec.dump(obj, out)


class _Window:
    """The optional chattering window: two keys, both or neither."""

    keys = (_Key("chatter_t0", optional=True), _Key("chatter_t1", optional=True))

    def parse(self, sec: str, items: Dict[str, str]) -> Optional[Tuple[float, float]]:
        window = tuple(key.parse(sec, items) for key in self.keys)
        if window.count(None) == 1:
            t0, t1 = self.keys
            raise ConfigError(f"[{sec}] {t0.name} and {t1.name} must appear together")
        return None if window[0] is None else window

    def dump(self, window, out: List[str]) -> None:
        for key, t in zip(self.keys, window or ()):
            key.dump(t, out)


class _Header:
    """ExperimentSpec.name: the section header, not a key."""

    def parse(self, sec: str, items: Dict[str, str]) -> str:
        return sec

    def dump(self, name: str, out: List[str]) -> None:
        out.append(f"[{name}]\n")


_LAW = _Family("law", {name: _Record(cls, "rho", "lam") for name, cls in
                       (("concave", ConcaveParams), ("convex", ConvexParams))})
_FLOAT_LIST = (_numbers, lambda values: ", ".join(map(repr, values)))
_SPEC = _Record(
    ExperimentSpec,
    _Header(),
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
    _Record(SimConfig, "s0", "h", "t_end", _Key("u_max", optional=True)),
    _Key("sigma_target", optional=True),
    _Window(),
    _Record(Expectations, *(
        [_Key(k, optional=True) for k in (
            "expect_t_conv_max", "expect_sigma_max", "expect_gain_max_post")]
        + [_Key(k, _truth, lambda v: "true" if v else "false", optional=True)
           for k in ("expect_final_inside", "expect_escapes_all_reenter",
                     "expect_no_reentry_after_last_escape")])),
)


# --- config reading and writing --------------------------------------------

def _parse_section(name: str, items: Dict[str, str]) -> ExperimentSpec:
    spec = _SPEC.parse(name, items)  # pops every key it reads
    if items:
        raise ConfigError(f"[{name}] unknown keys: {', '.join(sorted(items))}")
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
    try:  # newline="": a line ends at "\n" alone, as `loads_config` splits it
        with open(path, newline="") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return loads_config(text, source=str(path))


def _check_unique_names(specs: Sequence[ExperimentSpec]) -> None:
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("experiment names must be unique within a batch")


# An experiment's name is a field of `summary.csv` and, through its file's
# stem, a column of a figure's header: any of these would split it.
_FIELD_BREAKS = frozenset(",\n\r")


def _one_line(name) -> str:
    """`name` with repr's backslash escapes, so a message that shows it is
    one line."""
    return repr(str(name))[1:-1]


def check_output_names(specs: Sequence[ExperimentSpec]) -> None:
    """Reject a name that is empty (`.csv` is a hidden file, and `[]` no
    header), whose `<name>.csv` would leave the output directory, clash
    with `summary.csv` or a `fig_*.csv` that `plot` writes there, hold a
    NUL, which no file name can, hold a comma or a line break,
    which would split its field of `summary.csv` and its column of a
    figure's header, exceed the 255 bytes of a file name, or hold a
    character that the file-system encoding cannot encode, such as a lone
    surrogate."""
    for name in (s.name for s in specs):
        try:
            fits = len(os.fsencode(name + ".csv")) <= 255
        except UnicodeEncodeError:  # no file name can hold it
            fits = False
        if (name in ("", ".", "..", "summary") or name.startswith("fig_")
                or set("/\\\0") & set(name) or _FIELD_BREAKS & set(name) or not fits):
            raise ConfigError(f"[{_one_line(name)}] cannot name an output file: no path "
                              "separator, NUL, comma, line break, empty, '.', '..', "
                              "'summary', 'fig_' prefix, unencodable character or over 251 bytes")


def dumps_config(specs: Sequence[ExperimentSpec]) -> str:
    _check_unique_names(specs)
    out: List[str] = []
    for spec in specs:
        _SPEC.dump(spec, out)
        out.append("\n")
    return "".join(out)


# --- trajectory CSV --------------------------------------------------------

def _texts(cols: Sequence[np.ndarray]) -> List[Tuple[bytearray, ...]]:
    """The text of each float column, as the `fieldtext.fields` text of its
    chunks of _CHUNK_ROWS values. A chunk is keyed by the sha256 of its
    float64 bytes, and each distinct one is formatted once, _SLAB_CHUNKS
    chunks to a `fieldtext.fields` call: equal chunks share one text."""
    import hashlib  # here: importing the package does not pay for it
    import numpy as np
    from barriersmc import fieldtext  # here: a process that formats nothing does not load it
    chunks, keys = {}, []  # key -> the values of each distinct chunk; each column's keys
    for col in cols:
        col = np.ascontiguousarray(col, dtype=np.float64)
        parts = [col[lo:lo + _CHUNK_ROWS] for lo in range(0, len(col), _CHUNK_ROWS)]
        keys.append([hashlib.sha256(part).digest() for part in parts])
        chunks.update(zip(keys[-1], parts))
    jobs = list(chunks.items())
    # each chunk's text is allocated before the arrays that format it, so
    # that those, once freed, leave no holes between long-lived texts: the
    # replay's peak RSS reads ~0.5 MB lower than with the text made after
    text = {k: bytearray(len(part) * fieldtext.WIDTH) for k, part in jobs}
    for s in range(0, len(jobs), _SLAB_CHUNKS):
        slab = jobs[s:s + _SLAB_CHUNKS]
        rows, lo = fieldtext.fields(np.concatenate([part for _, part in slab])), 0
        for k, part in slab:
            text[k][:] = memoryview(rows[lo:lo + len(part)].reshape(-1))
            lo += len(part)
    return [tuple(text[k] for k in column_keys) for column_keys in keys]


def _floats(col) -> np.ndarray:
    """A column given as a float array or as the text of its chunks."""
    if not isinstance(col, tuple):
        return col
    import numpy as np
    from barriersmc.fieldtext import WIDTH
    # one value a field: a field of WIDTH bytes holds no padding to split at
    return np.frombuffer(b"".join(col), f"S{WIDTH}").astype(np.float64)


def _equal(a, b) -> bool:
    """`np.array_equal` of two columns, each a float array or the text of
    its chunks. Equal text needs no floats: it stands for equal values, and
    the t and d columns that `run_batch` records are finite."""
    if isinstance(a, tuple) and isinstance(b, tuple) and a == b:
        return True
    import numpy as np
    return np.array_equal(_floats(a), _floats(b))


def _csv_bytes(header: Sequence[str], texts: Sequence[Tuple[bytearray, ...]]) -> Iterator[bytes]:
    """The CSV text of columns of equal length, given as the
    `fieldtext.fields` text of their chunks, under the header: the header
    line, in the encoding that text mode writes, then the rows of each
    chunk. A row's fields sit in one array with their padding and a
    separator each, and dropping the padding leaves the rows: no Python
    object is made per value."""
    import numpy as np
    from barriersmc.fieldtext import WIDTH
    yield (",".join(header) + "\n").encode(locale.getpreferredencoding(False))
    for parts in zip(*texts):
        cells = np.empty((len(parts[0]) // WIDTH, len(parts), WIDTH + 1), np.uint8)
        for i, part in enumerate(parts):
            cells[:, i, :WIDTH] = np.frombuffer(part, np.uint8).reshape(-1, WIDTH)
        cells[:, :, WIDTH] = ord(",")
        cells[:, -1, WIDTH] = ord("\n")
        yield cells[cells != ord(" ")].tobytes()


def _file_sha256(path) -> bytes:
    """The sha256 of a file's bytes, read in blocks."""
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as data:
        for block in iter(lambda: data.read(1 << 16), b""):
            digest.update(block)
    return digest.digest()


def write_trajectory_csv(traj: Trajectory, path,
                         texts: Optional[Sequence[Tuple[bytearray, ...]]] = None) -> bytes:
    """Write the trajectory CSV; returns the sha256 of its bytes. `texts`,
    the `_texts` of the columns in TRAJECTORY_COLUMNS order, spare
    formatting them again."""
    import hashlib
    if texts is None:
        texts = _texts([getattr(traj, c) for c in TRAJECTORY_COLUMNS])
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        for part in _csv_bytes(TRAJECTORY_COLUMNS, texts):
            out.write(part)
            digest.update(part)
    return digest.digest()


def _first_bad_line(lines: List[str], width: int) -> str:
    """Name the first data line the strict parse rejects, as `line N: ...`
    with N the 1-based file line (the header is line 1). Runs on the error
    path only."""
    import numpy as np
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",") if line else []
        if len(fields) != width:
            return f"line {n}: {len(fields)} fields, expected {width}"
        for col, value in enumerate(fields):
            try:  # the parser that rejected the file, on this field alone: a "\r"
                # within a line fails every column of it
                np.loadtxt(["," + value], delimiter=",", comments=None, usecols=1)
            except ValueError:
                return f"line {n}: {TRAJECTORY_COLUMNS[col]} is not a number: {value!r}"
    return "data rows do not parse as numbers"


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from a CSV in the format
    `write_trajectory_csv` writes; any other file is a ConfigError."""
    import numpy as np  # here: importing the package does not pay for it
    header, width = ",".join(TRAJECTORY_COLUMNS), len(TRAJECTORY_COLUMNS)
    try:  # ConfigError and UnicodeDecodeError are ValueErrors: both get the path
        with open(path, newline="") as f:  # a line ends at "\n" alone, or "\r\n"
            lines = f.read().replace("\r\n", "\n").removesuffix("\n").split("\n")
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
    total_variation: Optional[float]
    failures: Tuple[str, ...]
    error: Optional[str] = None


def _check_expectations(spec: ExperimentSpec, traj: Trajectory,
                        report: Optional[analysis.ConvergenceReport],
                        gain_max_post: Optional[float]) -> Tuple[str, ...]:
    e = spec.expect
    if report is None:  # no sigma_target, so no expectation is declared
        return ()
    failures = []
    settled = report.t_conv is not None
    for name, limit, value, missing in (
            ("t_conv_max", e.t_conv_max, report.t_conv, "no convergence"),
            ("sigma_max", e.sigma_max, report.sigma_measured if settled else None,
             "no convergence"),
            ("gain_max_post", e.gain_max_post, gain_max_post, "no post-convergence window")):
        if limit is None:
            continue
        if value is None:
            failures.append(f"expect_{name}: {missing}")
        elif value > limit:
            failures.append(f"expect_{name}: {value:g} > {limit:g}")
    if e.final_inside is not None:
        final = abs(float(traj.s[-1]))
        if (final <= spec.sigma_target) != e.final_inside:
            failures.append(f"expect_final_inside: final |s| = {final:g}")
    if e.escapes_all_reenter and any(reentry is None for _, reentry in report.escapes):
        failures.append("expect_escapes_all_reenter: open escape found")
    # a run that does not converge ends outside the band: its last escape is open
    if e.no_reentry_after_last_escape and (settled or not report.escapes):
        failures.append("expect_no_reentry_after_last_escape: no terminal escape")
    return tuple(failures)


def run_experiment(spec: ExperimentSpec, column=None, tbg=None) -> ExperimentResult:
    """Simulate one spec and evaluate its analysis requests. A divergence
    or a disturbance-bound violation is returned as the result's error; a
    chattering window that holds fewer than two samples gives no total
    variation. `column` and `tbg` go to `simulate`, which states what they
    must equal."""
    try:
        traj = simulate(Controller(spec.controller), spec.disturbance, spec.sim, column, tbg)
    except (SimulationDiverged, DisturbanceBoundError) as exc:
        # only a divergence carries a partial trajectory
        return ExperimentResult(spec, getattr(exc, "trajectory", None), None, None,
                                None, (), error=str(exc))
    report = None
    gain_max_post = None
    if spec.sigma_target is not None:
        report = analysis.convergence_time(traj, spec.sigma_target)
        if report.t_conv is not None:
            gain_max_post = analysis.settled_peak_gain(traj, report.t_conv)
    t0, t1 = spec.chatter_window or analysis.default_chatter_window(traj)
    try:  # over the samples in [t0, t1], the last of which may lie before t1
        tv = analysis.total_variation(traj, (t0, min(t1, float(traj.t[-1]))))
    except ValueError:  # fewer than two samples in the window: no total variation
        tv = None
    failures = _check_expectations(spec, traj, report, gain_max_post)
    return ExperimentResult(spec, traj, report, gain_max_post, tv, failures)


def _fmt_opt(v: Optional[float]) -> str:
    return "" if v is None else FLOAT_FMT % v


def summary_csv(results: Sequence[ExperimentResult]) -> str:
    lines = ["name,t_conv,sigma_target,sigma_measured,gain_max_post,"
             "total_variation,status,detail"]
    for r in results:
        rep = r.report
        status = "error" if r.error else ("fail" if r.failures else "pass")
        detail = r.error if r.error else ";".join(r.failures)
        lines.append(",".join([
            r.spec.name,
            _fmt_opt(rep.t_conv if rep else None),
            _fmt_opt(rep.sigma_target if rep else None),
            _fmt_opt(rep.sigma_measured if rep else None),
            _fmt_opt(r.gain_max_post),
            _fmt_opt(r.total_variation),
            status,
            (detail or "").replace(",", ";"),
        ]))
    return "\n".join(lines) + "\n"


def run_batch(specs: Sequence[ExperimentSpec], out_dir) -> Tuple[ExperimentResult, ...]:
    """Run every spec, write one summary.csv and, for each experiment that
    recorded a sample, `<name>.csv` with its trajectory, and return the
    results in spec order. An experiment that recorded none (no trajectory, or a
    divergence at its first sample) has any earlier `<name>.csv` deleted,
    so no file of the directory passes for its output. Rerunning a batch
    overwrites the outputs with identical content. A name
    `check_output_names` rejects is a ConfigError raised before anything is
    written."""
    _check_unique_names(specs)
    check_output_names(specs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = tuple(run_experiment(s) for s in specs)
    _WRITTEN.clear()
    written = []  # (trajectory, path)
    for r in results:
        path = out_dir / f"{r.spec.name}.csv"
        if r.trajectory is not None and len(r.trajectory):
            written.append((r.trajectory, path))
        else:
            path.unlink(missing_ok=True)
    texts = iter(_texts([getattr(traj, c) for traj, _ in written for c in TRAJECTORY_COLUMNS]))
    for traj, path in written:
        cols = dict(zip(TRAJECTORY_COLUMNS, texts))  # the next six texts
        digest = write_trajectory_csv(traj, path, list(cols.values()))
        _WRITTEN[digest] = {c: cols[c] for c in FIGURE_COLUMNS}
    (out_dir / "summary.csv").write_text(summary_csv(results))
    return results


# --- parameter sweep -------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    rho: float
    lam: float
    bound: float
    peak_u: float
    t_conv: Optional[float]
    feasible: bool
    error: Optional[str] = None  # why the point's simulation failed


def sweep(base: ExperimentSpec, grid: Sequence[Tuple[float, float]],
          target_sigma: float, u_budget: float) -> List[SweepRow]:
    """Evaluate (rho, lam) grid points on the base experiment: predicted
    ultimate bound, peak |u|, convergence time into the target band.
    Each point runs through `run_experiment`, as the base with the point's
    gain law, the target as its sigma_target (none when the target is not
    positive) and no expectations; the disturbance column and the TBG
    columns are computed once for all points. Feasible points (bound <=
    target and peak within budget) rank first, ordered by convergence
    time. A point whose experiment has an error (its simulation diverges,
    or its disturbance exceeds d_bar) is an infeasible row with no
    convergence time, an infinite peak |u| and that error as its own;
    such rows keep their grid order. A non-finite
    target or budget, or a grid point with no valid law or no finite bound,
    is a ConfigError that names it, raised before anything is simulated."""
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
    # a non-positive target admits no real sliding band at all
    spec = replace(base, expect=_NO_EXPECTATIONS,
                   sigma_target=target_sigma if target_sigma > 0 else None)
    s0, h, n = base.sim.s0, base.sim.h, n_steps(base.sim)  # shared by every point
    column, tbg = base.disturbance.sample(h, n), base.controller.tbg_columns(s0, h, n)

    def evaluate(point) -> SweepRow:
        rho, lam, law, bound = point
        result = run_experiment(replace(spec, controller=replace(base.controller, law=law)),
                                column, tbg)
        if result.error is not None:
            return SweepRow(rho, lam, bound, math.inf, None, False, error=result.error)
        peak_u = float(abs(result.trajectory.u_applied).max())
        t_conv = result.report.t_conv if result.report else None
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
    disturbance column. A file whose stem holds a comma or a line break, or
    does not encode in the header's encoding, is a ConfigError that names
    it on one line, raised before any file is read."""
    if figure not in FIGURE_SIGNALS:
        raise ConfigError(
            f"unknown figure '{figure}' (expected one of {sorted(FIGURE_SIGNALS)})"
        )
    files = sorted(Path(f) for f in traj_files)
    if not files:
        raise ConfigError("no trajectory files given")
    encoding = locale.getpreferredencoding(False)  # the header's, as `_csv_bytes` writes it
    for f in files:  # the stem names the file's columns in the header
        if _FIELD_BREAKS & set(f.stem):
            raise ConfigError(f"{_one_line(f)}: a comma or line break in the file name "
                              "would split its column")
        try:
            f.stem.encode(encoding)
        except UnicodeEncodeError:  # such as the surrogate of an undecodable byte
            raise ConfigError(f"{_one_line(f)}: the file name cannot be written in the "
                              "figure's header") from None
    trajs = []  # (stem, figure column -> its recorded text or its parsed floats)
    for f in files:
        try:  # _WRITTEN is empty unless this process ran a batch: then nothing is hashed
            columns = _WRITTEN[_file_sha256(f)] if _WRITTEN else None
        except (OSError, KeyError):  # parsed instead, which raises the file's error
            columns = None
        trajs.append((f.stem, columns or vars(read_trajectory_csv(f))))
    first = trajs[0][1]
    for name, columns in trajs[1:]:
        if not _equal(columns["t"], first["t"]):
            raise ConfigError(f"time grid of '{name}' does not match; no resampling")
        if figure == "escape" and not _equal(columns["d"], first["d"]):
            raise ConfigError("escape overlay requires a shared disturbance")

    short = {"s": "s", "gain": "gain", "u_applied": "u"}
    header = ["t"]
    cols = [first["t"]]
    for signal in FIGURE_SIGNALS[figure]:
        for name, columns in trajs:
            header.append(f"{short[signal]}_{name}")
            cols.append(columns[signal])
    if figure == "escape":
        header.append("d")
        cols.append(first["d"])
    parsed = iter(_texts([c for c in cols if not isinstance(c, tuple)]))
    texts = [c if isinstance(c, tuple) else next(parsed) for c in cols]
    with open(out_path, "wb") as out:
        out.writelines(_csv_bytes(header, texts))
