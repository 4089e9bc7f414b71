#!/usr/bin/env python3
"""barriersmc benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 benchmark/run.py --workload {replay,sweep,config,all} \
        --seed N --seconds S --trace {0,1}

One closed-loop client (this process, no worker threads or processes)
issues the next operation only after the previous one returned, for S
seconds. Every operation's output is checked against a reference; an
operation that raises or fails its check counts as failed. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the host,
the versions, the seed and the sample counts.

With `--trace 0` the metrics are the end-to-end ones (END_TO_END). With
`--trace 1` the program's layer-boundary functions are wrapped at run
time (spans.py) on every other operation, and the per-layer metrics
(PER_LAYER) are reported: self-time shares of the traced operations,
work counts per operation, per-step layers timed in isolation
(microbench.py), and the tracing overhead against the interleaved
untraced operations. The spans are written to
`.bench_work/spans-<workload>-seed<N>.jsonl`.

Operation times are reported at a reference host speed (HostClock): the
Python speed of a shared VM drifts by up to ~1.5x within minutes, so each
operation's wall time is scaled by how fast a fixed reference loop ran
just before it. The raw wall-time median and the scale are on the info
line. setup_s is plain wall time.

The program is imported from `src/` of the checkout holding this file;
without it the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import microbench
from spans import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_work"

# name, unit, better
END_TO_END = (
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("sim_steps_per_s", "steps/s", "higher"),
    ("ok_ops_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# name, unit, better, which end-to-end metric on which workload it should move.
# Shares are of the traced operations' wall time; counts are per operation.
_IO = "replay op_ms_p50; no change on sweep or config"
_PARSE = "config ops_per_s; no change on replay or sweep"
_KERNEL = "sweep sim_steps_per_s first; replay op_ms_p50 by at most its ~10% share"
_STEP = "simkernel.us_per_step, hence sweep sim_steps_per_s"
PER_LAYER = (
    ("experiment.write_trajectory_csv.self_pct", "%", "lower", _IO),
    ("experiment.write_trajectory_csv.calls", "count", "lower", _IO),
    ("experiment.read_trajectory_csv.self_pct", "%", "lower", _IO),
    ("experiment.read_trajectory_csv.calls", "count", "lower", _IO),
    ("experiment.emit_plot_data.self_pct", "%", "lower", _IO),
    ("experiment.emit_plot_data.calls", "count", "lower", _IO),
    ("experiment.summary_csv.self_pct", "%", "lower", _IO),
    ("experiment.summary_csv.calls", "count", "lower", _IO),
    ("experiment.trajectory_rows_written", "count", "lower", _IO),
    ("experiment.trajectory_bytes_written", "bytes", "lower", _IO),
    ("experiment.trajectory_rows_parsed", "count", "lower", _IO),
    ("experiment.plot_parse_ratio", "ratio", "lower", _IO),
    ("experiment.loads_config.self_pct", "%", "lower", _PARSE),
    ("experiment.dumps_config.self_pct", "%", "lower", _PARSE),
    ("experiment.config_bytes", "bytes", "lower", _PARSE),
    ("experiment.run_experiment.self_pct", "%", "lower", "replay op_ms_p50"),
    ("experiment.run_batch.self_pct", "%", "lower", "replay op_ms_p50"),
    ("experiment.sweep.self_pct", "%", "lower", "sweep op_ms_p50"),
    ("experiment.self_pct", "%", "lower", "replay op_ms_p50 and config ops_per_s"),
    ("simkernel.simulate.self_pct", "%", "lower", _KERNEL),
    ("simkernel.steps", "count", "lower", "none: exact work count per operation"),
    *((f"simkernel.us_per_step.{v}", "us", "lower", _KERNEL) for v in microbench.VARIANTS),
    *((f"controllers.control_us.{v}", "us", "lower", _STEP) for v in microbench.VARIANTS),
    *((f"gains.eval_us.{v}", "us", "lower", _STEP) for v in ("concave", "convex", "psb")),
    *((f"gains.inverse_us.{v}", "us", "lower", "sweep op_ms_p50 (predicted bands)")
      for v in ("concave", "convex")),
    ("analysis.convergence_time.self_pct", "%", "lower",
     "sweep op_ms_p50; ~0.1% today, grows once the kernel is batched"),
    ("analysis.total_variation.self_pct", "%", "lower", "replay op_ms_p50"),
    ("analysis.self_pct", "%", "lower", "sweep op_ms_p50"),
    ("cli.main.self_pct", "%", "lower", "replay op_ms_p50"),
    ("harness.self_pct", "%", "lower", "none: benchmark's own share of the operation"),
    ("trace.op_ms_p50", "ms", "lower", "none: traced operation time"),
    ("trace.untraced_op_ms_p50", "ms", "lower", "op_ms_p50 of the same workload"),
    ("trace.overhead_pct", "%", "lower", "none: cost of the spans themselves"),
)

# Layer-boundary functions that get spans, by module. Calls below these
# (controllers, gains, disturbance samples) are inside simulate's self time.
TRACED = {
    "cli": ("main",),
    "experiment": ("load_config", "loads_config", "dumps_config", "run_batch",
                   "run_experiment", "summary_csv", "write_trajectory_csv",
                   "read_trajectory_csv", "emit_plot_data", "sweep", "sweep_csv"),
    "simkernel": ("simulate",),
    "analysis": ("convergence_time", "total_variation", "default_chatter_window"),
}

SETUP_REPEATS = 8  # before the measured loop, and as many again after it
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "from barriersmc import cli, experiment; "
              "experiment.load_config('configs/paper_sec7.cfg'); "
              "experiment.load_config('configs/paper_sec3.cfg')")


def load_program():
    """Import barriersmc from this checkout's src/, or exit non-zero."""
    package = SRC / "barriersmc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import barriersmc
    from barriersmc import analysis, cli, controllers, experiment, gains, simkernel

    if Path(barriersmc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported barriersmc from {barriersmc.__file__}, "
                         f"not from {package}")
    return SimpleNamespace(analysis=analysis, cli=cli, controllers=controllers,
                           experiment=experiment, gains=gains, simkernel=simkernel)


class HostClock:
    """Scales wall times to a reference host speed.

    At most every RECHECK_S seconds, `refresh` times a fixed pure-Python
    loop of float math, formatting and parsing (the benchmark's own code,
    so no change to the program moves it), keeps the fastest of three runs
    and records the scale REF_LOOP_S over that time. An operation timed
    between two refreshes is scaled by the geometric mean of the scales on
    either side of it. REF_LOOP_S is the loop's time on a 2-vCPU Xeon host
    in its fast phase, so scaled times read close to wall times there.
    """

    REF_LOOP_S = 0.020
    RECHECK_S = 0.5

    def __init__(self):
        self.scale = 1.0
        self.scales = []
        self._checked = -math.inf

    @staticmethod
    def _loop():
        # Every object it makes is freed at once, so its time does not
        # depend on the state of the heap that the workload left behind.
        start = perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += float("%.17g" % (math.sin(i * 0.001) * 1.5 + math.log1p(i)))
        return perf_counter() - start

    def refresh(self, force=False):
        """Time the loop if RECHECK_S has passed; return the index of the
        latest scale."""
        if force or perf_counter() - self._checked >= self.RECHECK_S:
            self.scale = self.REF_LOOP_S / min(self._loop() for _ in range(3))
            self.scales.append(self.scale)
            self._checked = perf_counter()
        return len(self.scales) - 1

    def scaled(self, seconds):
        return seconds * self.scale

    def scaled_between(self, seconds, i):
        """`seconds` measured after scale i and before scale i + 1."""
        return seconds * math.sqrt(self.scales[i] * self.scales[i + 1])


CLOCK = HostClock()


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ini(sections):
    """INI text from {section: {key: value}}; floats written with repr."""
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                for k, v in items.items()]
        out.append("")
    return "\n".join(out)


# --- workloads --------------------------------------------------------------

class _FixedInputs:
    """A workload whose every operation runs the same inputs, simulating
    `steps_per_op` Euler steps inside the timed region."""

    steps_per_op = 0

    def prepare(self):
        return None

    def sim_rate(self, durations):
        return self.steps_per_op * len(durations) / sum(durations)


class Replay(_FixedInputs):
    """`barriersmc run` on both bundled campaigns, then the four figures,
    in a fresh directory; checked byte-for-byte against the sha256 of
    every output as written by commit 1a1bca5, whose scalar `simulate` is
    the reference. Fixed inputs: the seed is unused."""

    CAMPAIGNS = (("paper_sec7.cfg", "nominal", ("sliding", "gains", "inputs")),
                 ("paper_sec3.cfg", "saturated", ("escape",)))

    def __init__(self, program, seed, tmp):
        self.program = program
        self.tmp = tmp
        self.reference = json.loads((HERE / "replay_sha256.json").read_text())
        self.steps_per_op = sum(
            program.simkernel.n_steps(spec.sim)
            for cfg, _, _ in self.CAMPAIGNS
            for spec in program.experiment.load_config(CONFIGS / cfg))

    def run_op(self, _):
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        codes = []
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            for cfg, sub, figures in self.CAMPAIGNS:
                codes.append(self.program.cli.main(
                    ["run", str(CONFIGS / cfg), "--out", str(out / sub)]))
                for figure in figures:
                    codes.append(self.program.cli.main(
                        ["plot", str(out / sub), "--figure", figure]))
        return out, codes, err.getvalue()

    def check(self, result):
        out, codes, err = result
        try:
            if any(codes):
                return f"exit codes {codes}: {err.strip()[-300:]}"
            got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.rglob("*") if p.is_file()}
            if got.keys() != self.reference.keys():
                return f"output files differ: {sorted(got.keys() ^ self.reference.keys())}"
            bad = sorted(k for k in got if got[k] != self.reference[k])
            return f"sha256 mismatch: {bad}" if bad else None
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Sweep(_FixedInputs):
    """`experiment.sweep` on each sec7 base over a seeded (rho, lam) grid,
    drawn once per run; one operation sweeps the whole grid on all bases.

    The region keeps h*rho*pi/(2*lam) < 2, so every point is a valid
    tuning. Outside it a sweep can reach a diverging point, such as
    (25, 0.01) on `cv`, and then raises SimulationDiverged: a known defect
    of the program, not exercised here. The reference recomputes every
    point once with the scalar `simulate` plus `convergence_time`, outside
    the timed region.
    """

    TARGET = 3.52e-3
    BUDGET = 10.0
    POINTS = 9  # the 9-point sweep that ROADMAP item 1 names; its item 3 measures N = 9 too
    ULPS = 64  # peak_u and bound tolerance against the scalar reference

    def __init__(self, program, seed, tmp):
        self.program = program
        rng = random.Random(seed)
        self.grid = [(_log_uniform(rng, 0.5, 5.0), _log_uniform(rng, 0.03, 0.3))
                     for _ in range(self.POINTS)]
        self.bases = program.experiment.load_config(CONFIGS / "paper_sec7.cfg")
        raw = configparser.ConfigParser(interpolation=None)
        raw.read(CONFIGS / "paper_sec7.cfg")
        self.reference = {base.name: self._reference(dict(raw[base.name]))
                          for base in self.bases}
        self.steps_per_op = len(self.grid) * sum(
            program.simkernel.n_steps(b.sim) for b in self.bases)

    def _reference(self, items):
        p = self.program
        points = {}
        for i, (rho, lam) in enumerate(self.grid):
            text = _ini({f"p{i}": {**items, "rho": rho, "lam": lam}})
            (spec,) = p.experiment.loads_config(text)
            traj = p.simkernel.simulate(p.controllers.Controller(spec.controller),
                                        spec.disturbance, spec.sim)
            bound = p.gains.ultimate_bound(spec.controller.law, spec.disturbance.d_bar).sigma
            peak_u = float(np.abs(traj.u_applied).max())
            t_conv = p.analysis.convergence_time(traj, self.TARGET).t_conv
            points[(rho, lam)] = (bound, peak_u, t_conv,
                                  bound <= self.TARGET and peak_u <= self.BUDGET)
        order = sorted(points, key=lambda k: (not points[k][3], math.inf
                                              if points[k][2] is None else points[k][2]))
        return order, points

    def run_op(self, _):
        sweep = self.program.experiment.sweep
        return {base.name: sweep(base, self.grid, self.TARGET, self.BUDGET)
                for base in self.bases}

    def _close(self, a, b):
        return abs(a - b) <= self.ULPS * math.ulp(max(abs(a), abs(b)))

    def check(self, result):
        for name, rows in result.items():
            order, points = self.reference[name]
            if [(r.rho, r.lam) for r in rows] != order:
                return f"{name}: ranking differs from the reference"
            for r in rows:
                bound, peak_u, t_conv, feasible = points[(r.rho, r.lam)]
                if (r.t_conv != t_conv or r.feasible != feasible
                        or not self._close(r.peak_u, peak_u)
                        or not self._close(r.bound, bound)):
                    return f"{name}: point ({r.rho!r}, {r.lam!r}) differs from the reference"
        return None


class ConfigRoundTrip:
    """`dumps_config` then `loads_config` on a fresh seeded batch of specs
    per operation, checked equal to the input (criterion 10f).

    Each batch holds every controller and every disturbance in fixed
    numbers, so the per-operation cost does not depend on the seed; custom
    tables have 2-200 nodes. Outside the timed region every round-tripped
    spec is also simulated over its short horizon (50-150 steps), which
    checks that it runs and gives this workload's sim_steps_per_s.
    """

    CONTROLLERS = ("kinfty", "saturated", "obeid", "tbg", "fixed_sign")
    DISTURBANCES = ("piecewise_vii", "sin_two", "sinusoid", "custom")
    SPECS_PER_OP = 100

    def __init__(self, program, seed, tmp):
        self.program = program
        self.rng = random.Random(seed)
        self.sim_steps = 0
        self.sim_seconds = 0.0

    def _section(self, controller, disturbance):
        rng = self.rng
        items = {"controller": controller}
        if controller in ("kinfty", "saturated", "tbg"):
            items["law"] = rng.choice(("concave", "convex"))
            items["rho"] = _log_uniform(rng, 0.5, 5.0)
            items["lam"] = _log_uniform(rng, 0.03, 0.3)
        if controller == "saturated":
            items["k_max"] = rng.uniform(1.0, 10.0)
        elif controller == "obeid":
            items["epsilon"] = rng.uniform(0.05, 0.5)
            items["k_bar"] = rng.uniform(0.5, 5.0)
        elif controller == "tbg":
            items["t_f"] = rng.uniform(0.5, 5.0)
            items["delta"] = _log_uniform(rng, 1e-6, 1e-2)
        elif controller == "fixed_sign":
            items["k"] = rng.uniform(0.0, 5.0)
        h = _log_uniform(rng, 1e-4, 1e-3)
        t_end = h * rng.uniform(50.0, 150.0)
        d_bar = rng.uniform(2.0, 3.0)  # covers sin_two's |d| <= 2
        items["disturbance"] = disturbance
        if disturbance == "sinusoid":
            items["amplitude"] = rng.uniform(0.0, d_bar)
            items["omega"] = rng.uniform(0.1, 10.0)
            items["phase_rad"] = rng.uniform(-math.pi, math.pi)
        elif disturbance == "custom":
            nodes = rng.randint(2, 200)
            steps = np.cumsum([0.0] + [rng.uniform(0.1, 1.0) for _ in range(nodes - 1)])
            # the table reaches one step past t_end, so the last sample is inside it
            times = (steps / steps[-1] * (t_end + h)).tolist()
            items["table_t"] = ", ".join(repr(t) for t in times)
            items["table_d"] = ", ".join(repr(rng.uniform(-d_bar, d_bar))
                                         for _ in range(nodes))
        items.update(d_bar=d_bar, s0=rng.uniform(-2.0, 2.0), h=h, t_end=t_end)
        if rng.random() < 0.5:
            items["u_max"] = rng.uniform(1.0, 10.0)
        if rng.random() < 0.5:
            t0 = rng.uniform(0.0, 0.5 * t_end)
            items["chatter_t0"] = t0
            items["chatter_t1"] = t0 + (t_end - t0) * rng.uniform(0.1, 1.0)
        if rng.random() < 0.5:
            items["sigma_target"] = _log_uniform(rng, 1e-3, 1e-1)
            for key in ("expect_t_conv_max", "expect_sigma_max", "expect_gain_max_post"):
                if rng.random() < 0.5:
                    items[key] = rng.uniform(0.01, 10.0)
            for key in ("expect_final_inside", "expect_escapes_all_reenter",
                        "expect_no_reentry_after_last_escape"):
                if rng.random() < 0.5:
                    items[key] = rng.choice(("true", "false"))
        return items

    def prepare(self):
        n = self.SPECS_PER_OP
        controllers = [self.CONTROLLERS[i % len(self.CONTROLLERS)] for i in range(n)]
        disturbances = [self.DISTURBANCES[i % len(self.DISTURBANCES)] for i in range(n)]
        self.rng.shuffle(disturbances)
        text = _ini({f"spec{i}": self._section(c, d)
                     for i, (c, d) in enumerate(zip(controllers, disturbances))})
        return self.program.experiment.loads_config(text, source="generated")

    def run_op(self, specs):
        experiment = self.program.experiment
        return specs, experiment.loads_config(experiment.dumps_config(specs))

    def check(self, result):
        specs, loaded = result
        if loaded != specs:
            return "round trip changed the specs"
        p = self.program
        start = perf_counter()
        for spec in loaded:
            traj = p.simkernel.simulate(p.controllers.Controller(spec.controller),
                                        spec.disturbance, spec.sim)
            self.sim_steps += len(traj) - 1
        self.sim_seconds += CLOCK.scaled(perf_counter() - start)
        return None

    def sim_rate(self, durations):
        return self.sim_steps / self.sim_seconds


WORKLOADS = {"replay": Replay, "sweep": Sweep, "config": ConfigRoundTrip}


# --- measurement ------------------------------------------------------------

def measure(workload, seconds, tracer=None):
    """Closed loop for `seconds`: prepare, time, check. Durations are
    scaled by CLOCK; `wall` keeps them unscaled. With a tracer, every other
    operation is traced; at least one of each kind runs."""
    wall, marks, is_traced_op, errors = [], [], [], []
    attempted = failed = 0
    minimum = 2 if tracer else 1
    deadline = perf_counter() + seconds
    while attempted < minimum or perf_counter() < deadline:
        arg = workload.prepare()
        marks.append(CLOCK.refresh())
        is_traced = tracer is not None and attempted % 2 == 0
        if is_traced:
            tracer.begin(attempted)
        error = None
        start = perf_counter()
        try:
            result = workload.run_op(arg)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if is_traced:
            tracer.end(start, end)
        if error is None:
            try:
                error = workload.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        result = None  # free the outputs before the next timed operation
        attempted += 1
        wall.append(end - start)
        is_traced_op.append(is_traced)
        if error is not None:
            failed += 1
            if len(errors) < 3:
                errors.append(error)
    CLOCK.refresh(force=True)
    durations = [CLOCK.scaled_between(w, i) for w, i in zip(wall, marks)]
    traced = [d for d, t in zip(durations, is_traced_op) if t]
    untraced = [d for d, t in zip(durations, is_traced_op) if not t]
    return SimpleNamespace(durations=durations, wall=wall, traced=traced, untraced=untraced,
                           attempted=attempted, failed=failed, errors=errors)


def tail(durations):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the minimum when there are ten samples or fewer."""
    xs = sorted(durations)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def measure_setup(times):
    """Append SETUP_REPEATS wall times of a fresh interpreter importing
    barriersmc.cli and loading both bundled configs. They are not scaled by
    CLOCK: process start and imports barely follow the host's drift in
    Python speed, and scaling them widened their spread."""
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up failed: {proc.stderr.strip()}")


def _tracer(program):
    targets = {f"{mod}.{fn}": getattr(getattr(program, mod), fn)
               for mod, fns in TRACED.items() for fn in fns
               if hasattr(getattr(program, mod), fn)}

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    def write_csv(counts, args, kwargs, result):
        counts["rows_written"] += len(arg(args, kwargs, 0, "traj"))
        counts["bytes_written"] += os.path.getsize(arg(args, kwargs, 1, "path"))

    def read_csv(counts, args, kwargs, result):
        counts["rows_parsed"] += len(result)

    def loads(counts, args, kwargs, result):
        counts["config_bytes"] += len(arg(args, kwargs, 0, "text"))

    def simulate(counts, args, kwargs, result):
        counts["steps"] += len(result) - 1

    hooks = {"experiment.write_trajectory_csv": write_csv,
             "experiment.read_trajectory_csv": read_csv,
             "experiment.loads_config": loads,
             "simkernel.simulate": simulate}
    return Tracer(targets, hooks)


def layer_metrics(tracer, loop, micro):
    selfs, calls, counts, ops = (tracer.self_times(), tracer.call_counts(),
                                 tracer.counts, tracer.ops)
    op_total = sum(end - start for *_, name, start, end in tracer.spans
                   if name == ROOT_SPAN)

    def pct(*names):
        return 100.0 * sum(selfs.get(n, 0.0) for n in names) / op_total

    def module_pct(mod):
        return pct(*(n for n in selfs if n.startswith(mod + ".")))

    traced_ms = statistics.median(loop.traced) * 1e3
    untraced_ms = statistics.median(loop.untraced) * 1e3
    values = {
        "experiment.trajectory_rows_written": counts["rows_written"] / ops,
        "experiment.trajectory_bytes_written": counts["bytes_written"] / ops,
        "experiment.trajectory_rows_parsed": counts["rows_parsed"] / ops,
        "experiment.plot_parse_ratio": (counts["rows_parsed"] / counts["rows_written"]
                                        if counts["rows_written"] else 0.0),
        "experiment.config_bytes": counts["config_bytes"] / ops,
        "experiment.self_pct": module_pct("experiment"),
        "simkernel.steps": counts["steps"] / ops,
        "analysis.self_pct": module_pct("analysis"),
        "harness.self_pct": pct(ROOT_SPAN),
        "trace.op_ms_p50": traced_ms,
        "trace.untraced_op_ms_p50": untraced_ms,
        "trace.overhead_pct": 100.0 * (traced_ms / untraced_ms - 1.0),
        **micro,
    }
    for name, _, _, _ in PER_LAYER:
        if name.endswith(".self_pct") and name not in values:
            values[name] = pct(name[:-len(".self_pct")])
        elif name.endswith(".calls"):
            values[name] = calls[name[:-len(".calls")]] / ops
    return values


def end_to_end_metrics(workload, loop, setup_s):
    value, _ = tail(loop.durations)
    return {
        "op_ms_p50": statistics.median(loop.durations) * 1e3,
        "op_ms_tail": value * 1e3,
        "ops_per_s": len(loop.durations) / sum(loop.durations),
        "sim_steps_per_s": workload.sim_rate(loop.durations),
        "ok_ops_frac": (loop.attempted - loop.failed) / loop.attempted,
        # the process peak: under --workload all it includes earlier workloads
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_workload(program, name, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="tmp-"))
    try:
        # set-up is timed on both sides of the loop, so that one slow phase
        # of the host does not decide its median
        setup_times = []
        if not trace:
            measure_setup(setup_times)
        workload = WORKLOADS[name](program, seed, tmp)
        tracer = _tracer(program) if trace else None
        loop = measure(workload, seconds, tracer)
        if not trace:
            measure_setup(setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if trace:
        CLOCK.refresh()
        micro = {k: CLOCK.scaled(v) for k, v in microbench.measure(program).items()}
        values = layer_metrics(tracer, loop, micro)
        units = {n: u for n, u, _, _ in PER_LAYER}
        tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    else:
        values = end_to_end_metrics(workload, loop, statistics.median(setup_times))
        units = {n: u for n, u, _ in END_TO_END}
    _, tail_pct = tail(loop.durations)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": len(loop.durations), "traced_samples": len(loop.traced),
        "setup_samples": len(setup_times),
        "wall_op_ms_p50": statistics.median(loop.wall) * 1e3,
        "host_scale_p50": statistics.median(CLOCK.scales),
        "tail_percentile": tail_pct, "errors": loop.errors,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    program = load_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(program, name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
