"""Command-line entry point.

Subcommands: run, sweep, plot, validate. Exit codes, as README lists them:

- 0: success
- 1: an experiment ran but violated a declared expectation
- 2: a configuration or usage error, in any of the cases below
- 3: a simulation diverged, in `run` or at a `sweep` grid point, or its disturbance exceeded d_bar

Exit 2 covers a file that cannot be read or written, a malformed
trajectory CSV given to `plot`, a non-finite sweep target or budget, a
sweep grid axis given twice, an invalid sweep grid point and a step h so
small that t_end / h exceeds simkernel.MAX_STEPS. For `run` and
`validate` it covers an experiment name that cannot name its output
file: the empty name, one holding a path separator, a NUL, a comma or a
line break, `.`, `..`, `summary`, a name starting with `fig_`, one whose
`<name>.csv` exceeds the 255 bytes of a file name or one holding a
character that the file-system encoding cannot encode. For `plot` it
covers a trajectory file whose name holds a comma or a line break or
does not encode in the locale's encoding. Each such message shows the
name backslash-escaped, on one line. A chattering window that holds fewer
than two samples leaves the run's total_variation cell empty.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from barriersmc import experiment
from barriersmc.experiment import ConfigError

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


@functools.cache  # built on the first `main` call, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barriersmc",
        description="Adaptive sliding-mode control experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch of experiments")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory")

    p_sweep = sub.add_parser("sweep", help="sweep gain-law parameters")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help="e.g. 'rho=1,5,25;lam=0.05' (cross product)")
    p_sweep.add_argument("--target", type=float, required=True,
                         help="target ultimate bound sigma")
    p_sweep.add_argument("--budget", type=float, required=True,
                         help="peak |u| budget")
    p_sweep.add_argument("--experiment", default=None,
                         help="base experiment name (default: first in config)")
    p_sweep.add_argument("--out", default=None, help="write ranked table CSV here")

    p_plot = sub.add_parser("plot", help="emit columnar plot data")
    p_plot.add_argument("dir", help="a run's output directory, or one of trajectory CSVs")
    p_plot.add_argument("--figure", required=True,
                        choices=sorted(experiment.FIGURE_SIGNALS))
    p_plot.add_argument("--out", default=None,
                        help="output file (default: <dir>/fig_<figure>.csv)")

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    return parser


def _parse_grid(text: str):
    axes = {}
    for part in text.split(";"):
        if "=" not in part:
            raise ConfigError(f"bad grid axis {part!r} (expected name=v1,v2,...)")
        name, _, values = part.partition("=")
        name = name.strip()
        if name not in ("rho", "lam"):
            raise ConfigError(f"unknown grid axis {name!r} (expected rho or lam)")
        if name in axes:
            raise ConfigError(f"duplicate grid axis {name!r}")
        try:
            axes[name] = [float(v) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"bad grid values for axis {name!r}: {values!r}") from None
    if "rho" not in axes or "lam" not in axes:
        raise ConfigError("grid must define both rho and lam axes")
    return [(r, l) for r in axes["rho"] for l in axes["lam"]]


def _cmd_run(args) -> int:
    specs = experiment.load_config(args.config)
    results = experiment.run_batch(specs, args.out)
    sys.stdout.write(experiment.summary_csv(results))
    if any(r.error is not None for r in results):
        return EXIT_DIVERGED
    if any(r.failures for r in results):
        return EXIT_EXPECTATION
    return EXIT_OK


def _cmd_sweep(args) -> int:
    specs = experiment.load_config(args.config)
    if args.experiment is None:
        base = specs[0]
    else:
        matches = [s for s in specs if s.name == args.experiment]
        if not matches:
            raise ConfigError(f"no experiment named {args.experiment!r} in config")
        base = matches[0]
    grid = _parse_grid(args.grid)
    rows = experiment.sweep(base, grid, args.target, args.budget)
    failed = [r.error for r in rows if r.error is not None]
    if failed:  # the first in grid order: the ranking keeps the order of these rows
        print(f"simulation error: {failed[0]}", file=sys.stderr)
        return EXIT_DIVERGED
    text = experiment.sweep_csv(rows)
    if args.out:  # first: an --out that cannot be written leaves stdout empty
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_plot(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    summary = directory / "summary.csv"
    if summary.is_file():  # the last run's experiments: the first field of each row
        with open(summary, newline="") as text:  # newline="": a name may hold a "\r"
            names = [row.split(",", 1)[0] for row in text.read().split("\n")[1:] if row]
        files = [f for f in (directory / f"{n}.csv" for n in names) if f.is_file()]
    else:
        files = [f for f in directory.glob("*.csv") if f.name != "summary.csv"
                 and not f.name.startswith("fig_")]
    out = Path(args.out) if args.out else directory / f"fig_{args.figure}.csv"
    experiment.emit_plot_data(files, args.figure, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    specs = experiment.load_config(args.config)
    experiment.check_output_names(specs)
    print(f"ok: {len(specs)} experiment(s): {', '.join(s.name for s in specs)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "plot": _cmd_plot, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:  # OSError: e.g. an --out path under a file
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
