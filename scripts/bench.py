#!/usr/bin/env python3
"""Run the benchmark once and append its info and result lines to a JSON file.

Runs the checkout's benchmark command, the `command` of its
BENCHMARK.json (`python3 benchmark/run.py`), with ARGS appended, in a
checkout of this repository (by default the one holding this script),
echoes its standard output, and appends one record per workload run to
the JSON list in OUT (created if missing):

    {"label": LABEL, "args": ARGS, "info": {...}, "result": {...}}

`info` and `result` are the benchmark's two output lines for that
workload, unchanged: the info line names the workload, commit, host, seed
and sample counts, and the result line holds every metric. To record a
before/after pair, run it on a checkout of each commit with the same ARGS,
alternating which goes first:

    python3 scripts/bench.py --out BENCH_<n>.json --label parent \\
        --checkout ../parent -- --workload config --seconds 32 --seed 1

Exits with the benchmark's exit code; nothing is appended if it fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to append to")
    ap.add_argument("--label", required=True, help="e.g. parent or change")
    ap.add_argument("--checkout", type=Path, default=REPO,
                    help="repository checkout whose benchmark to run")
    ap.add_argument("args", nargs="*", help="arguments for benchmark/run.py (after --)")
    opts = ap.parse_args(argv)
    command = json.loads((opts.checkout / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([*command, *opts.args], cwd=opts.checkout,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    new = [{"label": opts.label, "args": opts.args, **json.loads(info),
            "result": json.loads(result)}
           for info, result in zip(lines, lines[1:]) if info.startswith('{"info": ')]
    if proc.returncode != 0 or not new:
        return proc.returncode or 1
    records = json.loads(opts.out.read_text()) if opts.out.exists() else []
    records += new
    opts.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
