#!/usr/bin/env python3
"""Replay both bundled benchmark campaigns and emit plot-ready CSV data.

Runs `barriersmc run` on each campaign, then `barriersmc plot` for its
standard figures, writing one trajectory CSV per experiment, a summary.csv
per campaign and the figure overlays:

  out/nominal/   four barrier-gain controllers under the piecewise
                 disturbance (sliding, gains and inputs overlays)
  out/saturated/ legacy two-phase controller vs. the concave barrier law
                 under actuator saturation (escape overlay)

Exits with the largest exit code of those commands, so the CLI contract
holds: 0 ok, 1 expectation failed, 2 configuration error, 3 diverged.

Usage: python3 scripts/run_paper_experiments.py [--out OUT]
"""

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from barriersmc import cli  # noqa: E402

CAMPAIGNS = {
    "nominal": (REPO / "configs" / "paper_sec7.cfg",
                ("sliding", "gains", "inputs")),
    "saturated": (REPO / "configs" / "paper_sec3.cfg", ("escape",)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=REPO / "out",
                    help="output directory (default: ./out)")
    args = ap.parse_args(argv)

    codes = []
    for campaign, (cfg, figures) in CAMPAIGNS.items():
        out_dir = str(args.out / campaign)
        codes.append(cli.main(["run", str(cfg), "--out", out_dir]))
        for fig in figures:
            codes.append(cli.main(["plot", out_dir, "--figure", fig]))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
