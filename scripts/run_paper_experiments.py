#!/usr/bin/env python3
"""Replay both bundled benchmark campaigns and emit plot-ready CSV data.

Writes one trajectory CSV per experiment, a summary.csv per campaign, and
the overlay files used for the standard figures:

  out/nominal/   four barrier-gain controllers under the piecewise
                 disturbance (sliding, gains and inputs overlays)
  out/saturated/ legacy two-phase controller vs. the concave barrier law
                 under actuator saturation (escape overlay)

Usage: python3 scripts/run_paper_experiments.py [--out OUT]
"""

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from barriersmc import experiment  # noqa: E402

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

    any_failed = False
    for campaign, (cfg, figures) in CAMPAIGNS.items():
        specs = experiment.load_config(cfg)
        out_dir = args.out / campaign
        summary = experiment.run_batch(specs, out_dir)
        traj_files = [out_dir / f"{s.name}.csv" for s in specs]
        for fig in figures:
            experiment.emit_plot_data(traj_files, fig,
                                      out_dir / f"fig_{fig}.csv")
        print(f"== {campaign} ({cfg.name}) ==")
        for res in summary.results:
            status = "error" if res.error else (
                "FAIL" if res.failures else "ok")
            t_conv = res.report.t_conv if res.report else None
            print(f"  {res.spec.name:10s} {status:5s} t_conv={t_conv} "
                  f"max|s|={res.report.sigma_measured if res.report else None}")
            any_failed = any_failed or bool(res.failures or res.error)
        print(f"  wrote {out_dir}/summary.csv and "
              f"{', '.join('fig_' + f + '.csv' for f in figures)}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
