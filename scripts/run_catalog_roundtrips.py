#!/usr/bin/env python3
"""Run the forward -> check -> reconstruct -> compare loop over the catalog.

Produces one summary row per ``CATALOG`` entry, built with its factory's
default parameters and labelled by its catalog name: verdict, solve method,
worst residual, reconstruction error against the generating immersion, and
the observed convergence order when refinement is enabled.
"""

import argparse
import math
from dataclasses import dataclass

from isogauss.admissibility import PipelineOptions
from isogauss.reconstruct import observed_order, roundtrip
from isogauss.surfaces import CATALOG


@dataclass
class RunConfig:
    points_2d: int = 49
    points_3d: int = 17
    refine: int = 1
    tol_scale: float = 50.0


def run_surface(surface, cfg: RunConfig):
    """The driver's rows for one surface and the order between its last two
    levels (NaN with a single level or when either error is NaN)."""
    points = cfg.points_3d if surface.m == 3 else cfg.points_2d
    rows = roundtrip(surface, surface.default_chart(points),
                     PipelineOptions(tol_scale=cfg.tol_scale), cfg.refine)
    order = math.nan
    if len(rows) >= 2:
        order = observed_order(rows[-2].rec_error, rows[-1].rec_error)
    return rows, order


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=49)
    parser.add_argument("--refine", type=int, default=1)
    parser.add_argument("--tol-scale", type=float, default=50.0)
    args = parser.parse_args()
    cfg = RunConfig(points_2d=args.points,
                    points_3d=max(9, args.points // 3),
                    refine=args.refine, tol_scale=args.tol_scale)

    print(f"{'surface':>17} {'grid':>12} {'verdict':>13} {'method':>11} "
          f"{'max_resid':>11} {'rec_error':>11} {'order':>7}")
    for name, factory in CATALOG.items():
        rows, order = run_surface(factory(), cfg)
        for i, row in enumerate(rows):
            last = i == len(rows) - 1
            tag = f"{order:7.2f}" if last and not math.isnan(order) else ""
            print(f"{name:>17} {'x'.join(map(str, row.shape)):>12} "
                  f"{row.verdict:>13} {row.method:>11} {row.max_residual:11.3e} "
                  f"{row.rec_error:11.3e} {tag}")


if __name__ == "__main__":
    main()
