#!/usr/bin/env python3
"""Run the forward -> check -> reconstruct -> compare loop over the catalog.

Produces one summary row per surface: verdict, solve method, worst residual,
reconstruction error against the generating immersion, and the observed
convergence order when refinement is enabled.
"""

import argparse
import math
from dataclasses import dataclass

from isogauss.admissibility import PipelineOptions, run_pipeline
from isogauss.curvature import metric_field
from isogauss.reconstruct import compare_up_to_translation, integrate
from isogauss.surfaces import (Catenoid, CliffordTorus, Cylinder, Ellipsoid,
                               EllipsoidM3, Graph, GraphR4, Helicoid,
                               HypersphereM3, Plane, RoundSphere, generate)


@dataclass
class RunConfig:
    points_2d: int = 49
    points_3d: int = 17
    refine: int = 1
    tol_scale: float = 50.0


CATALOG_RUNS = [
    RoundSphere(1.0),
    Ellipsoid((1.0, 1.5, 2.0)),
    Graph((1.0, 0.0, 2.0)),
    Catenoid(),
    Helicoid(),
    Cylinder(1.0),
    Plane(),
    HypersphereM3(1.0),
    EllipsoidM3((1.0, 1.1, 1.2, 1.3)),
    CliffordTorus(1.0, 1.4),
    GraphR4(),
]


def run_surface(surface, cfg: RunConfig):
    points = cfg.points_3d if surface.m == 3 else cfg.points_2d
    chart = surface.default_chart(points)
    options = PipelineOptions(tol_scale=cfg.tol_scale)
    rows = []
    errors = []
    for level in range(cfg.refine + 1):
        data = generate(surface, chart)
        metric = metric_field(chart, data.g)
        report = run_pipeline(metric, data.frame, options)
        worst = max((v for v in report.residuals.values() if not math.isnan(v)),
                    default=math.nan)
        err = math.nan
        if report.admissible:
            imm = integrate(report.candidate.U, chart,
                            curl_tol=options.fd_tol(chart),
                            on_curl="warn" if report.method == "minimal_m2"
                            else "raise")
            region = chart.interior_slices(4 * 2 ** level)
            err = compare_up_to_translation(imm.u[region], data.u[region])
            errors.append(err)
        rows.append((chart.shape, report.verdict, report.method, worst, err))
        chart = chart.refine()
    order = math.nan
    if len(errors) >= 2 and errors[-1] > 0:
        order = math.log2(errors[-2] / errors[-1])
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

    print(f"{'surface':>16} {'grid':>12} {'verdict':>13} {'method':>11} "
          f"{'max_resid':>11} {'rec_error':>11} {'order':>7}")
    for surface in CATALOG_RUNS:
        rows, order = run_surface(surface, cfg)
        for i, (shape, verdict, method, worst, err) in enumerate(rows):
            tag = f"{order:7.2f}" if (i == len(rows) - 1 and not math.isnan(order)) else ""
            print(f"{surface.name:>16} {'x'.join(map(str, shape)):>12} "
                  f"{verdict:>13} {method:>11} {worst:11.3e} {err:11.3e} {tag}")


if __name__ == "__main__":
    import warnings
    warnings.filterwarnings("ignore", message=".*not integrable.*")
    main()
