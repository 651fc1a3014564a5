#!/usr/bin/env python3
"""Convergence orders of the main residuals under grid refinement.

For a few benchmark surfaces this refines the chart several times and prints
the observed order of: the closed-form trace identities, the Gauss-equation
defect, the parallelity residual of the candidate bundle map, and the
reconstruction error.  Healthy output shows orders near 2 everywhere.
"""

import argparse

import numpy as np

from isogauss.admissibility import PipelineOptions
from isogauss.curvature import riemann_tensor
from isogauss.grid import interior_max
from isogauss.reconstruct import observed_order, roundtrip_level
from isogauss.surfaces import (Ellipsoid, Graph, RoundSphere,
                               gauss_codazzi_residuals)

BENCHMARKS = [RoundSphere(1.0), Ellipsoid((1.0, 1.5, 2.0)), Graph((1.0, 0.0, 2.0))]


def residuals_at(surface, chart, level):
    """The residuals of ``chart`` refined ``level`` times."""
    run = roundtrip_level(surface, chart, PipelineOptions(), level)
    chart, data, metric = run.chart, run.data, run.metric
    pack = riemann_tensor(metric)
    margin = 2 * 2 ** level

    tr_k = np.einsum("...ij,...ij->...", metric.g_inv, data.k)
    trace_id = interior_max(chart, np.abs(data.H ** 2 - (pack.s + tr_k)), margin)
    gauss, _ = gauss_codazzi_residuals(data, pack, metric)
    return {"trace_identity": trace_id, "gauss_defect": gauss,
            "parallelity": run.report.residuals["parallelity"],
            "reconstruction": run.rec_error}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=33,
                        help="coarsest grid points per axis")
    parser.add_argument("--levels", type=int, default=2,
                        help="number of refinements")
    args = parser.parse_args()

    for surface in BENCHMARKS:
        chart = surface.default_chart(args.points)
        history = [residuals_at(surface, chart, level)
                   for level in range(args.levels + 1)]
        print(f"\n{surface.name}")
        keys = list(history[0])
        print(f"{'level':>6} " + " ".join(f"{k:>16}" for k in keys))
        for level, row in enumerate(history):
            print(f"{level:>6} " + " ".join(f"{row[k]:16.4e}" for k in keys))
        orders = {k: observed_order(history[-2][k], history[-1][k]) for k in keys}
        print(f"{'order':>6} " + " ".join(f"{orders[k]:16.2f}" for k in keys))


if __name__ == "__main__":
    main()
