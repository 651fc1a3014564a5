#!/usr/bin/env python3
"""Convergence orders of the main residuals under grid refinement.

For a few benchmark surfaces this refines the chart several times and prints
the observed order of: the closed-form trace identities, the Gauss-equation
defect, the parallelity residual of the candidate bundle map, and the
reconstruction error.  Healthy output shows orders near 2 everywhere.
"""

import argparse
import itertools

import numpy as np

from isogauss.admissibility import PipelineOptions
from isogauss.curvature import riemann_tensor
from isogauss.grid import interior_max
from isogauss.reconstruct import observed_order, roundtrip_level
from isogauss.surfaces import Ellipsoid, Graph, RoundSphere, generate

BENCHMARKS = [RoundSphere(1.0), Ellipsoid((1.0, 1.5, 2.0)), Graph((1.0, 0.0, 2.0))]


def gauss_defect(data, pack, metric):
    """Interior max of ``|R_ijkl - sum_a (h^a_il h^a_jk - h^a_ik h^a_jl)|``
    over the whole tensor, per node, divided by ``1 + max |quad|``; grid
    first.  ``R_ijkl = g_lp R^p_ijk`` is stored for ``i < j`` and completed by
    antisymmetry, so the norm counts the rows ``j < i`` too."""
    h = data.h_alpha
    quad = (np.einsum("...ail,...ajk->...ijkl", h, h)
            - np.einsum("...aik,...ajl->...ijkl", h, h))
    R = np.zeros_like(quad)
    for n, (i, j) in enumerate(itertools.combinations(range(data.chart.m), 2)):
        R[..., i, j, :, :] = np.einsum("lp...,pk...->...kl", metric.g, pack.R[:, n])
        R[..., j, i, :, :] = -R[..., i, j, :, :]
    axes = (-4, -3, -2, -1)
    defect = np.sqrt(np.sum((R - quad) ** 2, axis=axes))
    scale = 1.0 + float(np.max(np.sqrt(np.sum(quad ** 2, axis=axes))))
    return float(np.max(defect[data.chart.interior])) / scale


def residuals_at(surface, chart, level, finest=None):
    """The residuals of ``chart`` refined ``level`` times, restricted from
    the oracle ``finest`` when it is given."""
    run = roundtrip_level(surface, chart, PipelineOptions(), level,
                          finest=finest)
    chart, data, metric = run.chart, run.data, run.metric
    pack = riemann_tensor(metric)
    margin = 2 * 2 ** level

    # g_inv is components first, the oracle's k grid first
    tr_k = np.einsum("ij...,...ij->...", metric.g_inv, data.k)
    trace_id = interior_max(chart, np.abs(data.H ** 2 - (pack.s + tr_k)), margin)
    return {"trace_identity": trace_id,
            "gauss_defect": gauss_defect(data, pack, metric),
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
        # sampled once, at the finest level, and restricted to the others
        chart = surface.default_chart(args.points)
        finest = generate(surface, chart.refine(2 ** args.levels))
        history = [residuals_at(surface, chart, level, finest)
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
