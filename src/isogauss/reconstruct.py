"""Integrate a candidate differential du = U into an immersion and verify it."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .admissibility import AdmissibilityReport, PipelineOptions, run_pipeline
from .curvature import (MetricField, components_first, metric_field, node_max,
                        node_norm, node_product)
from .grid import Chart, grad_all, integrate, interior_max
from .surfaces import (OracleData, Surface, generate,
                       smooth_rotation_of_gauss_map)


def verify_immersion(u: np.ndarray, metric: MetricField,
                     normals: np.ndarray) -> tuple[float, float]:
    """Re-differentiate the immersion ``u`` and report the metric and
    tangency residuals.

    ``u`` is the ``(n, *grid)`` output of :func:`integrate`; ``normals`` is
    the grid-first ``(*grid, n, d)`` stack of normal columns of a dataset,
    for any codimension ``d``, and each column is normalized per node.
    Returns interior maxima of ``|<u_i, u_j> - g| / (1 + |g|)`` and of
    ``max_a |<u_i, nu^a>| / (1 + |du|)``, each product a
    :func:`isogauss.curvature.node_product` sum.
    """
    chart = metric.chart
    du = grad_all(u, chart)                                   # [n, i]
    duT = du.swapaxes(0, 1)
    gram = node_product(duT, du)
    gram -= metric.g
    res_g = node_norm(gram, 2) / (1.0 + node_norm(metric.g, 2))
    nu = components_first(normals, 2)                         # [n, a]
    nu /= node_norm(nu, 1)
    tang = node_product(duT, nu)
    res_n = node_max(np.abs(tang), 2) / (1.0 + node_norm(du, 2))
    # u integrates a derived field: strip its boundary-layer error margin
    return interior_max(chart, res_g, margin=4), interior_max(chart, res_n, margin=4)


def compare_up_to_translation(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation of two immersions after removing the mean offset.

    Rotation is *not* quotiented: the shared Gauss map pins it, only the
    integration constant is free.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    mean = np.mean(diff.reshape(-1, diff.shape[-1]), axis=0)
    return float(np.max(node_norm(np.moveaxis(diff - mean, -1, 0), 1)))


# ---------------------------------------------------------------------------
# the roundtrip driver: generate, decide, integrate, compare with the oracle


def box_error(u: np.ndarray, oracle_u: np.ndarray, chart: Chart,
              level: int) -> float:
    """Error of refinement ``level`` on the coordinate box that level 0
    measures, for the ``(n, *grid)`` output ``u`` of :func:`integrate` and
    the grid-first oracle; NaN if the box is one node wide, where any ``u``
    reads 0."""
    region = chart.interior_slices(4 * 2 ** level)
    if any(s.stop - s.start < 2 for s in region):
        return math.nan
    return compare_up_to_translation(np.moveaxis(u, 0, -1)[region],
                                     oracle_u[region])


def observed_order(coarse: float, fine: float) -> float:
    """Order between the errors of two successive refinements; NaN unless
    both are finite and positive."""
    if not all(0 < e < math.inf for e in (coarse, fine)):
        return math.nan
    return math.log2(coarse / fine)


class RoundtripRow(NamedTuple):
    shape: tuple[int, ...]
    verdict: str
    method: str
    max_residual: float
    rec_error: float
    nullspace_gap: float


class RoundtripLevel(NamedTuple):
    chart: Chart
    data: OracleData
    metric: MetricField
    report: AdmissibilityReport
    max_residual: float     # worst finite residual
    rec_error: float        # NaN unless admissible with a measurable box

    def row(self) -> RoundtripRow:
        return RoundtripRow(self.chart.shape, self.report.verdict,
                            self.report.method, self.max_residual, self.rec_error,
                            self.report.residuals.get("nullspace_gap", math.nan))


def roundtrip_level(surface: Surface, chart: Chart, options: PipelineOptions,
                    level: int, perturb_nu: float = 0.0, seed: int = 0,
                    finest: OracleData | None = None) -> RoundtripLevel:
    """Sample ``surface`` on ``chart`` refined ``level`` times, decide, and
    integrate and compare when admissible.  Given ``finest``, the oracle of
    a finer refinement of ``chart``, the level restricts it
    (:meth:`isogauss.surfaces.OracleData.restrict`) instead of sampling;
    the result is the same bit for bit.  A nonzero ``perturb_nu`` first
    rotates a hypersurface Gauss map smoothly by that magnitude."""
    chart = chart.refine(2 ** level)
    data = (generate(surface, chart) if finest is None
            else finest.restrict(chart))
    metric = metric_field(chart, data.g)
    normals = data.frame
    if perturb_nu:
        normals = smooth_rotation_of_gauss_map(
            normals[..., 0], chart, perturb_nu, seed=seed)[..., None]
    report = run_pipeline(metric, normals, options)
    worst = max((v for v in report.residuals.values() if not math.isnan(v)),
                default=math.nan)
    error = math.nan
    if report.admissible:
        U = report.candidate.U
        if report.method == "minimal_m2":
            # the data fix only the associated family: turn to the oracle's
            # member by the center Hopf angle delta, h_{phi + delta} = h_phi
            # (cos delta - sin delta J) in the Cholesky frame; U is linear in h
            node = (slice(None),) * 2 + chart.center
            Li = metric.chol_inv
            z = [complex(*(Li[node] @ h @ Li[node].T)[0])
                 for h in (data.h_alpha[chart.center][0],
                           report.candidate.h_alpha[0][node])]
            turn = z[0] / z[1] / abs(z[0] / z[1])      # exp(i delta)
            J = np.array([[0.0, -1.0], [1.0, 0.0]])
            UJ = node_product(node_product(U, Li.swapaxes(0, 1)), J)
            U = turn.real * U - turn.imag * node_product(
                UJ, metric.chol.swapaxes(0, 1))
        error = box_error(integrate(U, chart), data.u, chart, level)
    return RoundtripLevel(chart, data, metric, report, worst, error)


def roundtrip(surface: Surface, chart: Chart, options: PipelineOptions,
              levels: int, perturb_nu: float = 0.0,
              seed: int = 0) -> list[RoundtripRow]:
    """The rows of levels ``0..levels``.  The surface is sampled once, on
    the finest chart, and every level restricts that oracle; beside it only
    scalars outlive a level, so the peak is the finest level's."""
    finest = generate(surface, chart.refine(2 ** levels))
    return [roundtrip_level(surface, chart, options, level, perturb_nu, seed,
                            finest).row() for level in range(levels + 1)]
