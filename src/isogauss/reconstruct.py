"""Integrate a candidate differential du = U into an immersion and verify it."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .admissibility import AdmissibilityReport, PipelineOptions, run_pipeline
from .curvature import MetricField, metric_field, node_norm
from .errors import NonIntegrableError
from .grid import Chart, grad_all, interior_max
from .surfaces import (OracleData, Surface, generate,
                       smooth_rotation_of_gauss_map)


@dataclass(frozen=True)
class Immersion:
    u: np.ndarray                 # (*grid, n)
    base_index: tuple[int, ...]
    base_value: np.ndarray        # (n,)
    curl_residual: float


def curl_residual(U: np.ndarray, chart: Chart) -> float:
    """Mixed-partials defect ``max |d_i u_j - d_j u_i|`` (normalized).

    Zero (up to discretization) is exactly path independence of the line
    integral of U, i.e. integrability of du = U.
    """
    dU = grad_all(U, chart)                                   # (..., n, j, i)
    defect = dU - np.swapaxes(dU, -1, -2)
    res = np.max(np.sqrt(np.sum(defect ** 2, axis=-3)), axis=(-2, -1))
    scale = 1.0 + float(np.max(node_norm(U, 2)))
    return interior_max(chart, res, margin=4) / scale


def integrate(U: np.ndarray, chart: Chart, base_index: tuple[int, ...] | None = None,
              base_value=0.0, curl_tol: float | None = None,
              on_curl: str = "raise") -> Immersion:
    """Trapezoidal integration of U along axis-ordered staircase paths.

    The path runs from the base node (chart center by default) first along
    axis 0, then axis 1, and so on; path independence is not assumed but
    certified via :func:`curl_residual`.  Above ``curl_tol`` the data fails
    the integrability condition: ``on_curl`` selects whether that raises or
    merely warns (the minimal-surface representative uses the latter).
    """
    if on_curl not in ("raise", "warn"):
        raise ValueError(f"on_curl must be 'raise' or 'warn', got {on_curl!r}")
    n = U.shape[-2] if U.ndim >= 2 else 0
    if U.shape != chart.shape + (n, chart.m):
        raise NonIntegrableError(
            f"U has shape {U.shape}, expected {chart.shape + (n, chart.m)}")
    base_index = tuple(base_index) if base_index is not None else chart.center
    base_value = np.broadcast_to(np.asarray(base_value, dtype=float), (n,)).copy()

    res = curl_residual(U, chart)
    if curl_tol is not None and res > curl_tol:
        msg = (f"mixed-partials residual {res:.3e} exceeds {curl_tol:.3e}: "
               f"du = U is not integrable")
        if on_curl == "raise":
            raise NonIntegrableError(msg, residual=res)
        warnings.warn(msg, stacklevel=2)

    u = np.zeros(chart.shape + (n,))
    u[base_index] = base_value
    # after handling axis a the values are valid on the slab that is free on
    # axes <= a and pinned to the base index on axes > a
    for a in range(chart.m):
        slab = tuple(slice(None) if t <= a else slice(base_index[t], base_index[t] + 1)
                     for t in range(chart.m))
        useg = np.moveaxis(u[slab], a, 0)
        Useg = np.moveaxis(U[slab][..., a], a, 0)
        dx = chart.spacing[a]
        b = base_index[a]
        inc = 0.5 * dx * (Useg[1:] + Useg[:-1])               # trapezoid
        if b < useg.shape[0] - 1:
            useg[b + 1:] = useg[b] + np.cumsum(inc[b:], axis=0)
        if b > 0:
            useg[b - 1::-1] = useg[b] - np.cumsum(inc[b - 1::-1], axis=0)
    return Immersion(u=u, base_index=base_index, base_value=base_value,
                     curl_residual=res)


def verify_immersion(imm: Immersion, metric: MetricField,
                     normals: np.ndarray) -> tuple[float, float]:
    """Re-differentiate u and report the metric and tangency residuals.

    ``normals`` is the ``(*grid, n, d)`` stack of normal columns for any
    codimension ``d``; each column is normalized per node.  Returns interior
    maxima of ``|<u_i, u_j> - g| / (1 + |g|)`` and of
    ``max_a |<u_i, nu^a>| / (1 + |du|)``.
    """
    chart = metric.chart
    du = grad_all(imm.u, chart)
    gram = du.mT @ du
    res_g = node_norm(gram - metric.g, 2) / (1.0 + node_norm(metric.g, 2))
    nu = normals / np.sqrt(np.sum(normals * normals, axis=-2, keepdims=True))
    tang = du.mT @ nu
    res_n = np.max(np.abs(tang), axis=(-2, -1)) / (1.0 + node_norm(du, 2))
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
    return float(np.max(np.sqrt(np.sum((diff - mean) ** 2, axis=-1))))


# ---------------------------------------------------------------------------
# the roundtrip driver: generate, decide, integrate, compare with the oracle


def immerse(report: AdmissibilityReport, chart: Chart,
            options: PipelineOptions) -> Immersion:
    """Integrate an admissible candidate at the pipeline tolerance; only the
    minimal-surface representative, which need not integrate, merely warns."""
    return integrate(report.candidate.U, chart, curl_tol=options.fd_tol(chart),
                     on_curl="warn" if report.method == "minimal_m2" else "raise")


def box_error(u: np.ndarray, oracle_u: np.ndarray, chart: Chart,
              level: int) -> float:
    """Error of refinement ``level`` on the coordinate box that level 0
    measures; NaN if the box is one node wide, where any ``u`` reads 0."""
    region = chart.interior_slices(4 * 2 ** level)
    if any(s.stop - s.start < 2 for s in region):
        return math.nan
    return compare_up_to_translation(u[region], oracle_u[region])


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
                    level: int, perturb_nu: float = 0.0,
                    seed: int = 0) -> RoundtripLevel:
    """Sample ``surface`` on ``chart`` refined ``level`` times, decide, and
    integrate and compare when admissible.  A nonzero ``perturb_nu`` first
    rotates a hypersurface Gauss map smoothly by that magnitude."""
    for _ in range(level):
        chart = chart.refine()
    data = generate(surface, chart)
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
        error = box_error(immerse(report, chart, options).u, data.u, chart, level)
    return RoundtripLevel(chart, data, metric, report, worst, error)


def roundtrip(surface: Surface, chart: Chart, options: PipelineOptions,
              levels: int, perturb_nu: float = 0.0,
              seed: int = 0) -> list[RoundtripRow]:
    """The rows of levels ``0..levels``; only scalars outlive a level, so no
    field of one level is alive while the next is computed."""
    return [roundtrip_level(surface, chart, options, level, perturb_nu,
                            seed).row() for level in range(levels + 1)]
