"""Hypersurface Gauss-map data: the differential A, the third form, diagnostics.

A Gauss field stores the sampled sphere-valued map ``nu`` (shape
``(*grid, m+1)``), its raw coordinate differential ``A`` with columns
``A[..., :, j] = d_j nu``, and the third fundamental form
``k = A^T A`` (exactly symmetric by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import MetricField, to_orthonormal
from .errors import InvalidGaussMapError, SamplingError
from .grid import Chart, grad_all

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class GaussField:
    chart: Chart
    nu: np.ndarray   # (*grid, m+1), unit length per node
    A: np.ndarray    # (*grid, m+1, m)
    k: np.ndarray    # (*grid, m, m)

    @property
    def ambient_dim(self) -> int:
        return self.nu.shape[-1]


def build_gauss_field(chart: Chart, nu_samples: np.ndarray) -> GaussField:
    """Validate and differentiate a sampled unit-normal field.

    Samples whose norm deviates from 1 by less than ``UNIT_NORM_TOL`` are
    renormalized (file-format rounding); larger deviations are an error.
    """
    nu = np.asarray(nu_samples, dtype=float)
    if nu.shape != chart.shape + (chart.m + 1,):
        raise InvalidGaussMapError(
            f"gauss map has shape {nu.shape}, expected {chart.shape + (chart.m + 1,)}")
    if not np.all(np.isfinite(nu)):
        raise SamplingError("gauss map contains non-finite values")
    norms = np.sqrt(np.sum(nu * nu, axis=-1))
    dev = float(np.max(np.abs(norms - 1.0)))
    if dev >= UNIT_NORM_TOL:
        raise InvalidGaussMapError(
            f"gauss map is not unit length: max deviation {dev:.3e}")
    nu = nu / norms[..., None]
    A = grad_all(nu, chart)
    k = np.einsum("...ni,...nj->...ij", A, A)
    k = 0.5 * (k + np.swapaxes(k, -1, -2))
    return GaussField(chart=chart, nu=nu, A=A, k=k)


@dataclass(frozen=True)
class DegeneracyReport:
    """Per-node singular values of dnu measured in g-orthonormal frames."""

    singular_values: np.ndarray   # (*grid, m), descending
    min_singular: float
    max_singular: float
    rank: np.ndarray              # (*grid,), ints
    threshold: float
    invertible: bool


def degeneracy_report(G: GaussField, metric: MetricField,
                      rank_rel_tol: float = 1e-8) -> DegeneracyReport:
    """Rank diagnostics for ``A = dnu`` as a map ``TM -> nu_perp``.

    The singular values are those of ``A`` with the domain measured in g, so
    they are the square roots of the eigenvalues of the third form in
    g-orthonormal frames.  The global verdict is relative: invertible iff the
    smallest singular value anywhere exceeds ``rank_rel_tol`` times the
    largest singular value anywhere.
    """
    k_on = to_orthonormal(metric, G.k)
    eigs = np.linalg.eigvalsh(k_on)          # ascending
    svals = np.sqrt(np.clip(eigs[..., ::-1], 0.0, None))
    max_sv = float(np.max(svals)) if svals.size else 0.0
    min_sv = float(np.min(svals[..., -1]))
    tau = rank_rel_tol * max_sv
    rank = np.sum(svals > tau, axis=-1)
    return DegeneracyReport(singular_values=svals, min_singular=min_sv,
                            max_singular=max_sv, rank=rank, threshold=tau,
                            invertible=bool(min_sv > tau and max_sv > 0.0))


def third_form_trace(k: np.ndarray, metric: MetricField) -> np.ndarray:
    """Tr_g k, equal per node to |A|^2 in g-orthonormal frames."""
    return np.einsum("...ij,...ij->...", metric.g_inv, k)
