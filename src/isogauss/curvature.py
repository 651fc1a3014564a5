"""Intrinsic curvature of a sampled metric.

Index conventions (fixed once, all modules inherit them):

* ``Gamma[..., k, i, j]``  = Christoffel symbol with upper index first,
  symmetric in ``(i, j)``.
* ``R^l_{ijk}`` = curvature of the coordinate frame in the convention
  ``R(e_i, e_j) e_k = R^l_{ijk} e_l`` with
  ``R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{ip}Gamma^p_{jk}
  - Gamma^l_{jp}Gamma^p_{ik}``.
* ``R_low[..., i, j, k, l] = g_{lp} R^p_{ijk}``.
* ``Ric[..., i, l] = g^{jk} R_{ijkl}`` and ``s = g^{il} Ric_{il}``.

With these choices the unit round sphere carries scalar curvature
``m (m - 1) > 0`` and satisfies ``R_{ijkl} = h_{il} h_{jk} - h_{ik} h_{jl}``
with ``h = g``; the test suite pins that calibration and every downstream
formula relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMetricError
from .grid import Chart, grad_all

_SYM_TOL = 1e-8


def node_norm(a: np.ndarray, k: int) -> np.ndarray:
    """Frobenius norm over the last ``k`` axes, per node."""
    return np.sqrt(np.sum(a * a, axis=tuple(range(-k, 0))))


@dataclass(frozen=True)
class MetricField:
    """A symmetric positive definite metric sampled on a chart.

    ``g_inv`` and the Cholesky factor ``chol`` (``g = L L^T``, lower) are
    computed eagerly; columns of ``inv(L)^T`` form g-orthonormal frames.
    """

    chart: Chart
    g: np.ndarray
    g_inv: np.ndarray
    chol: np.ndarray


def metric_field(chart: Chart, g_values: np.ndarray) -> MetricField:
    g = np.asarray(g_values, dtype=float)
    m = chart.m
    if g.shape != chart.shape + (m, m):
        raise SingularMetricError(
            f"metric has shape {g.shape}, expected {chart.shape + (m, m)}")
    if not np.all(np.isfinite(g)):
        raise SingularMetricError("metric contains non-finite entries")
    scale = max(float(np.max(np.abs(g))), 1e-300)
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if asym > _SYM_TOL * scale:
        raise SingularMetricError(f"metric not symmetric: asymmetry {asym:.3e}")
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    eigs = np.linalg.eigvalsh(g)
    if np.min(eigs) <= 0:
        node = tuple(int(i) for i in np.argwhere(eigs[..., 0] <= 0)[0][:m])
        raise SingularMetricError(
            f"metric not positive definite at node {node} "
            f"(min eigenvalue {np.min(eigs):.3e})", node=node)
    g_inv = np.linalg.inv(g)
    eye = np.eye(m)
    err = np.max(node_norm(np.einsum("...ik,...kj->...ij", g, g_inv) - eye, 2))
    rel = float(np.max(node_norm(g, 2)) * np.max(node_norm(g_inv, 2)))
    if err > 1e-12 * max(1.0, rel):
        raise SingularMetricError(
            f"metric inversion failed the identity check: {err:.3e}")
    return MetricField(chart=chart, g=g, g_inv=g_inv, chol=np.linalg.cholesky(g))


@dataclass(frozen=True)
class CurvaturePack:
    """Christoffels plus the Riemann family of one metric."""

    chart: Chart
    Gamma: np.ndarray      # (*grid, m, m, m)  Gamma^k_ij
    R_low: np.ndarray      # (*grid, m, m, m, m)  R_ijkl
    Ric: np.ndarray        # (*grid, m, m)
    s: np.ndarray          # (*grid,)


def christoffel(metric: MetricField) -> np.ndarray:
    """Christoffel symbols ``Gamma^k_ij`` of the Levi-Civita connection."""
    chart = metric.chart
    dg = grad_all(metric.g, chart)                    # [..., i, j, l] = d_l g_ij
    low = 0.5 * (np.einsum("...jli->...lij", dg)      # d_i g_jl
                 + np.einsum("...ilj->...lij", dg)    # d_j g_il
                 - np.einsum("...ijl->...lij", dg))   # d_l g_ij
    return np.einsum("...kl,...lij->...kij", metric.g_inv, low)


def riemann_tensor(metric: MetricField, Gamma: np.ndarray | None = None) -> CurvaturePack:
    """Full curvature data of the metric (see module docstring for signs)."""
    chart = metric.chart
    if Gamma is None:
        Gamma = christoffel(metric)
    dG = grad_all(Gamma, chart)                       # [..., l, j, k, a] = d_a G^l_jk
    R = (np.einsum("...ljki->...lijk", dG)
         - np.einsum("...likj->...lijk", dG)
         + np.einsum("...lip,...pjk->...lijk", Gamma, Gamma)
         - np.einsum("...ljp,...pik->...lijk", Gamma, Gamma))
    R_low = np.einsum("...lp,...pijk->...ijkl", metric.g, R)
    Ric = np.einsum("...jk,...ijkl->...il", metric.g_inv, R_low)
    s = np.einsum("...il,...il->...", metric.g_inv, Ric)
    return CurvaturePack(chart=chart, Gamma=Gamma, R_low=R_low, Ric=Ric, s=s)


def raise_index(metric: MetricField, b_low: np.ndarray) -> np.ndarray:
    """Bilinear form -> operator: ``b^i_j = g^{ik} b_kj``."""
    return np.einsum("...ik,...kj->...ij", metric.g_inv, b_low)


def to_orthonormal(metric: MetricField, b_low: np.ndarray) -> np.ndarray:
    """Express a (0,2)-form in per-node g-orthonormal frames.

    Returns ``inv(L) b inv(L)^T`` where ``g = L L^T``; symmetric input gives
    a symmetric output whose eigenvalues are those of the g-raised operator.
    """
    tmp = np.linalg.solve(metric.chol, b_low)
    return np.swapaxes(np.linalg.solve(metric.chol, np.swapaxes(tmp, -1, -2)), -1, -2)


def antisymmetry_defect(metric: MetricField, Om_op: np.ndarray) -> float:
    """Max deviation of an operator field from so_g (g Om skew)."""
    gOm = np.einsum("...ik,...kj->...ij", metric.g, Om_op)
    scale = 1.0 + float(np.max(node_norm(gOm, 2)))
    return float(np.max(node_norm(gOm + np.swapaxes(gOm, -1, -2), 2))) / scale


def curvature_operator(pack: CurvaturePack, metric: MetricField,
                       Om_op: np.ndarray, check: bool = True) -> np.ndarray:
    """Curvature operator on 2-forms, applied to a g-antisymmetric operator.

    Input and output are operator fields ``(*grid, m, m)``.  The overall sign
    is fixed by the calibration constraint that the unit round sphere return
    ``2 * Om`` (equivalently, Gauss-compatible data satisfy
    ``R(Om) = 2 h Om h`` with ``h`` the g-raised second fundamental form).
    """
    if check and antisymmetry_defect(metric, Om_op) > 1e-8:
        raise DomainError("operator argument is not g-antisymmetric")
    Om_up = np.einsum("...kp,...pl->...kl", Om_op, metric.g_inv)
    T = np.einsum("...ip,...jq,...pqkl,...kl->...ij",
                  metric.g_inv, metric.g_inv, pack.R_low, Om_up)
    return -np.einsum("...ip,...pj->...ij", T, metric.g)
