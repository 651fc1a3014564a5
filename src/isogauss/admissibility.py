"""Decide whether sampled (metric, Gauss map) data admits an isometric immersion.

The decision pipeline follows four steps: positivity of the scalar invariant
``q = s + Tr_g k``; recovery of a candidate second fundamental form ``h``
(closed form when ``q > 0``, a per-node homogeneous linear system solved by
an eigensolve of its Gram matrix when ``q = 0`` and ``m >= 3``, one member
of the associated family, from its Hopf angle, when ``q = 0`` and
``m = 2``); the quadratic check ``h^2 = k``; and isometry plus parallelity
of the bundle map ``U`` that would be the differential of the immersion.
Every codimension ``d`` shares the normal frame of :mod:`isogauss.codim`
and steps 1, 3 and 4; normal data of codimension ``d >= 2`` recovers its
candidates in step 2 from the trace matrix.  All verdicts carry named
residuals (never bare booleans) so that convergence behaviour can be
asserted by callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codim import (RANK_REL_TOL, _block_products, build_normal_frame,
                    frame_consistency, mean_curvature_vector, second_forms,
                    third_forms, weingarten_combination)
from .curvature import (CurvaturePack, MetricField, node_max, node_norm,
                        riemann_tensor, spd_solve, symmetric_eig,
                        to_orthonormal)
from .errors import (BranchError, ConfigurationError, DegenerateGaussMapError,
                     DomainError)
from .grid import Chart, align_signs, grad_all, interior_max

RESIDUAL_KEYS = ("step1_positivity", "h_squared", "isometry", "parallelity",
                 "gauss_condition_m2", "conformality_m2", "nullspace_gap")

VERDICT_ADMISSIBLE = "admissible"
VERDICT_REJECTED = "rejected"
VERDICT_INAPPLICABLE = "inapplicable"

METHODS = ("auto", "theorem2", "theorem3")


@dataclass(frozen=True)
class PipelineOptions:
    """Tunable knobs of the decision pipeline.

    ``tol_scale`` is the constant C in the C*dx^2 residual thresholds.
    Theorem3's gap certificate and the trace matrix's unit-eigenvalue count
    share ``unit_tol = max(1e-6, C*dx^2)``, so finite-difference input is
    judged at its own accuracy level while exact input keeps a tight floor.
    """

    tol_scale: float = 50.0
    method: str = "auto"           # auto | theorem2 | theorem3
    sign_branch: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ConfigurationError(
                f"tol_scale must be finite and > 0, got {self.tol_scale!r}")
        if self.method not in METHODS or self.sign_branch not in (1, -1):
            raise ConfigurationError(
                f"method must be one of {', '.join(METHODS)} and sign_branch "
                f"1 or -1, got {self.method!r} and {self.sign_branch!r}")

    def fd_tol(self, chart: Chart) -> float:
        return self.tol_scale * chart.max_spacing ** 2

    def unit_tol(self, chart: Chart) -> float:
        return max(1e-6, self.fd_tol(chart))


@dataclass(frozen=True)
class CandidateSolution:
    """Per-node candidate (h^a, H^a, U) produced by one solve route; the
    normal axis has length d (1 for hypersurfaces)."""

    h_alpha: np.ndarray    # (*grid, d, m, m), symmetric
    H_alpha: np.ndarray    # (*grid, d), = Tr_g h^a
    U: np.ndarray          # (*grid, n, m)
    method: str
    sign_branch: int


@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: str
    failed_step: str | None
    residuals: dict[str, float]
    thresholds: dict[str, float]
    method: str
    candidate: CandidateSolution | None = None
    notes: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def admissible(self) -> bool:
        return self.verdict == VERDICT_ADMISSIBLE


def _nan_residuals() -> dict[str, float]:
    return {key: math.nan for key in RESIDUAL_KEYS}


# ---------------------------------------------------------------------------
# step 1


def third_form_trace(k: np.ndarray, metric: MetricField) -> np.ndarray:
    """Tr_g k, equal per node to |A|^2 in g-orthonormal frames."""
    return np.einsum("...ij,...ij->...", metric.g_inv, k)


@dataclass(frozen=True)
class Step1Result:
    classification: str     # positive | minimal | rejected | mixed
    q: np.ndarray
    qn_min: float           # interior extremes of the per-node normalized q
    qn_max: float
    residual: float         # normalized negativity excess
    threshold: float
    H: np.ndarray | None    # positive branch only


def step1_positivity(s: np.ndarray, k: np.ndarray, metric: MetricField,
                     options: PipelineOptions | None = None) -> Step1Result:
    """Classify ``q = s + Tr_g k``: positive, zero (minimal), or negative.

    ``k`` is the third form, summed over the normal directions.  On the
    positive branch ``H = sqrt(q)`` is the mean curvature (its length in
    codimension ``d >= 2``).  A sign change across the chart beyond noise is
    classified ``mixed``; the smooth-square-root subtlety makes any branch
    choice there a guess, so the pipeline reports the data inapplicable
    instead of picking one.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    tr_k = third_form_trace(k, metric)
    q = s + tr_k
    # FD noise in q scales with the local field sizes: normalize pointwise so
    # a chart mixing O(10) and O(0.1) values still classifies cleanly
    local = 1.0 + np.abs(s) + np.abs(tr_k)
    qn = (q / local)[chart.interior]
    tau = options.fd_tol(chart)
    qn_min = float(np.min(qn))
    qn_max = float(np.max(qn))
    residual = max(0.0, -qn_min)
    if qn_min < -tau:
        return Step1Result("rejected", q, qn_min, qn_max, residual, tau, None)
    if qn_min > tau:
        # clip guards boundary-layer noise; interior values are all positive
        H = np.sqrt(np.clip(q, tau * local, None))
        return Step1Result("positive", q, qn_min, qn_max, residual, tau, H)
    if qn_max <= tau:
        return Step1Result("minimal", q, qn_min, qn_max, residual, tau, None)
    return Step1Result("mixed", q, qn_min, qn_max, residual, tau, None)


# ---------------------------------------------------------------------------
# candidate h: three routes


def h_from_theorem2(Ric: np.ndarray, k: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Closed-form candidate ``h = (Ric + k) / H`` (positive-trace branch)."""
    if float(np.min(np.abs(H))) <= 1e-12:
        raise BranchError(
            "mean curvature vanishes somewhere; use the linear-system or "
            "minimal-surface route instead")
    h = (Ric + k) / H[..., None, None]
    return 0.5 * (h + np.swapaxes(h, -1, -2))


@dataclass(frozen=True)
class Theorem3Result:
    h: np.ndarray | None
    gap: np.ndarray            # (*grid,) sigma_last / sigma_second_last
    has_nullspace: np.ndarray  # (*grid,) bool
    unique: np.ndarray         # (*grid,) bool
    frac_unique: float
    status: str                # ok | no_solution | indeterminate
    unit_tol: float


def _symmetric_basis(m: int) -> np.ndarray:
    mats = []
    for i in range(m):
        e = np.zeros((m, m))
        e[i, i] = 1.0
        mats.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j] = e[j, i] = 1.0
            mats.append(e)
    return np.array(mats)


def _antisymmetric_basis(m: int) -> np.ndarray:
    mats = []
    for a in range(m):
        for b in range(a + 1, m):
            w = np.zeros((m, m))
            w[a, b] = 1.0
            w[b, a] = -1.0
            mats.append(w)
    return np.array(mats)


# theorem3 assembles its per-node system this many nodes at a time (rounded
# to whole axis-0 slabs), so its temporaries do not grow with the grid
_THEOREM3_BLOCK_NODES = 4096


def h_from_theorem3(pack: CurvaturePack, k: np.ndarray, metric: MetricField,
                    options: PipelineOptions | None = None) -> Theorem3Result:
    """Per-node nullspace solve of ``h k^{-1} R(Om) = 2 Om h`` over so_g.

    Assembles, for every node, the linear map on symmetric ``h`` obtained by
    letting ``Om`` run over the m(m-1)/2 basis elements of so_g, and takes the
    bottom eigenvector of its trace-scaled Gram matrix as the nullspace.  A
    one-dimensional numerical nullspace (small last singular value, clear gap
    to the second-last) certifies uniqueness up to scale; the missing scale is
    restored from ``Tr(h^2) = Tr k`` and the sign is fixed once per chart
    (trace >= 0 at the center) and continued seamlessly.

    The last singular value is the residual norm ``|mat v|`` of that
    eigenvector, so the gap keeps the accuracy of an SVD.  The others are
    square roots of Gram eigenvalues, resolved only to about ``1e-8`` of the
    largest; a gap tolerance below that cannot separate the second-last
    from zero.  The system is assembled in blocks of whole axis-0 slabs of
    about ``_THEOREM3_BLOCK_NODES`` nodes, so its temporaries do not grow
    with the grid.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    m = chart.m
    if m < 3:
        raise DomainError("the linear-system route needs m >= 3")
    k_eigs = symmetric_eig(to_orthonormal(metric, k))
    kop_inv = spd_solve(k, metric.g)
    if (kop_inv is None or float(np.min(k_eigs))
            <= RANK_REL_TOL * max(float(np.max(k_eigs)), 1e-300)):
        raise DegenerateGaussMapError("third form not invertible; dnu is degenerate")
    ginv = metric.g_inv
    g = metric.g

    W = _antisymmetric_basis(m)            # (nb, m, m)
    S = _symmetric_basis(m)                # (p, m, m)
    nb, p = W.shape[0], S.shape[0]
    null = np.empty(chart.shape + (p,))
    sig1, sig_prev, sig_last = np.empty((3,) + chart.shape)
    step = max(1, _THEOREM3_BLOCK_NODES // math.prod(chart.shape[1:]))
    for i0 in range(0, chart.shape[0], step):
        blk = slice(i0, i0 + step)
        gi = ginv[blk]
        Om_up = np.einsum("...ik,bkl,...lj->...bij", gi, W, gi, optimize=True)
        T = np.einsum("...ip,...jq,...pqkl,...bkl->...bij",
                      gi, gi, pack.R_low[blk], Om_up, optimize=True)
        CO = -(T @ g[blk][..., None, :, :])                # R(Om_b) as operator
        M = kop_inv[blk][..., None, :, :] @ CO
        rows = (np.einsum("eik,...bkj->...bije", S, M, optimize=True)
                - 2.0 * np.einsum("bik,...kl,elj->...bije", W, gi, S,
                                  optimize=True))
        mat = rows.reshape(rows.shape[:-4] + (nb * m * m, p))
        gram = mat.mT @ mat
        tr = np.einsum("...ii->...", gram)
        ev, V = np.linalg.eigh(gram / tr[..., None, None])
        null[blk] = V[..., :, 0]
        sig1[blk] = np.sqrt(ev[..., -1])
        sig_prev[blk] = np.sqrt(np.clip(ev[..., 1], 0.0, None))
        resid = mat @ V[..., :, :1]
        sig_last[blk] = node_norm(resid, 2) / np.sqrt(tr)
    utol = options.unit_tol(chart)
    has_null = sig_last <= utol * sig1
    unique = has_null & (sig_prev > utol * sig1)
    gap = sig_last / np.where(sig_prev > 0, sig_prev, np.inf)

    inter = chart.interior
    frac_has = float(np.mean(has_null[inter]))
    frac_unique = float(np.mean(unique[inter]))
    if frac_has < 0.99:
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "no_solution", utol)
    if frac_unique < 0.99:
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "indeterminate", utol)

    h_raw = (null @ S.reshape(p, m * m)).reshape(chart.shape + (m, m))
    hop = ginv @ h_raw
    tr_h2 = np.einsum("...ij,...ji->...", hop, hop)
    tr_k = third_form_trace(k, metric)
    lam = np.sqrt(tr_k / np.where(tr_h2 > 0, tr_h2, np.inf))
    if not np.all(np.isfinite(lam)):
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "no_solution", utol)
    h = lam[..., None, None] * h_raw

    # per-node eigenvector signs are arbitrary: continue them from the center
    h = h * align_signs(chart, h)[..., None, None]

    H = np.einsum("...ij,...ij->...", ginv, h)
    c = chart.center
    lead = H[c]
    if abs(lead) <= 1e-8 * (1.0 + float(np.max(np.abs(H)))):
        hc = h[c].ravel()
        lead = hc[np.argmax(np.abs(hc))]
    if lead * options.sign_branch < 0:
        h = -h
    return Theorem3Result(h, gap, has_null, unique, frac_unique, "ok", utol)


def hopf_angle_gradient(metric: MetricField, Gamma: np.ndarray,
                        kappa: np.ndarray) -> np.ndarray:
    """Gradient ``f_j = chol[j, a] dphi(e_a)`` of the Hopf angle, m = 2.

    In the Cholesky frame ``e_a`` (the rows of ``chol_inv``) a trace-free
    ``h`` with ``h^2 = kappa^2 I`` is ``h_phi = kappa [[cos phi, sin phi],
    [sin phi, -cos phi]]``.  Codazzi for it reads ``dphi(e1) = -2 w(e1) +
    e2(log kappa)`` and ``dphi(e2) = -2 w(e2) - e1(log kappa)`` with
    ``w(X) = g(nabla_X e1, e2)``; ``f`` is closed exactly when the Hopf
    differential is holomorphic.
    """
    L, Li = metric.chol, metric.chol_inv
    # e1 = d_0 / L00 and g(d_i, e2) = L_i1, so w_j = L11 Gamma^1_j0 / L00
    f = (-2.0 * L[..., 1, 1] / L[..., 0, 0])[..., None] * Gamma[..., 1, :, 0]
    dlog = grad_all(np.log(kappa), metric.chart)
    e1_log = Li[..., 0, 0] * dlog[..., 0]
    e2_log = Li[..., 1, 0] * dlog[..., 0] + Li[..., 1, 1] * dlog[..., 1]
    f[..., 0] += L[..., 0, 0] * e2_log
    f[..., 1] += L[..., 1, 0] * e2_log - L[..., 1, 1] * e1_log
    return f


def h_from_hopf_angle(metric: MetricField, Gamma: np.ndarray, k: np.ndarray,
                      sign: int = 1) -> np.ndarray:
    """The member ``chol h_phi chol^T`` of the associated family of minimal
    m = 2 data whose Hopf angle is 0 at the chart center (``sign = -1`` is
    ``phi = pi``, i.e. ``-h``); ``kappa^2 = tr(k_on) / 2`` and ``phi``
    integrates :func:`hopf_angle_gradient`."""
    from .reconstruct import integrate     # reconstruct imports this module
    k_on = to_orthonormal(metric, k)
    kappa = np.sqrt(0.5 * (k_on[..., 0, 0] + k_on[..., 1, 1]))
    phi = integrate(hopf_angle_gradient(metric, Gamma, kappa)[..., None, :],
                    metric.chart).u[..., 0]
    c, s = sign * kappa * np.cos(phi), sign * kappa * np.sin(phi)
    h_on = np.empty(k.shape)
    h_on[..., 0, 0], h_on[..., 1, 1] = c, -c
    h_on[..., 0, 1] = h_on[..., 1, 0] = s
    return metric.chol @ h_on @ metric.chol.mT


# ---------------------------------------------------------------------------
# checks (steps 3 and 4, plus the appendix cross-check)


def check_h_squared(h_alpha: np.ndarray, k_ab: np.ndarray,
                    metric: MetricField) -> float:
    """Interior max of ``|h^a g^{-1} h^b - k^{ab}| / (1 + |k^{ab}|)`` per
    node, over every block of the ``(*grid, d, m, m)`` lowered second forms
    and the ``(*grid, d, d, m, m)`` mixed third forms (``h^2 = k`` when
    ``d = 1``)."""
    defect = _block_products(h_alpha @ metric.g_inv[..., None, :, :], h_alpha)
    defect -= k_ab
    res = node_norm(defect, 4) / (1.0 + node_norm(k_ab, 4))
    return interior_max(metric.chart, res)


def build_U(A: np.ndarray, k: np.ndarray, h: np.ndarray,
            frame: np.ndarray) -> np.ndarray:
    """Solve ``A^T U = -h`` with columns in the normal complement.

    ``A`` is the ``(*grid, n, m)`` differential of one normal direction,
    ``k = A^T A`` its third form and ``h`` its second form.  That direction
    is an everywhere-invertible combination of the frame (the unit normal
    when ``d = 1``; :func:`isogauss.codim.weingarten_combination`) and ``h``
    the same combination of the ``h^a``: the two combine covariantly, so
    any such combination determines the same U.  ``A`` has full column rank
    on non-degenerate data, so the solution is ``U = -A k^{-1} h``, with
    ``k^{-1} h = L^{-T} (L^{-1} h)`` from the Cholesky factor ``k = L L^T``
    (:func:`isogauss.curvature.spd_solve`); a ``k`` that is not positive
    definite at some node raises :class:`DegenerateGaussMapError`.
    Columns are re-projected onto the complement of the ``(*grid, n, d)``
    normal frame to strip the O(dx^2) normal component that discrete
    differentiation leaves in ``A``.
    """
    kinvh = spd_solve(k, h)
    if kinvh is None:
        raise DegenerateGaussMapError(
            "third form not positive definite, cannot invert A^*")
    U = -(A @ kinvh)
    for a in range(frame.shape[-1]):
        nu = frame[..., a]
        U = U - nu[..., :, None] * (nu[..., None, :] @ U)
    return U


def check_isometry(U: np.ndarray, metric: MetricField) -> float:
    """Interior max of ``|U^T U - g| / (1 + |g|)`` per node."""
    utu = U.mT @ U
    res = node_norm(utu - metric.g, 2) / (1.0 + node_norm(metric.g, 2))
    return interior_max(metric.chart, res)


def check_parallel(U: np.ndarray, Gamma: np.ndarray, frame: np.ndarray,
                   chart: Chart) -> float:
    """Parallelity defect of U: tangential part of dU minus the Gamma term.

    Per node and index pair (i, j) this is the norm of
    ``d_i u_j - sum_a <d_i u_j, nu^a> nu^a - Gamma^k_ij u_k`` over the
    columns of the ``(*grid, n, d)`` normal frame, normalized by
    ``1 + |Gamma| |U|``; the interior maximum is returned.
    """
    m = chart.m
    dU = grad_all(U, chart)                                   # (..., n, j, i)
    flat = dU.reshape(U.shape[:-1] + (m * m,))
    tang = dU.copy()
    for a in range(frame.shape[-1]):
        nu = frame[..., a]
        ip = (nu[..., None, :] @ flat).reshape(chart.shape + (1, m, m))
        tang -= nu[..., :, None, None] * ip
    del dU, flat
    # [..., n, i, j] = u_k Gamma^k_ij
    gam = (U @ Gamma.reshape(chart.shape + (m, m * m))).reshape(tang.shape)
    tang -= np.swapaxes(gam, -1, -2)
    del gam
    # norm over n, then the largest over (i, j)
    res = node_max(node_norm(np.moveaxis(tang, -3, -1), 1), 2)
    scale = 1.0 + node_norm(Gamma, 3) * node_norm(U, 2)
    # U is a derived field: a deeper margin keeps its boundary-layer
    # truncation error out of the stencil
    return interior_max(chart, res / scale, margin=4)


@dataclass(frozen=True)
class MinimalCaseResult:
    gauss_condition: float
    conformality: float


def _det2(a: np.ndarray) -> np.ndarray:
    """Determinant of each ``2 x 2`` matrix, elementwise."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def check_minimal_m2(metric: MetricField, k: np.ndarray,
                     s: np.ndarray) -> MinimalCaseResult:
    """Minimal-surface admissibility for m = 2: K + sqrt(det_g k) = 0 and
    conformality of the Gauss map (unsigned); ``k`` is its third form."""
    chart = metric.chart
    if chart.m != 2:
        raise DomainError("the minimal-surface check applies to m = 2 only")
    K = 0.5 * s
    det_gk = _det2(k) / _det2(metric.g)
    root = np.sqrt(np.clip(det_gk, 0.0, None))
    inter = chart.interior
    scale1 = 1.0 + float(np.max(np.abs(K[inter]))) + float(np.max(root[inter]))
    gauss_res = float(np.max(np.abs(K + root)[inter])) / scale1

    k_on = to_orthonormal(metric, k)
    s1 = np.sqrt(np.clip(k_on[..., 0, 0], 0.0, None))
    s2 = np.sqrt(np.clip(k_on[..., 1, 1], 0.0, None))
    sigma = 0.5 * (s1 + s2)
    sigma = np.where(sigma > 0, sigma, np.inf)
    pw = np.abs(k_on[..., 0, 1]) / sigma ** 2 + np.abs(s1 - s2) / sigma
    conf_res = float(np.max(pw[inter]))
    return MinimalCaseResult(gauss_condition=gauss_res, conformality=conf_res)


def codazzi_residual(h: np.ndarray, Gamma: np.ndarray, metric: MetricField) -> float:
    """Interior max of ``(nabla_i h)_jk - (nabla_j h)_ik`` (normalized)."""
    chart = metric.chart
    m = chart.m
    dh = grad_all(h, chart)                                   # (..., j, k, i)
    G = Gamma.reshape(chart.shape + (m, m * m))
    # [..., (i, j), k] = Gamma^p_ij h_pk and [..., j, (i, k)] = h_jp Gamma^p_ik
    t1 = (G.mT @ h).reshape(dh.shape)
    t2 = (h @ G).reshape(dh.shape)
    nabla = np.einsum("...jki->...ijk", dh) - t1
    nabla -= np.swapaxes(t2, -3, -2)
    del dh, t1, t2
    defect = nabla - np.swapaxes(nabla, -3, -2)
    del nabla
    res = node_norm(defect, 3)
    scale = 1.0 + node_norm(h, 2) * (1.0 + node_norm(Gamma, 3))
    return interior_max(chart, res / scale, margin=4)


# ---------------------------------------------------------------------------
# the pipeline

# the residuals a candidate is judged by, in report order (a residual
# without a threshold is never judged)
_JUDGED = ("gauss_condition_m2", "conformality_m2", "h_squared", "isometry",
           "parallelity")


def _failed_step(failing: list[str]) -> str:
    if failing[0].endswith("_m2"):
        return "minimal-case"
    return "3" if {"h_squared", "aalpha_consistency"} & set(failing) else "4"


def _failure_note(failing: list[str], step: str,
                  hypersurface: bool) -> list[str]:
    if not hypersurface:
        return [f"failing: {', '.join(failing)}"]
    if step == "3":
        return ["candidate h does not square to the third form"]
    if step == "4":
        return [f"bundle map fails the {' and '.join(failing)} check"]
    return []


def _badness(report: AdmissibilityReport) -> float:
    return max(report.residuals[k]
               for k in ("h_squared", "isometry", "parallelity"))


def run_pipeline(metric: MetricField, normals: np.ndarray,
                 options: PipelineOptions | None = None) -> AdmissibilityReport:
    """Execute the full decision algorithm on (g, normals) of any codimension.

    ``normals`` is the ``(*grid, n, d)`` stack of normal spans; hypersurface
    data is the one-column case ``d = 1``.  Every codimension shares the
    normal frame, the invertibility gate, step 1 and steps 3-4.  In step 2
    hypersurface data takes the theorem2, theorem3 or minimal_m2 route;
    ``d >= 2`` takes the trace-matrix route of :mod:`isogauss.codim`.  Every
    route hands steps 3-4 the same ``(h^a, H^a)`` candidates.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    tau = options.fd_tol(chart)
    sign = options.sign_branch
    residuals = _nan_residuals()
    thresholds = _nan_residuals()
    notes: list[str] = []
    extra: dict[str, float] = {}

    def finish(verdict, step, method, note=None):
        return AdmissibilityReport(verdict, step, residuals, thresholds, method,
                                   None, notes + ([note] if note else []), extra)

    hypersurface = normals.shape[-1] == 1
    if not hypersurface and options.method != "auto":
        notes.append(f"method {options.method} applies to hypersurface "
                     f"data only; normal data of codimension "
                     f"{normals.shape[-1]} takes the codim route")
    nf = build_normal_frame(chart, normals)
    extra["frame_orthonormality_defect"] = nf.orthonormality_defect
    extra["frame_min_overlap_det"] = nf.min_overlap_det
    forms = third_forms(nf)
    frame, k = nf.frame, forms.k
    # U inverts one normal direction w whose third form is invertible
    wc = weingarten_combination(nf.A, forms.k_ab, metric)
    extra["dnu_min_singular"] = wc.min_singular
    extra["dnu_max_singular"] = wc.max_singular
    if not wc.invertible:
        return finish(VERDICT_INAPPLICABLE, None, "none",
                      "dnu is not everywhere invertible; the decision "
                      "theorems require an invertible Gauss-map "
                      "differential")

    pack = riemann_tensor(metric)
    s1 = step1_positivity(pack.s, k, metric, options)
    residuals["step1_positivity"] = s1.residual
    thresholds["step1_positivity"] = tau
    extra["q_min_normalized"] = s1.qn_min
    extra["q_max_normalized"] = s1.qn_max
    if tau >= 1.0:
        # |q| / (1 + |s| + |Tr k|) < 1 at every node, so every chart would
        # read as minimal
        return finish(VERDICT_INAPPLICABLE, None, "none",
                      f"the chart is too coarse to decide: the threshold "
                      f"tau = C * dx^2 = {tau:.4g} is at least 1, which no "
                      f"normalized s + Tr k reaches, so step 1 cannot tell "
                      f"its sign")
    if s1.classification == "rejected":
        return finish(VERDICT_REJECTED, "1", "none",
                      "s + Tr k is negative beyond noise: no immersion exists")
    if s1.classification == "mixed":
        return finish(VERDICT_INAPPLICABLE, None, "none",
                      "s + Tr k changes sign across the chart beyond noise; a "
                      "smooth square root may or may not exist and no branch "
                      "is selected")

    # step 2: candidates (h^a, H^a)
    if not hypersurface:
        if s1.classification == "minimal":
            return finish(VERDICT_INAPPLICABLE, None, "none",
                          "|H| = sqrt(s + Tr k) vanishes; the trace-matrix "
                          "recovery needs |H| != 0")
        method = "codim"
        try:
            mc = mean_curvature_vector(forms, pack.Ric, s1.H, metric,
                                       options.unit_tol(chart), sign)
        except DomainError as exc:
            return finish(VERDICT_INAPPLICABLE, None, method, str(exc))
        residuals["nullspace_gap"] = mc.unit_eigen_distance
        thresholds["nullspace_gap"] = mc.unit_tol
        extra["fixed_space_dim"] = float(mc.fixed_dim)
        notes.extend(mc.notes)
        if mc.status == "rejected":
            return finish(VERDICT_REJECTED, "2", method)
        if not mc.candidates:
            return finish(VERDICT_INAPPLICABLE, None, method)
        # lazily: the first admissible candidate ends the search
        candidates = ((second_forms(H, mc.B, mc.k_ab_op, metric), H)
                      for H in mc.candidates)
    else:
        method = options.method
        if method == "auto":
            if s1.classification == "positive":
                method = "theorem2"
            elif chart.m >= 3:
                method = "theorem3"
            elif chart.m == 2:
                method = "minimal_m2"
            else:
                return finish(VERDICT_INAPPLICABLE, None, "none",
                              "m = 1 charts carry no curvature data to "
                              "decide with")
        if method == "theorem2" and s1.classification != "positive":
            return finish(VERDICT_INAPPLICABLE, None, method,
                          "the closed-form route needs s + Tr k > 0; data is "
                          "in the degenerate (minimal) regime")
        if method == "theorem3" and chart.m < 3:
            return finish(VERDICT_INAPPLICABLE, None, method,
                          "the linear-system route needs m >= 3")

        if method == "minimal_m2":
            mres = check_minimal_m2(metric, k, pack.s)
            residuals["gauss_condition_m2"] = mres.gauss_condition
            residuals["conformality_m2"] = mres.conformality
            thresholds["gauss_condition_m2"] = thresholds["conformality_m2"] = tau
            h = h_from_hopf_angle(metric, pack.Gamma, k, sign)
            notes.append("minimal-surface regime: the data fix a one-parameter "
                         "family; the candidate is its member with Hopf angle "
                         f"{'0' if sign > 0 else 'pi'} at the chart center")
        elif method == "theorem2":
            h = h_from_theorem2(pack.Ric, k, sign * s1.H)
        else:  # theorem3
            r3 = h_from_theorem3(pack, k, metric, options)
            residuals["nullspace_gap"] = interior_max(chart, r3.gap)
            thresholds["nullspace_gap"] = r3.unit_tol
            extra["nullspace_frac_unique"] = r3.frac_unique
            if r3.status == "no_solution":
                return finish(VERDICT_REJECTED, "2", "theorem3",
                              "the pointwise linear system has no nonzero "
                              "solution; no second fundamental form is "
                              "compatible with the curvature")
            if r3.status == "indeterminate":
                return finish(VERDICT_INAPPLICABLE, None, "theorem3",
                              "the linear-system nullspace has dimension "
                              ">= 2 at some nodes; it does not determine "
                              "h up to scale")
            h = r3.h  # h_from_theorem3 applies options.sign_branch itself
        H = np.einsum("...ij,...ij->...", metric.g_inv, h)
        candidates = [(h[..., None, :, :], H[..., None])]

    # steps 3 and 4
    thresholds.update(h_squared=tau, isometry=tau, parallelity=tau)
    best = None
    for h_alpha, H_alpha in candidates:
        U = build_U(wc.A, wc.k, np.moveaxis(h_alpha, -3, -1) @ wc.w, frame)
        res, ext = dict(residuals), dict(extra)
        res["h_squared"] = check_h_squared(h_alpha, forms.k_ab, metric)
        res["isometry"] = check_isometry(U, metric)
        res["parallelity"] = check_parallel(U, pack.Gamma, frame, chart)
        if hypersurface:
            ext["codazzi"] = codazzi_residual(h_alpha[..., 0, :, :], pack.Gamma,
                                              metric)
        else:
            ext["aalpha_consistency"] = frame_consistency(nf.A, U, h_alpha,
                                                          chart)
        candidate = CandidateSolution(h_alpha, H_alpha, U, method, sign)
        failing = [key for key in _JUDGED if res[key] > thresholds[key]]
        if ext.get("aalpha_consistency", 0.0) > tau:
            failing.append("aalpha_consistency")
        if not failing:
            return AdmissibilityReport(VERDICT_ADMISSIBLE, None, res, thresholds,
                                       method, candidate, notes, ext)
        step = _failed_step(failing)
        report = AdmissibilityReport(
            VERDICT_REJECTED, step, res, thresholds, method, candidate,
            notes + _failure_note(failing, step, hypersurface), ext)
        if best is None or _badness(report) < _badness(best):
            best = report
    return best
