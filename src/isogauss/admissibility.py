"""Decide whether sampled (metric, Gauss map) data admits an isometric immersion.

The decision pipeline follows four steps: positivity of the scalar invariant
``q = s + Tr_g k``; recovery of a candidate second fundamental form ``h``
(closed form when ``q > 0``, a per-node homogeneous linear system solved by
SVD when ``q = 0`` and ``m >= 3``, a Gauss-condition/conformality test when
``q = 0`` and ``m = 2``); the quadratic check ``h^2 = k``; and isometry plus
parallelity of the bundle map ``U`` that would be the differential of the
immersion.  All verdicts carry named residuals (never bare booleans) so that
convergence behaviour can be asserted by callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (CurvaturePack, MetricField, node_norm, raise_index,
                        riemann_tensor, to_orthonormal)
from .errors import (BranchError, DegenerateGaussMapError, DomainError,
                     NotPositiveSemidefiniteError)
from .gaussmap import GaussField, degeneracy_report, third_form_trace
from .grid import Chart, align_signs, grad_all, interior_max

RESIDUAL_KEYS = ("step1_positivity", "h_squared", "isometry", "parallelity",
                 "gauss_condition_m2", "conformality_m2", "nullspace_gap")

VERDICT_ADMISSIBLE = "admissible"
VERDICT_REJECTED = "rejected"
VERDICT_INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class PipelineOptions:
    """Tunable knobs of the decision pipeline.

    ``tol_scale`` is the constant C in the C*dx^2 residual thresholds.  The
    nullspace gap certificate uses ``max(gap_tol, tol_scale*dx^2)`` so that
    finite-difference input is judged at its own accuracy level while exact
    input keeps the tight default.
    """

    tol_scale: float = 50.0
    rank_rel_tol: float = 1e-8
    gap_tol: float = 1e-6
    method: str = "auto"           # auto | theorem2 | theorem3 | sqrt
    sign_branch: int = 1

    def fd_tol(self, chart: Chart) -> float:
        return self.tol_scale * chart.max_spacing ** 2

    def gap_tol_effective(self, chart: Chart) -> float:
        return max(self.gap_tol, self.fd_tol(chart))


@dataclass(frozen=True)
class CandidateSolution:
    """Per-node candidate (h, H, U) produced by one solve branch."""

    h: np.ndarray          # (*grid, m, m), symmetric
    H: np.ndarray          # (*grid,), = Tr_g h
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


@dataclass(frozen=True)
class Step1Result:
    classification: str     # positive | minimal | rejected | mixed
    q: np.ndarray
    q_scale: float
    residual: float         # normalized negativity excess
    threshold: float
    H: np.ndarray | None    # positive branch only


def step1_positivity(s: np.ndarray, G: GaussField, metric: MetricField,
                     options: PipelineOptions | None = None) -> Step1Result:
    """Classify ``q = s + Tr_g k``: positive, zero (minimal), or negative.

    A sign change across the chart beyond noise is classified ``mixed``; the
    smooth-square-root subtlety makes any branch choice there a guess, so the
    pipeline reports the data inapplicable instead of picking one.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    tr_k = third_form_trace(G, metric)
    q = s + tr_k
    # FD noise in q scales with the local field sizes: normalize pointwise so
    # a chart mixing O(10) and O(0.1) values still classifies cleanly
    local = 1.0 + np.abs(s) + np.abs(tr_k)
    qn = (q / local)[chart.interior]
    tau = options.fd_tol(chart)
    qn_min = float(np.min(qn))
    qn_max = float(np.max(qn))
    residual = max(0.0, -qn_min)
    q_scale = float(np.max(local[chart.interior]))
    if qn_min < -tau:
        return Step1Result("rejected", q, q_scale, residual, tau, None)
    if qn_min > tau:
        # clip guards boundary-layer noise; interior values are all positive
        H = np.sqrt(np.clip(q, tau * local, None))
        return Step1Result("positive", q, q_scale, residual, tau, H)
    if qn_max <= tau:
        return Step1Result("minimal", q, q_scale, residual, tau, None)
    return Step1Result("mixed", q, q_scale, residual, tau, None)


# ---------------------------------------------------------------------------
# candidate h: three routes


def h_from_theorem2(Ric: np.ndarray, k: np.ndarray, H: np.ndarray,
                    min_H: float = 1e-12) -> np.ndarray:
    """Closed-form candidate ``h = (Ric + k) / H`` (positive-trace branch)."""
    if float(np.min(np.abs(H))) <= min_H:
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
    gap_tol: float


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


def h_from_theorem3(pack: CurvaturePack, k: np.ndarray, metric: MetricField,
                    options: PipelineOptions | None = None) -> Theorem3Result:
    """Per-node nullspace solve of ``h k^{-1} R(Om) = 2 Om h`` over so_g.

    Assembles, for every node, the linear map on symmetric ``h`` obtained by
    letting ``Om`` run over the m(m-1)/2 basis elements of so_g, and takes the
    SVD nullspace.  A one-dimensional numerical nullspace (small last singular
    value, clear gap to the second-last) certifies uniqueness up to scale; the
    missing scale is restored from ``Tr(h^2) = Tr k`` and the sign is fixed
    once per chart (trace >= 0 at the center) and continued seamlessly.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    m = chart.m
    if m < 3:
        raise DomainError("the linear-system route needs m >= 3")
    kop = raise_index(metric, k)
    k_eigs = np.linalg.eigvalsh(to_orthonormal(metric, k))
    if float(np.min(k_eigs)) <= options.rank_rel_tol * max(float(np.max(k_eigs)), 1e-300):
        raise DegenerateGaussMapError("third form not invertible; dnu is degenerate")
    kop_inv = np.linalg.inv(kop)
    ginv = metric.g_inv
    g = metric.g

    W = _antisymmetric_basis(m)            # (nb, m, m)
    S = _symmetric_basis(m)                # (p, m, m)
    Om_up = np.einsum("...ik,bkl,...lj->...bij", ginv, W, ginv, optimize=True)
    T = np.einsum("...ip,...jq,...pqkl,...bkl->...bij",
                  ginv, ginv, pack.R_low, Om_up, optimize=True)
    CO = -np.einsum("...bip,...pj->...bij", T, g)          # R(Om_b) as operator
    M = np.einsum("...ik,...bkj->...bij", kop_inv, CO)
    rows = (np.einsum("eik,...bkj->...bije", S, M, optimize=True)
            - 2.0 * np.einsum("bik,...kl,elj->...bije", W, ginv, S, optimize=True))
    nb, p = W.shape[0], S.shape[0]
    mat = rows.reshape(chart.shape + (nb * m * m, p))
    norm = np.sqrt(np.sum(mat * mat, axis=(-2, -1)))
    mat = mat / norm[..., None, None]
    _, sig, Vh = np.linalg.svd(mat, full_matrices=False)
    sig1 = sig[..., 0]
    sig_last = sig[..., -1]
    sig_prev = sig[..., -2]
    gtol = options.gap_tol_effective(chart)
    has_null = sig_last <= gtol * sig1
    unique = has_null & (sig_prev > gtol * sig1)
    gap = sig_last / np.where(sig_prev > 0, sig_prev, np.inf)

    inter = chart.interior
    frac_has = float(np.mean(has_null[inter]))
    frac_unique = float(np.mean(unique[inter]))
    if frac_has < 0.99:
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "no_solution", gtol)
    if frac_unique < 0.99:
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "indeterminate", gtol)

    h_raw = np.einsum("...e,eij->...ij", Vh[..., -1, :], S)
    hop = np.einsum("...ik,...kj->...ij", ginv, h_raw)
    tr_h2 = np.einsum("...ij,...ji->...", hop, hop)
    tr_k = np.einsum("...ii->...", kop)
    lam = np.sqrt(tr_k / np.where(tr_h2 > 0, tr_h2, np.inf))
    if not np.all(np.isfinite(lam)):
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "no_solution", gtol)
    h = lam[..., None, None] * h_raw

    # per-node SVD signs are arbitrary: continue the sign from the center out
    h = h * align_signs(chart, h)[..., None, None]

    H = np.einsum("...ij,...ij->...", ginv, h)
    c = chart.center
    lead = H[c]
    if abs(lead) <= 1e-8 * (1.0 + float(np.max(np.abs(H)))):
        hc = h[c].ravel()
        lead = hc[np.argmax(np.abs(hc))]
    if lead * options.sign_branch < 0:
        h = -h
    return Theorem3Result(h, gap, has_null, unique, frac_unique, "ok", gtol)


def spd_sqrt(k: np.ndarray, metric: MetricField | None = None,
             neg_rel_tol: float = 1e-10) -> np.ndarray:
    """Unique PSD square root of a PSD form field.

    Without a metric this is the plain matrix square root per node.  With a
    metric the root is taken in g-orthonormal frames, which is the square
    root of the ``h^2 = k`` *operator* equation: the result satisfies
    ``h g^{-1} h = k`` with ``g^{-1} h`` positive semi-definite.
    """
    if metric is not None:
        k_on = to_orthonormal(metric, k)
        h_on = spd_sqrt(k_on, None, neg_rel_tol)
        L = metric.chol
        return np.einsum("...ik,...kl,...jl->...ij", L, h_on, L)
    k = 0.5 * (k + np.swapaxes(k, -1, -2))
    eigs, Q = np.linalg.eigh(k)
    scale = max(float(np.max(np.abs(eigs))), 1e-300)
    worst = float(np.min(eigs))
    if worst < -neg_rel_tol * scale:
        raise NotPositiveSemidefiniteError(
            f"form has eigenvalue {worst:.3e} below -{neg_rel_tol:.1e} * scale")
    root = np.sqrt(np.clip(eigs, 0.0, None))
    return np.einsum("...ik,...k,...jk->...ij", Q, root, Q)


# ---------------------------------------------------------------------------
# checks (steps 3 and 4, plus the appendix cross-check)


def check_h_squared(h: np.ndarray, k: np.ndarray, metric: MetricField) -> float:
    """Interior max of ``|h g^{-1} h - k| / (1 + |k|)`` per node."""
    hgh = np.einsum("...ik,...kl,...lj->...ij", h, metric.g_inv, h)
    res = node_norm(hgh - k, 2) / (1.0 + node_norm(k, 2))
    return interior_max(metric.chart, res)


def build_U(G: GaussField, h: np.ndarray) -> np.ndarray:
    """Solve ``A^T U = -h`` with columns constrained to nu-perp.

    ``A`` has full column rank on non-degenerate data, so the solution is
    ``U = -A k^{-1} h``; columns are re-projected onto nu-perp to strip the
    O(dx^2) normal component that discrete differentiation leaves in ``A``.
    """
    try:
        kinvh = np.linalg.solve(G.k, h)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGaussMapError(
            f"third form singular, cannot invert A^*: {exc}") from exc
    U = -np.einsum("...nk,...kj->...nj", G.A, kinvh)
    coeff = np.einsum("...n,...nj->...j", G.nu, U)
    return U - coeff[..., None, :] * G.nu[..., :, None]


def check_isometry(U: np.ndarray, metric: MetricField) -> float:
    """Interior max of ``|U^T U - g| / (1 + |g|)`` per node."""
    utu = np.einsum("...ni,...nj->...ij", U, U)
    res = node_norm(utu - metric.g, 2) / (1.0 + node_norm(metric.g, 2))
    return interior_max(metric.chart, res)


def check_parallel(U: np.ndarray, Gamma: np.ndarray, nu: np.ndarray,
                   chart: Chart) -> float:
    """Parallelity defect of U: tangential part of dU minus the Gamma term.

    Per node and index pair (i, j) this is the norm of
    ``d_i u_j - <d_i u_j, nu> nu - Gamma^k_ij u_k``, normalized by
    ``1 + |Gamma| |U|``; the interior maximum is returned.
    """
    dU = grad_all(U, chart)                                   # (..., n, j, i)
    ip = np.einsum("...n,...nji->...ji", nu, dU)
    tang = dU - np.einsum("...ji,...n->...nji", ip, nu)
    gam = np.einsum("...kij,...nk->...nji", Gamma, U)
    res = np.sqrt(np.sum((tang - gam) ** 2, axis=-3))         # norm over n
    res = np.max(res, axis=(-2, -1))
    scale = 1.0 + node_norm(Gamma, 3) * node_norm(U, 2)
    # U is a derived field: a deeper margin keeps its boundary-layer
    # truncation error out of the stencil
    return interior_max(chart, res / scale, margin=4)


@dataclass(frozen=True)
class MinimalCaseResult:
    gauss_condition: float
    conformality: float


def check_minimal_m2(metric: MetricField, G: GaussField, s: np.ndarray) -> MinimalCaseResult:
    """Minimal-surface admissibility for m = 2: K + sqrt(det_g k) = 0 and
    conformality of the Gauss map (unsigned)."""
    chart = metric.chart
    if chart.m != 2:
        raise DomainError("the minimal-surface check applies to m = 2 only")
    K = 0.5 * s
    det_gk = np.linalg.det(G.k) / np.linalg.det(metric.g)
    root = np.sqrt(np.clip(det_gk, 0.0, None))
    inter = chart.interior
    scale1 = 1.0 + float(np.max(np.abs(K[inter]))) + float(np.max(root[inter]))
    gauss_res = float(np.max(np.abs(K + root)[inter])) / scale1

    k_on = to_orthonormal(metric, G.k)
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
    dh = grad_all(h, chart)                                   # (..., j, k, i)
    nabla = (np.einsum("...jki->...ijk", dh)
             - np.einsum("...pij,...pk->...ijk", Gamma, h)
             - np.einsum("...pik,...jp->...ijk", Gamma, h))
    defect = nabla - np.swapaxes(nabla, -3, -2)
    res = node_norm(defect, 3)
    scale = 1.0 + node_norm(h, 2) * (1.0 + node_norm(Gamma, 3))
    return interior_max(chart, res / scale, margin=4)


# ---------------------------------------------------------------------------
# the pipeline


def _report(verdict, failed_step, residuals, thresholds, method,
            candidate=None, notes=None, extra=None) -> AdmissibilityReport:
    return AdmissibilityReport(verdict=verdict, failed_step=failed_step,
                               residuals=residuals, thresholds=thresholds,
                               method=method, candidate=candidate,
                               notes=notes or [], extra=extra or {})


def _mk_candidate(h, metric, U, method, sign_branch) -> CandidateSolution:
    H = np.einsum("...ij,...ij->...", metric.g_inv, h)
    return CandidateSolution(h=h, H=H, U=U, method=method, sign_branch=sign_branch)


def run_pipeline(metric: MetricField, G: GaussField,
                 options: PipelineOptions | None = None) -> AdmissibilityReport:
    """Execute the full hypersurface decision algorithm on (g, nu) data."""
    options = options or PipelineOptions()
    chart = metric.chart
    tau = options.fd_tol(chart)
    residuals = _nan_residuals()
    thresholds = {key: math.nan for key in RESIDUAL_KEYS}
    notes: list[str] = []
    extra: dict[str, float] = {}

    deg = degeneracy_report(G, metric, options.rank_rel_tol)
    extra["dnu_min_singular"] = deg.min_singular
    extra["dnu_max_singular"] = deg.max_singular
    if not deg.invertible:
        notes.append("dnu is not everywhere invertible; the decision theorems "
                     "require an invertible Gauss-map differential")
        return _report(VERDICT_INAPPLICABLE, None, residuals, thresholds,
                       "none", notes=notes, extra=extra)

    pack = riemann_tensor(metric)
    s1 = step1_positivity(pack.s, G, metric, options)
    residuals["step1_positivity"] = s1.residual
    thresholds["step1_positivity"] = tau
    extra["q_min_normalized"] = float(np.min(s1.q[chart.interior])) / s1.q_scale
    extra["q_max_normalized"] = float(np.max(s1.q[chart.interior])) / s1.q_scale

    if s1.classification == "rejected":
        notes.append("s + Tr k is negative beyond noise: no immersion exists")
        return _report(VERDICT_REJECTED, "1", residuals, thresholds, "none",
                       notes=notes, extra=extra)
    if s1.classification == "mixed":
        notes.append("s + Tr k changes sign across the chart beyond noise; a "
                     "smooth square root may or may not exist and no branch "
                     "is selected")
        return _report(VERDICT_INAPPLICABLE, None, residuals, thresholds,
                       "none", notes=notes, extra=extra)

    method = options.method
    if method == "auto":
        if s1.classification == "positive":
            method = "theorem2"
        elif chart.m >= 3:
            method = "theorem3"
        elif chart.m == 2:
            method = "minimal_m2"
        else:
            notes.append("m = 1 charts carry no curvature data to decide with")
            return _report(VERDICT_INAPPLICABLE, None, residuals, thresholds,
                           "none", notes=notes, extra=extra)
    if method == "theorem2" and s1.classification != "positive":
        notes.append("the closed-form route needs s + Tr k > 0; data is in "
                     "the degenerate (minimal) regime")
        return _report(VERDICT_INAPPLICABLE, None, residuals, thresholds,
                       method, notes=notes, extra=extra)
    if method == "theorem3" and chart.m < 3:
        notes.append("the linear-system route needs m >= 3")
        return _report(VERDICT_INAPPLICABLE, None, residuals, thresholds,
                       method, notes=notes, extra=extra)

    sign = 1 if options.sign_branch >= 0 else -1

    if method == "minimal_m2":
        mres = check_minimal_m2(metric, G, pack.s)
        residuals["gauss_condition_m2"] = mres.gauss_condition
        residuals["conformality_m2"] = mres.conformality
        thresholds["gauss_condition_m2"] = tau
        thresholds["conformality_m2"] = tau
        h = sign * spd_sqrt(G.k, metric)
        U = build_U(G, h)
        residuals["h_squared"] = check_h_squared(h, G.k, metric)
        residuals["isometry"] = check_isometry(U, metric)
        thresholds["h_squared"] = tau
        thresholds["isometry"] = tau
        extra["representative_parallelity"] = check_parallel(U, pack.Gamma, G.nu, chart)
        extra["codazzi"] = codazzi_residual(h, pack.Gamma, metric)
        candidate = _mk_candidate(h, metric, U, "minimal_m2", sign)
        notes.append("minimal-surface regime: the candidate is the PSD-root "
                     "representative; the solution is a one-parameter family "
                     "and the representative itself need not be parallel")
        operative = ("gauss_condition_m2", "conformality_m2", "h_squared",
                     "isometry")
        failing = [key for key in operative if residuals[key] > thresholds[key]]
        if failing:
            step = "minimal-case" if failing[0].endswith("_m2") else "3"
            return _report(VERDICT_REJECTED, step, residuals, thresholds,
                           "minimal_m2", candidate, notes, extra)
        return _report(VERDICT_ADMISSIBLE, None, residuals, thresholds,
                       "minimal_m2", candidate, notes, extra)

    if method == "theorem2":
        H = sign * s1.H
        h = h_from_theorem2(pack.Ric, G.k, H)
    elif method == "theorem3":
        r3 = h_from_theorem3(pack, G.k, metric, options)
        residuals["nullspace_gap"] = interior_max(chart, r3.gap)
        thresholds["nullspace_gap"] = r3.gap_tol
        extra["nullspace_frac_unique"] = r3.frac_unique
        if r3.status == "no_solution":
            notes.append("the pointwise linear system has no nonzero solution; "
                         "no second fundamental form is compatible with the "
                         "curvature")
            return _report(VERDICT_REJECTED, "2", residuals, thresholds,
                           "theorem3", notes=notes, extra=extra)
        if r3.status == "indeterminate":
            notes.append("linear-system nullspace not one-dimensional; "
                         "falling back to the PSD root as a diagnostic")
            h = sign * spd_sqrt(G.k, metric)
            method = "spd_sqrt"
        else:
            h = r3.h if sign > 0 else -r3.h
    else:  # explicit sqrt override
        h = sign * spd_sqrt(G.k, metric)
        method = "spd_sqrt"

    U = build_U(G, h)
    residuals["h_squared"] = check_h_squared(h, G.k, metric)
    residuals["isometry"] = check_isometry(U, metric)
    residuals["parallelity"] = check_parallel(U, pack.Gamma, G.nu, chart)
    thresholds["h_squared"] = tau
    thresholds["isometry"] = tau
    thresholds["parallelity"] = tau
    extra["codazzi"] = codazzi_residual(h, pack.Gamma, metric)
    candidate = _mk_candidate(h, metric, U, method, sign)

    if residuals["h_squared"] > tau:
        notes.append("candidate h does not square to the third form")
        return _report(VERDICT_REJECTED, "3", residuals, thresholds, method,
                       candidate, notes, extra)
    failing = [key for key in ("isometry", "parallelity")
               if residuals[key] > tau]
    if failing:
        notes.append(f"bundle map fails the {' and '.join(failing)} check")
        return _report(VERDICT_REJECTED, "4", residuals, thresholds, method,
                       candidate, notes, extra)
    return _report(VERDICT_ADMISSIBLE, None, residuals, thresholds, method,
                   candidate, notes, extra)
