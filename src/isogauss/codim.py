"""Admissibility in general codimension: Grassmannian-valued Gauss data.

The normal space is handled through an orthonormal frame ``nu^a`` continued
across the chart; the mixed third forms ``k^{ab} = (A^a)^* A^b`` feed the
trace matrix ``rho_ab = Tr((Ric + k)^{-1} k^{ab})`` whose fixed vector (right
action, eigenvalue 1 of rho^T) carries the direction of the mean curvature
vector.  Scale comes from ``|H| = sqrt(s + Tr k)``, the candidate second
forms from ``h^b = sum_a H^a (Ric + k)^{-1} k^{ab}``, and the final verdict
from the quadratic product check ``h^a h^b = k^{ab}`` plus isometry and
parallelity of ``U``.

Hypersurface data (a single-column frame) can run through this module too,
but the result is not the hypersurface pipeline's: the route and the
residuals differ.  On the ellipsoid at 49^2, ``h_squared`` is 5.7e-4 through
the hypersurface path and 4.9e-4 through this one; the catenoid is
admissible there (minimal_m2 branch) and inapplicable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .admissibility import (RESIDUAL_KEYS, VERDICT_ADMISSIBLE,
                            VERDICT_INAPPLICABLE, VERDICT_REJECTED,
                            AdmissibilityReport, PipelineOptions,
                            _nan_residuals, check_isometry)
from .curvature import (MetricField, node_norm, raise_index, riemann_tensor,
                        to_orthonormal)
from .errors import DomainError, InvalidGrassmannDataError
from .grid import (Chart, align_signs, grad_all, interior_max,
                   staircase_slabs)

_FLIP_THRESHOLD = 0.5


@dataclass(frozen=True)
class NormalFrame:
    """Orthonormal normal frame with its tangential differentials.

    ``frame[..., :, a]`` are the frame columns; ``A[..., :, i, a]`` is the
    tangential part of ``d_i nu^a`` (components along the *other* frame
    directions removed; the self component vanishes identically for unit
    columns and is left untouched).
    """

    chart: Chart
    frame: np.ndarray          # (*grid, n, d)
    A: np.ndarray              # (*grid, n, m, d)
    orthonormality_defect: float
    min_overlap_det: float

    @property
    def d(self) -> int:
        return self.frame.shape[-1]

    @property
    def n(self) -> int:
        return self.frame.shape[-2]


def _signed_permutation_fit(D: np.ndarray) -> np.ndarray:
    """Nearest signed permutation to a near-orthogonal small matrix (greedy)."""
    d = D.shape[0]
    G = np.zeros((d, d))
    absd = np.abs(D).copy()
    for _ in range(d):
        i, j = np.unravel_index(np.argmax(absd), absd.shape)
        G[i, j] = 1.0 if D[i, j] >= 0 else -1.0
        absd[i, :] = -1.0
        absd[:, j] = -1.0
    return G


def build_normal_frame(chart: Chart, spans: np.ndarray,
                       rank_rel_tol: float = 1e-8) -> NormalFrame:
    """Orthonormalize per-node spanning sets into a continuous frame.

    Per node the spans are Gram-Schmidt-orthonormalized (QR with positive
    diagonal, which is smooth in smooth full-rank input and invariant under
    positive column scalings).  A center-out sweep then compares each node
    with its already-processed neighbor and repairs residual sign or order
    flips by the maximal-overlap signed permutation, so the frame is
    continuous across the whole chart.
    """
    spans = np.asarray(spans, dtype=float)
    if spans.ndim != chart.m + 2 or spans.shape[:chart.m] != chart.shape:
        raise InvalidGrassmannDataError(
            f"spanning sets have shape {spans.shape}, expected "
            f"{chart.shape} x (n, d)")
    n, d = spans.shape[-2:]
    if d < 1 or d > n:
        raise InvalidGrassmannDataError(f"invalid plane dimension {d} in R^{n}")
    Q, R = np.linalg.qr(spans)
    # spans = Q R with orthonormal columns in Q: the small R has the same
    # singular values as the spans
    sv = np.linalg.svd(R, compute_uv=False)
    if float(np.min(sv[..., -1])) <= rank_rel_tol * float(np.max(sv)):
        raise InvalidGrassmannDataError(
            "spanning sets are rank deficient at some node")
    diag_sign = np.sign(np.einsum("...aa->...a", R))
    diag_sign = np.where(diag_sign == 0, 1.0, diag_sign)
    Q = Q * diag_sign[..., None, :]

    min_det = math.inf
    for slab, prev in staircase_slabs(chart):
        if prev is None:
            continue
        Qs, Qp = Q[slab], Q[prev]                              # views
        D = np.swapaxes(Qp, -1, -2) @ Qs
        flagged = np.linalg.norm(D - np.eye(d), axis=(-2, -1)) > _FLIP_THRESHOLD
        for k in zip(*np.nonzero(flagged)):
            G = _signed_permutation_fit(D[k].T)
            Qs[k] = Qs[k] @ G.T
            D[k] = Qp[k].T @ Qs[k]
        min_det = min(min_det, float(np.min(np.linalg.det(D))))

    gram = np.einsum("...na,...nb->...ab", Q, Q)
    defect = float(np.max(node_norm(gram - np.eye(d), 2)))

    dF = grad_all(Q, chart)                                    # (..., n, a, i)
    A_raw = np.einsum("...nai->...nia", dF)
    coeff = np.einsum("...nia,...nb->...iab", A_raw, Q)
    off = coeff * (1.0 - np.eye(d))                            # skip self terms
    A_tan = A_raw - np.einsum("...iab,...nb->...nia", off, Q)
    return NormalFrame(chart=chart, frame=Q, A=A_tan,
                       orthonormality_defect=defect, min_overlap_det=min_det)


@dataclass(frozen=True)
class CodimForms:
    """Mixed third forms of a normal frame."""

    chart: Chart
    k_ab: np.ndarray       # (*grid, d, d, m, m), <A^a e_i, A^b e_j>
    k: np.ndarray          # (*grid, m, m), sum of the diagonal blocks

    @property
    def d(self) -> int:
        return self.k_ab.shape[-4]


def third_forms(frame: NormalFrame) -> CodimForms:
    k_ab = np.einsum("...nia,...njb->...abij", frame.A, frame.A)
    k = np.einsum("...aaij->...ij", k_ab)
    k = 0.5 * (k + np.swapaxes(k, -1, -2))
    return CodimForms(chart=frame.chart, k_ab=k_ab, k=k)


# ---------------------------------------------------------------------------
# mean curvature vector from the fixed space of rho


@dataclass(frozen=True)
class MeanCurvatureResult:
    status: str                     # ok | degenerate | rejected | inapplicable
    candidates: list[np.ndarray]    # each (*grid, d)
    unit_eigen_distance: float      # interior max of sigma_min(rho^T - I)
    fixed_dim: int                  # typical fixed-space dimension
    rho: np.ndarray                 # (*grid, d, d)
    notes: list[str] = field(default_factory=list)
    # the operators of the recovery formula, once rho has been formed
    B: np.ndarray | None = None         # (*grid, m, m), (Ric + k)^{-1}
    k_ab_op: np.ndarray | None = None   # (*grid, d, d, m, m)


def _rho_and_B(forms: CodimForms, Ric: np.ndarray, metric: MetricField):
    ric_k = Ric + forms.k
    ric_k = 0.5 * (ric_k + np.swapaxes(ric_k, -1, -2))
    eigs = np.linalg.eigvalsh(to_orthonormal(metric, ric_k))
    if float(np.min(np.abs(eigs))) <= 1e-10 * max(float(np.max(np.abs(eigs))), 1e-300):
        raise DomainError("Ric + k is not invertible; the trace matrix is undefined")
    B = np.linalg.inv(raise_index(metric, ric_k))
    k_ab_op = np.einsum("...ik,...abkj->...abij", metric.g_inv, forms.k_ab)
    rho = np.einsum("...ij,...abji->...ab", B, k_ab_op)
    return rho, B, k_ab_op


def _halpha_ops(H: np.ndarray, B: np.ndarray, k_ab_op: np.ndarray) -> np.ndarray:
    """h^b as operators from the recovery formula, shape (*grid, d, m, m)."""
    return np.einsum("...a,...ik,...abkj->...bij", H, B, k_ab_op, optimize=True)


def _product_defect(h_ops: np.ndarray, k_ab_op: np.ndarray) -> np.ndarray:
    """Per-node norm of h^a h^b - k^{ab} over all blocks (normalized)."""
    prod = np.einsum("...aik,...bkj->...abij", h_ops, h_ops, optimize=True)
    return node_norm(prod - k_ab_op, 4) / (1.0 + node_norm(k_ab_op, 4))


def mean_curvature_vector(forms: CodimForms, Ric: np.ndarray, s: np.ndarray,
                          metric: MetricField,
                          options: PipelineOptions | None = None,
                          unit_tol: float = 1e-6) -> MeanCurvatureResult:
    """Recover the mean curvature vector from the fixed space of rho.

    Generic data has a one-dimensional fixed space at eigenvalue 1; the unit
    fixed vector is scaled to length ``sqrt(s + Tr k)`` with the sign fixed
    at the chart center and continued outwards.  When the fixed space is the
    whole normal space (e.g. products of plane curves) the direction is
    resolved by scanning the unit circle for directions compatible with the
    quadratic product constraint; all near-optimal directions are returned as
    candidates for the caller to test in full.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    d = forms.d
    inter = chart.interior
    tr_k = np.einsum("...ij,...ij->...", metric.g_inv, forms.k)
    q = s + tr_k
    local = 1.0 + np.abs(s) + np.abs(tr_k)
    qn = (q / local)[inter]
    tau = options.fd_tol(chart)
    if float(np.min(qn)) < -tau:
        return MeanCurvatureResult("rejected", [], math.inf, 0, np.zeros(chart.shape + (d, d)),
                                   ["s + Tr k is negative: no immersion exists"])
    if float(np.min(qn)) <= tau:
        return MeanCurvatureResult("inapplicable", [], math.inf, 0,
                                   np.zeros(chart.shape + (d, d)),
                                   ["|H| = sqrt(s + Tr k) vanishes; the "
                                    "trace-matrix recovery needs |H| != 0"])
    rho, B, k_ab_op = _rho_and_B(forms, Ric, metric)
    scale = np.maximum(1.0, node_norm(rho, 2))
    E = np.swapaxes(rho, -1, -2) - np.eye(d)
    _, sig, Vh = np.linalg.svd(E)
    utol = max(unit_tol, options.fd_tol(chart))
    dims = np.sum(sig <= utol * scale[..., None], axis=-1)
    unit_dist = interior_max(chart, sig[..., -1] / scale)
    frac0 = float(np.mean(dims[inter] == 0))
    if frac0 > 0.01:
        return MeanCurvatureResult("rejected", [], unit_dist, 0, rho,
                                   ["rho has no eigenvalue within tolerance "
                                    "of 1: data inadmissible"], B, k_ab_op)
    length = np.sqrt(np.clip(q, tau * local, None))
    frac1 = float(np.mean(dims[inter] == 1))
    if frac1 >= 0.99:
        v = Vh[..., -1, :]
        v = _sign_continue(chart, v)
        v = _center_sign(chart, v, options.sign_branch)
        return MeanCurvatureResult("ok", [length[..., None] * v], unit_dist, 1,
                                   rho, [], B, k_ab_op)
    if float(np.mean(dims[inter] == d)) >= 0.99 and d == 2:
        cands = _resolve_full_fixed_space(chart, length, B, k_ab_op, options)
        return MeanCurvatureResult("degenerate", cands, unit_dist, d, rho,
                                   ["fixed space of rho is the whole normal "
                                    "space; direction resolved against the "
                                    "quadratic product constraint"],
                                   B, k_ab_op)
    return MeanCurvatureResult("indeterminate", [], unit_dist,
                               int(np.max(dims[inter])), rho,
                               ["fixed space of rho has dimension >= 2 and "
                                "no supported resolution applies"],
                               B, k_ab_op)


def _sign_continue(chart: Chart, v: np.ndarray) -> np.ndarray:
    return v * align_signs(chart, v)[..., None]


def _center_sign(chart: Chart, v: np.ndarray, sign_branch: int) -> np.ndarray:
    vc = v[chart.center]
    lead = 0.0
    for comp in vc:
        if abs(comp) > 1e-8:
            lead = comp
            break
    want = 1 if sign_branch >= 0 else -1
    if lead * want < 0:
        return -v
    return v


def _resolve_full_fixed_space(chart: Chart, length: np.ndarray, B: np.ndarray,
                              k_ab_op: np.ndarray,
                              options: PipelineOptions) -> list[np.ndarray]:
    """Scan unit directions (constant in the continued frame) for product fit.

    ``h^b`` is linear in the direction ``w = (cos psi, sin psi)``, so with
    ``P_a`` the operators for ``H = length * e_a`` the products are
    ``h^a h^b = c^2 P0P0 + cs (P0P1 + P1P0) + s^2 P1P1``.  The three product
    fields are built once, on the interior the score averages over, and
    each score is a weighted sum of them minus ``k^{ab}``, normed as in
    :func:`_product_defect`.  Directions live on the half-circle (global
    sign is free); each local minimum of the 180-point coarse scan within
    the margin is sharpened by golden-section search, so the located
    direction is accurate to the data's own noise floor.
    """
    inter = chart.interior
    length_i, B_i, K = length[inter], B[inter], k_ab_op[inter]
    P0, P1 = (_halpha_ops(length_i[..., None] * e, B_i, K) for e in np.eye(2))

    def products(X, Y):
        return np.einsum("...aik,...bkj->...abij", X, Y, optimize=True)

    Q00, Q11 = products(P0, P0), products(P1, P1)
    Qx = products(P0, P1) + products(P1, P0)
    denom = 1.0 + node_norm(K, 4)

    def score(psi: float) -> float:
        c, s = math.cos(psi), math.sin(psi)
        prod = (c * c) * Q00 + (c * s) * Qx + (s * s) * Q11
        return float(np.mean(node_norm(prod - K, 4) / denom))

    npts = 180
    angles = np.linspace(0.0, math.pi, npts, endpoint=False)
    scores = np.array([score(psi) for psi in angles])
    best = float(np.min(scores))
    margin = best + 0.05 * (float(np.max(scores)) - best) + 1e-14
    minima = []
    step = math.pi / npts
    for i, sc in enumerate(scores):
        if sc <= scores[i - 1] and sc <= scores[(i + 1) % npts] and sc <= margin:
            psi = _golden_min(score, angles[i] - step, angles[i] + step)
            minima.append((score(psi), psi % math.pi))
    candidates = []
    for _, psi in sorted(minima):
        w = np.array([math.cos(psi), math.sin(psi)])
        H = length[..., None] * w
        H = _center_sign(chart, H, options.sign_branch)
        candidates.append(H)
    # deterministic preference among equally-good minima: larger component
    # sum on the selected sign branch, so the two branches mirror each other
    sign = 1 if options.sign_branch >= 0 else -1
    candidates.sort(key=lambda H: -sign * float(np.sum(H[chart.center])))
    return candidates


def _golden_min(fn, a: float, b: float, iters: int = 80) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def second_forms(H: np.ndarray, B: np.ndarray, k_ab_op: np.ndarray,
                 metric: MetricField) -> tuple[np.ndarray, float]:
    """Candidate second forms (lowered, symmetrized) plus the product residual.

    ``B`` and ``k_ab_op`` are the operators :func:`mean_curvature_vector`
    formed (``MeanCurvatureResult.B`` / ``.k_ab_op``), shared by every
    candidate ``H``.
    """
    h_ops = _halpha_ops(H, B, k_ab_op)
    res = interior_max(metric.chart, _product_defect(h_ops, k_ab_op))
    h_low = np.einsum("...ik,...akj->...aij", metric.g, h_ops)
    h_low = 0.5 * (h_low + np.swapaxes(h_low, -1, -2))
    return h_low, res


# ---------------------------------------------------------------------------
# the bundle map U


@dataclass(frozen=True)
class CodimUResult:
    U: np.ndarray
    direction: np.ndarray          # the frame combination used to invert
    consistency: float             # max_a |h^a + (A^a)^T U| (normalized)
    isometry: float
    parallelity: float


def _combination_candidates(d: int) -> list[np.ndarray]:
    cands = [np.eye(d)[a] for a in range(d)]
    if d > 1:
        cands.append(np.ones(d) / math.sqrt(d))
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.standard_normal(d)
            cands.append(w / np.linalg.norm(w))
    return cands


def check_parallel_frame(U: np.ndarray, Gamma: np.ndarray, frame: np.ndarray,
                         chart: Chart) -> float:
    """Parallelity defect of U with the projection connection of the frame."""
    dU = grad_all(U, chart)                                    # (..., n, j, i)
    tang = dU.copy()
    for a in range(frame.shape[-1]):
        nu_a = frame[..., a]
        ip = np.einsum("...n,...nji->...ji", nu_a, dU)
        tang -= np.einsum("...ji,...n->...nji", ip, nu_a)
    gam = np.einsum("...kij,...nk->...nji", Gamma, U)
    res = np.max(np.sqrt(np.sum((tang - gam) ** 2, axis=-3)), axis=(-2, -1))
    scale = 1.0 + node_norm(Gamma, 3) * node_norm(U, 2)
    return interior_max(chart, res / scale, margin=4)


def build_U_codim(frame: NormalFrame, h_alpha: np.ndarray, metric: MetricField,
                  Gamma: np.ndarray,
                  options: PipelineOptions | None = None) -> CodimUResult:
    """Invert one everywhere-invertible Weingarten combination for U.

    Individual frame directions are tried first; when none is invertible
    everywhere (products of curves), fixed linear combinations of the frame
    are tried -- ``h`` and ``A`` combine covariantly, so any combination with
    an everywhere-invertible tangential differential determines the same U.
    The remaining directions then serve as consistency checks.
    """
    options = options or PipelineOptions()
    chart = frame.chart
    best = None
    for w in _combination_candidates(frame.d):
        A_w = np.einsum("...nia,a->...ni", frame.A, w)
        k_w = np.einsum("...ni,...nj->...ij", A_w, A_w)
        eigs = np.linalg.eigvalsh(to_orthonormal(metric, k_w))
        score = float(np.min(eigs)) / max(float(np.max(eigs)), 1e-300)
        if best is None or score > best[0]:
            best = (score, w, A_w, k_w)
    score, w, A_w, k_w = best
    if score <= options.rank_rel_tol ** 2:
        raise DomainError("no everywhere-invertible combination of the "
                          "Weingarten operators exists; cannot build U")
    h_w = np.einsum("...aij,a->...ij", h_alpha, w)
    U = -np.einsum("...nk,...kj->...nj", A_w, np.linalg.solve(k_w, h_w))
    for a in range(frame.d):
        nu_a = frame.frame[..., a]
        coeff = np.einsum("...n,...nj->...j", nu_a, U)
        U = U - coeff[..., None, :] * nu_a[..., :, None]

    h_back = -np.einsum("...nia,...nj->...aij", frame.A, U)
    cons = node_norm(h_back - h_alpha, 3) / (1.0 + node_norm(h_alpha, 3))
    consistency = interior_max(chart, cons)
    return CodimUResult(U=U, direction=w, consistency=consistency,
                        isometry=check_isometry(U, metric),
                        parallelity=check_parallel_frame(U, Gamma, frame.frame, chart))


@dataclass(frozen=True)
class CodimSolution:
    """Codimension analogue of the hypersurface candidate."""

    h_alpha: np.ndarray     # (*grid, d, m, m)
    H_alpha: np.ndarray     # (*grid, d)
    U: np.ndarray           # (*grid, n, m)
    frame: np.ndarray       # (*grid, n, d)
    method: str
    sign_branch: int


# ---------------------------------------------------------------------------
# pipeline


def run_codim_pipeline(metric: MetricField, spans: np.ndarray,
                       options: PipelineOptions | None = None) -> AdmissibilityReport:
    """Full decision pipeline for Grassmannian-valued Gauss data."""
    options = options or PipelineOptions()
    chart = metric.chart
    tau = options.fd_tol(chart)
    residuals = _nan_residuals()
    thresholds = {key: math.nan for key in RESIDUAL_KEYS}
    notes: list[str] = []
    extra: dict[str, float] = {}

    frame = build_normal_frame(chart, spans, options.rank_rel_tol)
    extra["frame_orthonormality_defect"] = frame.orthonormality_defect
    extra["frame_min_overlap_det"] = frame.min_overlap_det
    forms = third_forms(frame)
    pack = riemann_tensor(metric)

    tr_k = np.einsum("...ij,...ij->...", metric.g_inv, forms.k)
    q = pack.s + tr_k
    inter = chart.interior
    local = 1.0 + np.abs(pack.s) + np.abs(tr_k)
    residuals["step1_positivity"] = max(0.0, -float(np.min((q / local)[inter])))
    thresholds["step1_positivity"] = tau

    try:
        mc = mean_curvature_vector(forms, pack.Ric, pack.s, metric, options)
    except DomainError as exc:
        notes.append(str(exc))
        return AdmissibilityReport(VERDICT_INAPPLICABLE, None, residuals,
                                   thresholds, "codim", notes=notes, extra=extra)
    residuals["nullspace_gap"] = mc.unit_eigen_distance
    thresholds["nullspace_gap"] = max(1e-6, tau)
    extra["fixed_space_dim"] = float(mc.fixed_dim)
    notes.extend(mc.notes)
    if mc.status == "rejected":
        step = "1" if residuals["step1_positivity"] > tau else "2"
        return AdmissibilityReport(VERDICT_REJECTED, step, residuals,
                                   thresholds, "codim", notes=notes, extra=extra)
    if mc.status in ("inapplicable", "indeterminate") or not mc.candidates:
        return AdmissibilityReport(VERDICT_INAPPLICABLE, None, residuals,
                                   thresholds, "codim", notes=notes, extra=extra)

    thresholds["h_squared"] = tau
    thresholds["isometry"] = tau
    thresholds["parallelity"] = tau
    best_report = None
    for H in mc.candidates:
        h_alpha, product_res = second_forms(H, mc.B, mc.k_ab_op, metric)
        try:
            ures = build_U_codim(frame, h_alpha, metric, pack.Gamma, options)
        except DomainError as exc:
            notes.append(str(exc))
            return AdmissibilityReport(VERDICT_INAPPLICABLE, None, residuals,
                                       thresholds, "codim", notes=notes,
                                       extra=extra)
        res = dict(residuals)
        res["h_squared"] = product_res
        res["isometry"] = ures.isometry
        res["parallelity"] = ures.parallelity
        ext = dict(extra)
        ext["aalpha_consistency"] = ures.consistency
        candidate = CodimSolution(h_alpha=h_alpha, H_alpha=H, U=ures.U,
                                  frame=frame.frame, method="codim",
                                  sign_branch=1 if options.sign_branch >= 0 else -1)
        failing = [key for key in ("h_squared", "isometry", "parallelity")
                   if res[key] > tau]
        if ures.consistency > tau:
            failing.append("aalpha_consistency")
        if not failing:
            return AdmissibilityReport(VERDICT_ADMISSIBLE, None, res, thresholds,
                                       "codim", candidate, notes, ext)
        step = "3" if ("h_squared" in failing or "aalpha_consistency" in failing) else "4"
        report = AdmissibilityReport(VERDICT_REJECTED, step, res, thresholds,
                                     "codim", candidate,
                                     notes + [f"failing: {', '.join(failing)}"], ext)
        if best_report is None or _report_badness(report) < _report_badness(best_report):
            best_report = report
    return best_report


def _report_badness(report: AdmissibilityReport) -> float:
    keys = ("h_squared", "isometry", "parallelity")
    return max(report.residuals[k] for k in keys if not math.isnan(report.residuals[k]))
