"""Admissibility in general codimension: Grassmannian-valued Gauss data.

The normal space is handled through an orthonormal frame ``nu^a`` continued
across the chart; the mixed third forms ``k^{ab} = (A^a)^* A^b`` feed the
trace matrix ``rho_ab = Tr((Ric + k)^{-1} k^{ab})`` whose fixed vector (right
action, eigenvalue 1 of rho^T) carries the direction of the mean curvature
vector.  Scale comes from ``|H| = sqrt(s + Tr k)``, the candidate second
forms from ``h^b = sum_a H^a (Ric + k)^{-1} k^{ab}``, and the final verdict
from the quadratic product check ``h^a h^b = k^{ab}`` plus isometry and
parallelity of ``U``.

d = 1 always takes the hypersurface routes; this module serves d >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import MetricField, node_norm, raise_index, to_orthonormal
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
    status: str                     # ok | degenerate | rejected | indeterminate
    candidates: list[np.ndarray]    # each (*grid, d)
    unit_eigen_distance: float      # interior max of sigma_min(rho^T - I)
    fixed_dim: int                  # typical fixed-space dimension
    rho: np.ndarray                 # (*grid, d, d)
    # the operators of the recovery formula, shared by every candidate
    B: np.ndarray                   # (*grid, m, m), (Ric + k)^{-1}
    k_ab_op: np.ndarray             # (*grid, d, d, m, m)
    notes: list[str] = field(default_factory=list)


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


def mean_curvature_vector(forms: CodimForms, Ric: np.ndarray,
                          length: np.ndarray, metric: MetricField, tau: float,
                          sign_branch: int = 1,
                          unit_tol: float = 1e-6) -> MeanCurvatureResult:
    """Recover the mean curvature vector from the fixed space of rho.

    ``length`` is ``|H| = sqrt(s + Tr k)`` from step 1 and ``tau`` its
    threshold, which also bounds the unit-eigenvalue tolerance from below.
    Generic data has a one-dimensional fixed space at eigenvalue 1; the unit
    fixed vector is scaled to ``length`` with the sign fixed at the chart
    center (by ``sign_branch``) and continued outwards.  When the fixed
    space is the whole normal space (e.g. products of plane curves) the
    direction is resolved by scanning the unit circle for directions
    compatible with the quadratic product constraint; all near-optimal
    directions are returned as candidates for the caller to test in full.
    """
    chart = metric.chart
    d = forms.d
    inter = chart.interior
    rho, B, k_ab_op = _rho_and_B(forms, Ric, metric)
    scale = np.maximum(1.0, node_norm(rho, 2))
    E = np.swapaxes(rho, -1, -2) - np.eye(d)
    _, sig, Vh = np.linalg.svd(E)
    utol = max(unit_tol, tau)
    dims = np.sum(sig <= utol * scale[..., None], axis=-1)
    unit_dist = interior_max(chart, sig[..., -1] / scale)
    frac0 = float(np.mean(dims[inter] == 0))
    if frac0 > 0.01:
        return MeanCurvatureResult("rejected", [], unit_dist, 0, rho, B, k_ab_op,
                                   ["rho has no eigenvalue within tolerance "
                                    "of 1: data inadmissible"])
    frac1 = float(np.mean(dims[inter] == 1))
    if frac1 >= 0.99:
        v = Vh[..., -1, :]
        v = _sign_continue(chart, v)
        v = _center_sign(chart, v, sign_branch)
        return MeanCurvatureResult("ok", [length[..., None] * v], unit_dist, 1,
                                   rho, B, k_ab_op)
    if float(np.mean(dims[inter] == d)) >= 0.99 and d == 2:
        cands = _resolve_full_fixed_space(chart, length, B, k_ab_op, sign_branch)
        return MeanCurvatureResult("degenerate", cands, unit_dist, d, rho, B,
                                   k_ab_op,
                                   ["fixed space of rho is the whole normal "
                                    "space; direction resolved against the "
                                    "quadratic product constraint"])
    return MeanCurvatureResult("indeterminate", [], unit_dist,
                               int(np.max(dims[inter])), rho, B, k_ab_op,
                               ["fixed space of rho has dimension >= 2 and "
                                "no supported resolution applies"])


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
                              sign_branch: int) -> list[np.ndarray]:
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
        H = _center_sign(chart, H, sign_branch)
        candidates.append(H)
    # deterministic preference among equally-good minima: larger component
    # sum on the selected sign branch, so the two branches mirror each other
    sign = 1 if sign_branch >= 0 else -1
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


def _combination_candidates(d: int) -> list[np.ndarray]:
    cands = [np.eye(d)[a] for a in range(d)]
    cands.append(np.ones(d) / math.sqrt(d))
    rng = np.random.default_rng(0)
    for _ in range(3):
        w = rng.standard_normal(d)
        cands.append(w / np.linalg.norm(w))
    return cands


def weingarten_combination(A: np.ndarray, metric: MetricField,
                           rank_rel_tol: float = 1e-8):
    """Frame combination ``w`` whose differential ``A_w = sum_a w_a A^a``
    has an everywhere-invertible third form ``k_w = A_w^T A_w``; returns
    ``(w, A_w, k_w)`` for the best conditioned of the candidates.

    Individual frame directions are tried first; when none is invertible
    everywhere (products of curves), fixed linear combinations of the frame
    are tried.
    """
    best = None
    for w in _combination_candidates(A.shape[-1]):
        A_w = np.einsum("...nia,a->...ni", A, w)
        k_w = np.einsum("...ni,...nj->...ij", A_w, A_w)
        eigs = np.linalg.eigvalsh(to_orthonormal(metric, k_w))
        score = float(np.min(eigs)) / max(float(np.max(eigs)), 1e-300)
        if best is None or score > best[0]:
            best = (score, w, A_w, k_w)
    score, w, A_w, k_w = best
    if score <= rank_rel_tol ** 2:
        raise DomainError("no everywhere-invertible combination of the "
                          "Weingarten operators exists; cannot build U")
    return w, A_w, k_w


def frame_consistency(A: np.ndarray, U: np.ndarray, h_alpha: np.ndarray,
                      chart: Chart) -> float:
    """Interior max of ``|h^a + (A^a)^T U|`` over all directions (normalized):
    the directions that :func:`weingarten_combination` did not invert."""
    h_back = -np.einsum("...nia,...nj->...aij", A, U)
    cons = node_norm(h_back - h_alpha, 3) / (1.0 + node_norm(h_alpha, 3))
    return interior_max(chart, cons)
