"""Admissibility in general codimension: Grassmannian-valued Gauss data.

The normal space is handled through an orthonormal frame ``nu^a`` continued
across the chart; the mixed third forms ``k^{ab} = (A^a)^* A^b`` feed the
trace matrix ``rho_ab = Tr((Ric + k)^{-1} k^{ab})`` whose fixed vector (right
action, eigenvalue 1 of rho^T) carries the direction of the mean curvature
vector.  Scale comes from ``|H| = sqrt(s + Tr k)``, the candidate second
forms from ``h^b = sum_a H^a (Ric + k)^{-1} k^{ab}``, and the final verdict
from the quadratic product check ``h^a h^b = k^{ab}`` plus isometry and
parallelity of ``U``.

Hypersurface data is the case ``d = 1``: the frame is the unit normal and
the one third form is that of the Gauss map.  Every ``d`` shares the frame,
the third forms and the invertibility gate below; only the step-2
candidates of ``d = 1`` come from the hypersurface routes of
:mod:`isogauss.admissibility`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curvature import MetricField, node_norm, raise_index, to_orthonormal
from .errors import DomainError, InvalidGrassmannDataError, SamplingError
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

    The spans are Gram-Schmidt-orthonormalized column by column, vectorized
    over the nodes; this is QR with positive diagonal, smooth in smooth
    full-rank input and invariant under positive column scalings, and for
    ``d = 1`` it is plain normalization.  The data is rank deficient when
    the smallest pivot anywhere is at most ``rank_rel_tol`` times the
    largest.  A center-out sweep over :func:`isogauss.grid.staircase_slabs`
    then compares each node with its already repaired neighbor one step
    towards the chart center and repairs a sign or order flip (an overlap
    far from the identity) by the maximal-overlap signed permutation.  So
    the frame is continuous across the whole chart: normal data is an
    unoriented plane.
    """
    spans = np.asarray(spans, dtype=float)
    if spans.ndim != chart.m + 2 or spans.shape[:chart.m] != chart.shape:
        raise InvalidGrassmannDataError(
            f"spanning sets have shape {spans.shape}, expected "
            f"{chart.shape} x (n, d)")
    n, d = spans.shape[-2:]
    if d < 1 or n != chart.m + d:
        raise InvalidGrassmannDataError(
            f"invalid plane dimension {d} in R^{n} for m = {chart.m}")
    if not np.all(np.isfinite(spans)):
        raise SamplingError("normal data contains non-finite values")
    Q = np.empty_like(spans)
    pivots = np.empty(chart.shape + (d,))
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(d):
            v = spans[..., a]
            for b in range(a):
                q = Q[..., b]
                v = v - np.sum(q * v, axis=-1)[..., None] * q
            pivots[..., a] = np.sqrt(np.sum(v * v, axis=-1))
            Q[..., a] = v / pivots[..., a, None]
    # a zero pivot leaves NaN, which fails the comparison too
    if not float(np.min(pivots)) > rank_rel_tol * float(np.max(pivots)):
        raise InvalidGrassmannDataError(
            "spanning sets are rank deficient at some node")

    eye = np.eye(d)

    def flipped(D):
        return np.linalg.norm(D - eye, axis=(-2, -1)) > _FLIP_THRESHOLD

    min_det = math.inf
    for slab, prev in staircase_slabs(chart):
        if prev is None:
            continue
        Qs, Qp = Q[slab], Q[prev]                              # views
        D = np.swapaxes(Qp, -1, -2) @ Qs
        for k in zip(*np.nonzero(flipped(D))):
            Qs[k] = Qs[k] @ _signed_permutation_fit(D[k].T).T
            D[k] = Qp[k].T @ Qs[k]
        # a 1 x 1 overlap is its own determinant; LAPACK per node costs more
        dets = D[..., 0, 0] if d == 1 else np.linalg.det(D)
        min_det = min(min_det, float(np.min(dets)))

    gram = np.einsum("...na,...nb->...ab", Q, Q)
    defect = float(np.max(node_norm(gram - eye, 2)))

    A = np.einsum("...nai->...nia", grad_all(Q, chart))
    if d > 1:
        coeff = np.einsum("...nia,...nb->...iab", A, Q)
        off = coeff * (1.0 - eye)                              # skip self terms
        A = A - np.einsum("...iab,...nb->...nia", off, Q)
    return NormalFrame(chart=chart, frame=Q, A=A,
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
    if frame.d == 1:
        # the one block is k: hold the per-node forms once
        k_ab = k[..., None, None, :, :]
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


class WeingartenCombination(NamedTuple):
    """One normal direction ``sum_a w_a nu^a`` with its differential."""

    w: np.ndarray          # (d,)
    A: np.ndarray          # (*grid, n, m), sum_a w_a A^a
    k: np.ndarray          # (*grid, m, m), its third form
    min_singular: float    # extreme singular values of A, domain in g
    max_singular: float
    invertible: bool


def _combinations(A: np.ndarray, k_ab: np.ndarray):
    """``(w, A_w, k_w)`` per candidate: each frame direction (as views), and
    for ``d >= 2`` fixed linear combinations of the frame."""
    d = A.shape[-1]
    for a in range(d):
        yield np.eye(d)[a], A[..., a], k_ab[..., a, a, :, :]
    if d == 1:
        return
    rng = np.random.default_rng(0)
    mixes = [np.ones(d)] + [rng.standard_normal(d) for _ in range(3)]
    for w in mixes:
        w = w / np.linalg.norm(w)
        yield (w, np.einsum("...nia,a->...ni", A, w),
               np.einsum("...abij,a,b->...ij", k_ab, w, w))


def weingarten_combination(A: np.ndarray, k_ab: np.ndarray,
                           metric: MetricField,
                           rank_rel_tol: float = 1e-8) -> WeingartenCombination:
    """The best-conditioned frame combination ``w``, and whether its
    differential ``A_w = sum_a w_a A^a`` is everywhere invertible.

    ``A`` and ``k_ab`` are a :class:`NormalFrame`'s differentials and their
    mixed third forms; ``k_w = sum_ab w_a w_b k^{ab}``.  Every candidate of
    :func:`_combinations` is scored by the ratio of the smallest to the
    largest singular value of ``A_w`` over the chart, with the domain
    measured in g (the square roots of the extreme eigenvalues of ``k_w`` in
    g-orthonormal frames), and the best one is kept.  It is invertible when
    that ratio exceeds ``rank_rel_tol``: for ``d = 1`` this is the Gauss map
    having an invertible differential.
    """
    best = None
    for w, A_w, k_w in _combinations(A, k_ab):
        eigs = np.linalg.eigvalsh(to_orthonormal(metric, k_w))
        max_sv = math.sqrt(max(float(np.max(eigs)), 0.0))
        min_sv = math.sqrt(max(float(np.min(eigs)), 0.0))
        score = min_sv / max(max_sv, 1e-300)
        if best is None or score > best[0]:
            best = (score, WeingartenCombination(
                w, A_w, k_w, min_sv, max_sv,
                min_sv > rank_rel_tol * max_sv and max_sv > 0.0))
    return best[1]


def frame_consistency(A: np.ndarray, U: np.ndarray, h_alpha: np.ndarray,
                      chart: Chart) -> float:
    """Interior max of ``|h^a + (A^a)^T U|`` over all directions (normalized):
    the directions that :func:`weingarten_combination` did not invert."""
    h_back = -np.einsum("...nia,...nj->...aij", A, U)
    cons = node_norm(h_back - h_alpha, 3) / (1.0 + node_norm(h_alpha, 3))
    return interior_max(chart, cons)
