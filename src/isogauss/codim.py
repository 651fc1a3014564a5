"""Admissibility in general codimension: Grassmannian-valued Gauss data.

The normal space is handled through an orthonormal frame ``nu^a`` continued
across the chart; the mixed third forms ``k^{ab} = (A^a)^* A^b`` feed the
trace matrix ``rho_ab = Tr((Ric + k)^{-1} k^{ab})`` whose fixed vector (right
action, eigenvalue 1 of rho^T) carries the direction of the mean curvature
vector.  Scale comes from ``|H| = sqrt(s + Tr k)``, the candidate second
forms from ``h^b = sum_a H^a (Ric + k)^{-1} k^{ab}``, and the final verdict
from the quadratic product check ``h^a h^b = k^{ab}`` plus isometry and
parallelity of ``U``.  When the fixed space is the whole normal plane
(``d = 2``) the product check itself fixes the direction: its mean squared
defect is a quartic form in the direction, minimized exactly through the
roots of one polynomial.

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

from .curvature import (MetricField, components_first, grid_first,
                        node_inner, node_norm, node_product, raise_index,
                        symmetric_eig, symmetric_part, to_orthonormal)
from .errors import DomainError, InvalidGrassmannDataError, SamplingError
from .grid import (Chart, align_signs, center_sign, grad_all, interior_max,
                   staircase_runs)

_FLIP_THRESHOLD = 0.5
# relative size below which a pivot, singular value or eigenvalue counts as
# zero: the rank gate of the normal data and of the Gauss-map differential
RANK_REL_TOL = 1e-8


@dataclass(frozen=True)
class NormalFrame:
    """Orthonormal normal frame with its tangential differentials,
    components first.

    ``frame[a]`` is the column ``nu^a``, ``(n, *grid)``; ``A[a, :, i]`` is
    the tangential part of ``d_i nu^a`` (components along the *other* frame
    directions removed; the self component vanishes identically for unit
    columns and is left untouched).
    """

    chart: Chart
    frame: np.ndarray          # (d, n, *grid)
    A: np.ndarray              # (d, n, m, *grid)
    orthonormality_defect: float
    min_overlap_det: float

    @property
    def d(self) -> int:
        return self.frame.shape[0]

    @property
    def n(self) -> int:
        return self.frame.shape[1]


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


def build_normal_frame(chart: Chart, spans: np.ndarray) -> NormalFrame:
    """Orthonormalize per-node spanning sets into a continuous frame.

    ``spans`` is grid first, ``(*grid, n, d)``, as datasets and the oracle
    hold normal data; it is read once into the components-first frame.
    The spans are Gram-Schmidt-orthonormalized column by column, each inner
    product one elementwise sum over the nodes; this is QR with positive
    diagonal, smooth in smooth full-rank input and invariant under positive
    column scalings, and for ``d = 1`` it is plain normalization.  The data
    is rank deficient when the smallest pivot anywhere is at most
    ``RANK_REL_TOL`` times the largest.  A center-out sweep over
    :func:`isogauss.grid.staircase_runs` then compares each node with its
    already repaired neighbor one step towards the chart center and repairs
    any per-node sign or order change of the columns (an overlap far from
    the identity) by the maximal-overlap signed permutation.  So the frame
    is continuous across the whole chart: normal data is an unoriented
    plane.  The sweep forms the overlaps of each run with one
    :func:`node_product`; each flipped node, in order along its line,
    takes the signed permutation nearest its current overlap, and so does
    the rest of its line, whose overlaps it conjugates.  Only a run that
    held a flip forms its overlaps again.
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
    # [a, n, ...]: column a of every node
    spans = np.moveaxis(spans, (-1, -2), (0, 1))
    Q = np.empty((d, n) + chart.shape)
    pivots = np.empty((d,) + chart.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(d):
            v = spans[a]
            for b in range(a):
                v = v - node_inner(Q[b], v, 1) * Q[b]
            pivots[a] = node_norm(v, 1)
            np.divide(v, pivots[a], out=Q[a])
    # a zero pivot leaves NaN, which fails the comparison too
    if not float(np.min(pivots)) > RANK_REL_TOL * float(np.max(pivots)):
        raise InvalidGrassmannDataError(
            "spanning sets are rank deficient at some node")

    eye = np.eye(d)
    # each node's repaired overlap with its previous node; the center has
    # none, holds the identity and is left out of the minimum
    comps = (slice(None),) * 2
    overlaps = np.empty((d, d) + chart.shape)
    overlaps[comps + chart.center] = eye
    # grid-first view of Q for the repairs
    Qg = np.moveaxis(Q, (0, 1), (-1, -2))
    for a, run, prev in staircase_runs(chart):
        D_run = overlaps[comps + run]
        node_product(Q[comps + prev], Q[comps + run].swapaxes(0, 1),
                     out=D_run)
        # views with the steps of the run on axis 0
        Qr, Qp, D = (np.moveaxis(v, a, 0) for v in (
            Qg[run], Qg[prev], np.moveaxis(D_run, (0, 1), (-2, -1))))
        # repairs conjugate the later overlaps of a line, which keeps
        # their distance from the identity: the mask holds for the run
        flips = np.nonzero(np.linalg.norm(D - eye, axis=(-2, -1))
                           > _FLIP_THRESHOLD)
        for k in zip(*flips):
            G = _signed_permutation_fit(Qp[k].T @ Qr[k]).T
            rest = (slice(k[0], None),) + k[1:]
            Qr[rest] = Qr[rest] @ G
        if flips[0].size:
            node_product(Q[comps + prev], Q[comps + run].swapaxes(0, 1),
                         out=D_run)
    # a 1 x 1 overlap is its own determinant; LAPACK per node costs more
    dets = (overlaps[0, 0] if d == 1
            else np.linalg.det(np.moveaxis(overlaps, (0, 1), (-2, -1))))
    dets[chart.center] = math.inf
    min_det = float(np.min(dets))

    gram = node_product(Q, Q.swapaxes(0, 1))
    for a in range(d):
        gram[a, a] -= 1.0
    defect = float(np.max(node_norm(gram, 2)))

    A = grad_all(Q, chart)                                     # [a, n, i]
    if d > 1:
        # <nu^b, d_i nu^a>, self terms skipped, all read before any is
        # removed
        off = {(b, a): node_product(Q[b][None], A[a])[0]
               for a in range(d) for b in range(d) if b != a}
        for (b, a), ip in off.items():
            A[a] -= Q[b][:, None] * ip
    return NormalFrame(chart=chart, frame=Q, A=A,
                       orthonormality_defect=defect, min_overlap_det=min_det)


@dataclass(frozen=True)
class CodimForms:
    """Mixed third forms of a normal frame, components first."""

    chart: Chart
    k_ab: np.ndarray       # (d, d, m, m, *grid), <A^a e_i, A^b e_j>
    k: np.ndarray          # (m, m, *grid), sum of the diagonal blocks

    @property
    def d(self) -> int:
        return self.k_ab.shape[0]


def third_forms(frame: NormalFrame) -> CodimForms:
    """``k^{ab} = (A^a)^T A^b`` block by block, each a :func:`node_product`;
    the blocks ``a = b`` and their sum ``k`` are symmetric bit for bit.
    A product that overflows (a differential near the largest float) raises
    :class:`SamplingError`."""
    A, d, m = frame.A, frame.d, frame.chart.m
    k_ab = np.empty((d, d, m, m) + frame.chart.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(d):
            for b in range(d):
                node_product(A[a].swapaxes(0, 1), A[b], out=k_ab[a, b])
    if not np.all(np.isfinite(k_ab)):
        raise SamplingError("the third form k = dnu^T dnu is not finite: "
                            "the Gauss-map differential overflows")
    # for d = 1 the one block is k: the per-node forms are held once
    k = k_ab[0, 0]
    for a in range(1, d):
        k = k + k_ab[a, a]
    return CodimForms(chart=frame.chart, k_ab=k_ab, k=k)


# ---------------------------------------------------------------------------
# mean curvature vector from the fixed space of rho


@dataclass(frozen=True)
class MeanCurvatureResult:
    """The trace-matrix route's result.  Its internals keep batched products
    on the grid-first layout (see :func:`_rho_and_B`); the candidates are
    components first, as the pipeline passes them on."""

    status: str                     # ok | degenerate | rejected | indeterminate
    candidates: list[np.ndarray]    # each (d, *grid)
    unit_eigen_distance: float      # interior max of sigma_min(rho^T - I)
    unit_tol: float                 # unit-eigenvalue tolerance of the counts
    fixed_dim: int                  # typical fixed-space dimension
    rho: np.ndarray                 # (*grid, d, d)
    # the operators of the recovery formula, shared by every candidate
    B: np.ndarray                   # (*grid, m, m), (Ric + k)^{-1}
    k_ab_op: np.ndarray             # (*grid, d, d, m, m)
    notes: list[str] = field(default_factory=list)


def _rho_and_B(forms: CodimForms, Ric: np.ndarray, metric: MetricField):
    """The trace matrix ``rho`` and the operators ``B = (Ric + k)^{-1}`` and
    ``g^{-1} k^{ab}`` of the recovery formula.  ``Ric + k``, its
    eigenvalues and the raised forms are formed components first; ``B``
    and ``g^{-1} k^{ab}`` are then written grid first, the one conversion
    of the trace-matrix internals, which keep their batched products
    (LAPACK ``inv``, ``rho``, the candidates' operators and the direction
    solve) on that layout."""
    ric_k = symmetric_part(Ric + forms.k)
    eigs = symmetric_eig(np.moveaxis(to_orthonormal(metric, ric_k),
                                     (0, 1), (-2, -1)))
    if float(np.min(np.abs(eigs))) <= 1e-10 * max(float(np.max(np.abs(eigs))), 1e-300):
        raise DomainError("Ric + k is not invertible; the trace matrix is undefined")
    B = np.linalg.inv(grid_first(raise_index(metric, ric_k), 2))
    # g^{-1} k^{ab} as [i, j, a, b, ...], then grid first as [..., a, b, i, j]
    raised = raise_index(metric, np.moveaxis(forms.k_ab, (0, 1), (2, 3)))
    k_ab_op = grid_first(np.moveaxis(raised, (2, 3), (0, 1)), 4)
    rho = np.einsum("...ij,...abji->...ab", B, k_ab_op, optimize=True)
    return rho, B, k_ab_op


def _halpha_ops(H: np.ndarray, B: np.ndarray, k_ab_op: np.ndarray) -> np.ndarray:
    """h^b as operators from the recovery formula, shape (*grid, d, m, m)."""
    Hk = H[..., None, :] @ k_ab_op.reshape(k_ab_op.shape[:-3] + (-1,))
    return B[..., None, :, :] @ Hk.reshape(k_ab_op.shape[:-4] + k_ab_op.shape[-3:])


def _trailing_norm(a: np.ndarray, k: int) -> np.ndarray:
    """Frobenius norm over the last ``k`` axes of a grid-first array, per
    node: the norm of the trace-matrix and theorem3 internals."""
    flat = a.reshape(a.shape[:a.ndim - k] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _block_products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X^a Y^b`` for every pair of blocks, shape (*grid, d, d, m, m)."""
    return X[..., :, None, :, :] @ Y[..., None, :, :, :]


def _right_singular(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of a ``(..., r, p)`` stack, ascending, and the right
    singular vector ``v`` of the smallest, shape ``(..., p)``, from the
    eigenvalues and bottom eigenvector of the Gram ``E^T E``.  The smallest
    singular value is the residual norm ``|E v|``, which is as accurate as
    an SVD's; the square root of the smallest Gram eigenvalue would resolve
    it only to about ``1e-8 |E|``.
    """
    lam, v = symmetric_eig(E.mT @ E, vectors=True)
    sig = np.sqrt(np.clip(lam, 0.0, None))
    sig[..., 0] = _trailing_norm(E @ v[..., None], 2)
    return sig, v


def mean_curvature_vector(forms: CodimForms, Ric: np.ndarray,
                          length: np.ndarray, metric: MetricField,
                          unit_tol: float,
                          sign_branch: int = 1) -> MeanCurvatureResult:
    """Recover the mean curvature vector from the fixed space of rho.

    ``length`` is ``|H| = sqrt(s + Tr k)`` from step 1; relative singular
    values of ``rho^T - I`` up to ``unit_tol``
    (:meth:`isogauss.admissibility.PipelineOptions.unit_tol`) count as unit
    eigenvalues.  The singular values of ``E = rho^T - I`` and the right
    singular vector ``v`` of the smallest come from
    :func:`isogauss.curvature.symmetric_eig` of the ``d x d`` Gram
    ``E^T E`` (:func:`_right_singular`), which forms no other vector.  The
    smallest singular value is the residual norm ``|E v|``, not the square
    root of the smallest Gram eigenvalue (which resolves it only to about
    ``1e-8 |E|``), so ``unit_eigen_distance`` keeps the accuracy of an SVD.
    Generic data has a one-dimensional fixed space at eigenvalue 1; the unit
    fixed vector is continued outwards from the chart center and scaled to
    ``length``, on the branch :func:`isogauss.grid.center_sign` picks times
    ``sign_branch`` (+1 or -1).  When the fixed space is the whole normal
    plane (``d = 2``, e.g. products of plane curves) the
    direction is solved exactly from the quadratic product constraint by
    :func:`_resolve_full_fixed_space`; every minimizing direction is
    returned as a candidate for the caller to test in full.  A full fixed
    space with ``d >= 3`` is left unresolved.
    """
    chart = metric.chart
    d = forms.d
    inter = chart.interior
    rho, B, k_ab_op = _rho_and_B(forms, Ric, metric)
    scale = np.maximum(1.0, _trailing_norm(rho, 2))
    sig, v = _right_singular(np.swapaxes(rho, -1, -2) - np.eye(d))
    dims = np.sum(sig <= unit_tol * scale[..., None], axis=-1)
    unit_dist = interior_max(chart, sig[..., 0] / scale)

    def result(status, candidates, fixed_dim, notes=()):
        return MeanCurvatureResult(status, candidates, unit_dist, unit_tol,
                                   fixed_dim, rho, B, k_ab_op, list(notes))

    if float(np.mean(dims[inter] == 0)) > 0.01:
        return result("rejected", [], 0,
                      ["rho has no eigenvalue within tolerance of 1: data "
                       "inadmissible"])
    if float(np.mean(dims[inter] == 1)) >= 0.99:
        v = v * align_signs(chart, v)[..., None]
        v = v * (center_sign(chart, v) * sign_branch)
        return result("ok", [components_first(length[..., None] * v, 1)], 1)
    if float(np.mean(dims[inter] == d)) >= 0.99 and d == 2:
        cands = _resolve_full_fixed_space(chart, length, B, k_ab_op, sign_branch)
        return result("degenerate", [components_first(H, 1) for H in cands], d,
                      ["fixed space of rho is the whole normal space; "
                       "direction resolved against the quadratic product "
                       "constraint"])
    return result("indeterminate", [], int(np.max(dims[inter])),
                  ["fixed space of rho has dimension >= 2 and no supported "
                   "resolution applies"])


def _resolve_full_fixed_space(chart: Chart, length: np.ndarray, B: np.ndarray,
                              k_ab_op: np.ndarray,
                              sign_branch: int) -> list[np.ndarray]:
    """Directions (constant in the continued frame) that best fit the products.

    With ``P_a`` the operators for ``H = length * e_a`` and
    ``w = (cos psi, sin psi)``, the defect ``h^a h^b - k^{ab}`` is
    ``c^2 X_00 + cs (X_01 + X_10) + s^2 X_11`` for ``X_ab = P_a P_b -
    delta_ab k``, normalized per node by ``1 + |k|``.  In ``phi = 2 psi``
    (the half-circle of directions; the global sign is free) it is
    ``Y_0 + cos phi Y_1 + sin phi Y_2``, so its interior mean square is
    ``F = a_0 + Re(c_1 z + c_2 z^2)`` on ``z = e^{i phi}``.  The critical
    points are the unit-modulus roots of the quartic ``z^2 F' / i``; the
    minima (``F'' > 0``) within 5 % of the critical values' range are the
    candidates.
    """
    inter = chart.interior
    length_i, B_i, K = length[inter], B[inter], k_ab_op[inter]
    P0, P1 = (_halpha_ops(length_i[..., None] * e, B_i, K) for e in np.eye(2))
    X00 = _block_products(P0, P0) - K
    X11 = _block_products(P1, P1) - K
    Xx = _block_products(P0, P1) + _block_products(P1, P0)
    denom = 2.0 * (1.0 + _trailing_norm(K, 4))[..., None, None, None, None]
    Y = (np.stack([X00 + X11, X00 - X11, Xx]) / denom).reshape(3, -1)
    G = (Y @ Y.T) / math.prod(K.shape[:-4])               # mean over nodes

    a0 = G[0, 0] + 0.5 * (G[1, 1] + G[2, 2])
    c1 = 2.0 * (G[0, 1] - 1j * G[0, 2])
    c2 = 0.5 * (G[1, 1] - G[2, 2]) - 1j * G[1, 2]
    roots = np.roots([2.0 * c2, c1, 0.0, -np.conj(c1), -2.0 * np.conj(c2)])
    # the other roots pair up as z, 1/conj(z) off the circle
    crit = [z / abs(z) for z in roots if abs(abs(z) - 1.0) <= 1e-6]
    if not crit:                    # F is constant: no direction is fixed
        return []
    values = [a0 + (c1 * z + c2 * z * z).real for z in crit]
    best = min(values)
    margin = best + 0.05 * (max(values) - best) + 1e-14
    minima = [(F, (0.5 * float(np.angle(z))) % math.pi)
              for F, z in zip(values, crit)
              if F <= margin and -(c1 * z + 4.0 * c2 * z * z).real > 0.0]
    candidates = []
    for _, psi in sorted(minima):
        H = length[..., None] * np.array([math.cos(psi), math.sin(psi)])
        candidates.append(H * (center_sign(chart, H) * sign_branch))
    # deterministic preference among equally-good minima: larger component
    # sum on the selected sign branch, so the two branches mirror each other
    candidates.sort(key=lambda H: -sign_branch * float(np.sum(H[chart.center])))
    return candidates


def second_forms(H: np.ndarray, B: np.ndarray, k_ab_op: np.ndarray,
                 metric: MetricField) -> np.ndarray:
    """Candidate second forms ``h^a``, lowered and symmetrized,
    ``(d, m, m, *grid)``.

    ``H`` is a ``(d, *grid)`` candidate of :func:`mean_curvature_vector`;
    ``B`` and ``k_ab_op`` are the grid-first operators it formed
    (``MeanCurvatureResult.B`` / ``.k_ab_op``), shared by every candidate.
    The operators of :func:`_halpha_ops` are read components first, once,
    and lowered by :func:`isogauss.curvature.node_product`; the product
    check ``h^a h^b = k^{ab}`` is
    :func:`isogauss.admissibility.check_h_squared`.
    """
    ops = components_first(_halpha_ops(grid_first(H, 1), B, k_ab_op), 3)
    return np.stack([symmetric_part(node_product(metric.g, op)) for op in ops])


# ---------------------------------------------------------------------------
# the bundle map U


class WeingartenCombination(NamedTuple):
    """One normal direction ``sum_a w_a nu^a`` with its differential."""

    w: np.ndarray          # (d,)
    A: np.ndarray          # (n, m, *grid), sum_a w_a A^a
    k: np.ndarray          # (m, m, *grid), its third form
    min_singular: float    # extreme singular values of A, domain in g
    max_singular: float
    invertible: bool


def _combinations(d: int) -> np.ndarray:
    """Candidate weights ``w``, one per row: each frame direction, and for
    ``d >= 2`` fixed unit linear combinations of the frame."""
    weights = list(np.eye(d))
    if d > 1:
        rng = np.random.default_rng(0)
        mixes = [np.ones(d)] + [rng.standard_normal(d) for _ in range(3)]
        weights += [w / np.linalg.norm(w) for w in mixes]
    return np.array(weights)


def _weighted(w: np.ndarray, blocks) -> np.ndarray:
    """``sum_a w_a blocks[a]``, summed in index order."""
    out = w[0] * blocks[0]
    for w_a, block in zip(w[1:], blocks[1:]):
        out += w_a * block
    return out


def _candidate_forms(weights: np.ndarray, k_ab: np.ndarray,
                     metric: MetricField) -> np.ndarray:
    """``k_w = sum_ab w_a w_b k^{ab}`` in g-orthonormal frames for every row
    ``w`` of ``weights``, shape ``(len(weights), m, m, *grid)``; the ``d^2``
    blocks are taken to g-orthonormal frames by one
    :func:`isogauss.curvature.to_orthonormal`."""
    d = k_ab.shape[0]
    # [i, j, a, b, ...] = k^{ab} in g-orthonormal frames
    blocks = to_orthonormal(metric, np.moveaxis(k_ab, (0, 1), (2, 3)))
    flat = [blocks[:, :, a, b] for a in range(d) for b in range(d)]
    pair_weights = (weights[:, :, None] * weights[:, None, :]).reshape(-1, d * d)
    return np.stack([_weighted(pw, flat) for pw in pair_weights])


def weingarten_combination(A: np.ndarray, k_ab: np.ndarray,
                           metric: MetricField) -> WeingartenCombination:
    """The best-conditioned frame combination ``w``, and whether its
    differential ``A_w = sum_a w_a A^a`` is everywhere invertible.

    ``A`` and ``k_ab`` are a :class:`NormalFrame`'s differentials and their
    mixed third forms; ``k_w = sum_ab w_a w_b k^{ab}``.  Every candidate of
    :func:`_combinations` is scored by the ratio of the smallest to the
    largest singular value of ``A_w`` over the chart, with the domain
    measured in g (the square roots of the extreme eigenvalues of ``k_w`` in
    g-orthonormal frames), and the best one is kept.  The ``d^2`` blocks
    ``k^{ab}`` are taken to g-orthonormal frames once; each candidate's form
    is their ``w_a w_b``-weighted sum, and one call of
    :func:`isogauss.curvature.symmetric_eig` gives the eigenvalues of every
    candidate.  ``A_w`` and ``k_w`` are formed for the winner only (as
    views when it is a frame direction).  It is invertible when that ratio
    exceeds ``RANK_REL_TOL``: for ``d = 1`` this is the Gauss map having an
    invertible differential.
    """
    d = k_ab.shape[0]
    weights = _combinations(d)
    # a temporary: the kernel frees it once read
    eigs = symmetric_eig(np.moveaxis(_candidate_forms(weights, k_ab, metric),
                                     (1, 2), (-2, -1)))
    axes = tuple(range(1, eigs.ndim))
    max_sv = np.sqrt(np.clip(np.max(eigs, axis=axes), 0.0, None))
    min_sv = np.sqrt(np.clip(np.min(eigs, axis=axes), 0.0, None))
    c = int(np.argmax(min_sv / np.maximum(max_sv, 1e-300)))
    w, min_sv, max_sv = weights[c], float(min_sv[c]), float(max_sv[c])
    if c < d:
        A_w, k_w = A[c], k_ab[c, c]
    else:
        A_w = _weighted(w, A)
        k_w = _weighted(np.outer(w, w).ravel(), k_ab.reshape((d * d,) + k_ab.shape[2:]))
    return WeingartenCombination(w, A_w, k_w, min_sv, max_sv,
                                 min_sv > RANK_REL_TOL * max_sv and max_sv > 0.0)


def frame_consistency(A: np.ndarray, U: np.ndarray, h_alpha: np.ndarray,
                      chart: Chart) -> float:
    """Interior max of ``|h^a + (A^a)^T U|`` over all directions (normalized):
    the directions that :func:`weingarten_combination` did not invert."""
    defect = np.empty(h_alpha.shape)
    for a in range(A.shape[0]):
        # [i, j] = <A^a e_i, u_j>
        node_product(A[a].swapaxes(0, 1), U, out=defect[a])
    np.negative(defect, out=defect)
    defect -= h_alpha
    cons = node_norm(defect, 3) / (1.0 + node_norm(h_alpha, 3))
    return interior_max(chart, cons)
