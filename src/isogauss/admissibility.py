"""Decide whether sampled (metric, Gauss map) data admits an isometric immersion.

The decision pipeline follows four steps: positivity of the scalar invariant
``q = s + Tr_g k``; recovery of a candidate second fundamental form ``h``
(closed form when ``q > 0``, a per-node homogeneous linear system solved by
an eigensolve of its Gram matrix when ``q = 0`` and ``m >= 3``, one member
of the associated family, from its Hopf angle, when ``q = 0`` and
``m = 2``); the quadratic check ``h^2 = k``; and isometry, parallelity
and integrability (the curl) of the bundle map ``U`` that would be the
differential of the immersion, so an admissible ``U`` integrates.
Every codimension ``d`` shares the normal frame of :mod:`isogauss.codim`
and steps 1, 3 and 4; normal data of codimension ``d >= 2`` recovers its
candidates in step 2 from the trace matrix.  All verdicts carry named
residuals (never bare booleans) so that convergence behaviour can be
asserted by callers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .codim import (_right_singular, _weighted, build_normal_frame,
                    frame_consistency, mean_curvature_vector, second_forms,
                    third_forms, weingarten_combination)
from .curvature import (CurvaturePack, MetricField, _sum_of_products,
                        components_first, curvature_operator, grid_first,
                        node_inner, node_max, node_norm, node_product,
                        riemann_tensor, spd_solve, symmetric_part,
                        to_orthonormal)
from .errors import (BranchError, ConfigurationError, DegenerateGaussMapError,
                     DomainError)
from .grid import Chart, align_signs, grad_all, integrate, interior_max

RESIDUAL_KEYS = ("step1_positivity", "h_squared", "isometry", "parallelity",
                 "curl", "aalpha_consistency", "nullspace_gap")

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
    """Per-node candidate (h^a, H^a, U) produced by one solve route,
    components first; the normal axis has length d (1 for hypersurfaces)."""

    h_alpha: np.ndarray    # (d, m, m, *grid), symmetric
    H_alpha: np.ndarray    # (d, *grid), = Tr_g h^a
    U: np.ndarray          # (n, m, *grid)
    method: str
    sign_branch: int


@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: str
    failed_step: str | None
    residuals: dict[str, float]    # what is judged; NaN where not run
    thresholds: dict[str, float]
    method: str
    candidate: CandidateSolution | None = None
    notes: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)  # read by no verdict

    @property
    def admissible(self) -> bool:
        return self.verdict == VERDICT_ADMISSIBLE


def _nan_residuals() -> dict[str, float]:
    return {key: math.nan for key in RESIDUAL_KEYS}


# ---------------------------------------------------------------------------
# step 1


def third_form_trace(k: np.ndarray, metric: MetricField) -> np.ndarray:
    """Tr_g k, equal per node to |A|^2 in g-orthonormal frames."""
    return node_inner(metric.g_inv, k, 2)


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
    codimension ``d >= 2``).  A chart whose normalized ``q`` is within noise
    of zero at some node (``qn_min`` in ``[-tau, tau]``) and above noise at
    another (``qn_max > tau``) is classified ``mixed``; the
    smooth-square-root subtlety makes any branch choice there a guess, so
    the pipeline reports the data inapplicable instead of picking one.
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
    return symmetric_part((Ric + k) / H)


@dataclass(frozen=True)
class Theorem3Result:
    h: np.ndarray | None       # (m, m, *grid)
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
    for a, b in itertools.combinations(range(m), 2):
        w = np.zeros((m, m))
        w[a, b] = 1.0
        w[b, a] = -1.0
        mats.append(w)
    return np.array(mats)


def _so_g_basis(g_inv: np.ndarray) -> np.ndarray:
    """The basis ``g^{-1} W_b`` of so_g, ``(*grid, nb, m, m)``, with ``W``
    from :func:`_antisymmetric_basis`.  ``W_b`` holds one +1, at ``(a, b)``,
    and one -1, so column ``b`` of ``g^{-1} W_b`` is column ``a`` of
    ``g^{-1}``, column ``a`` is minus column ``b`` and the rest are zero:
    exact copies, no product."""
    m = g_inv.shape[-1]
    pairs = list(itertools.combinations(range(m), 2))
    out = np.zeros(g_inv.shape[:-2] + (len(pairs), m, m))
    for i, (a, b) in enumerate(pairs):
        out[..., i, :, b] = g_inv[..., :, a]
        np.negative(g_inv[..., :, b], out=out[..., i, :, a])
    return out


def _theorem3_map(m: int) -> np.ndarray:
    """The constant map ``C`` of theorem3's per-node system.

    Row ``(b, i, j)`` of the system, column ``e``, is ``(S_e M_b - 2 W_b
    g^{-1} S_e)_{ij}`` for the bases ``W`` of so(m) and ``S`` of symmetric
    matrices; it is linear in ``z = [vec M_b, vec g^{-1}]``, so the system
    is ``(z @ C).reshape(nb m^2, p)``.  ``C`` is those two products applied
    to the identity; its entries are 0, +-1 and +-2.
    """
    W, S = _antisymmetric_basis(m), _symmetric_basis(m)
    nb, p = W.shape[0], S.shape[0]
    unit_M = np.eye(nb * m * m).reshape(nb * m * m, nb, m, m)
    unit_g = np.eye(m * m).reshape(m * m, m, m)
    rows = np.concatenate([np.einsum("eik,zbkj->zbije", S, unit_M),
                           -2.0 * np.einsum("bik,zkl,elj->zbije", W, unit_g, S)])
    return rows.reshape(nb * m * m + m * m, nb * m * m * p)


# theorem3 solves its per-node system this many nodes at a time (rounded to
# whole axis-0 slabs), so the system and its Gram do not grow with the grid
_THEOREM3_BLOCK_NODES = 4096


def h_from_theorem3(pack: CurvaturePack, k: np.ndarray, metric: MetricField,
                    options: PipelineOptions | None = None) -> Theorem3Result:
    """Per-node nullspace solve of ``h k^{-1} R(Om) = 2 Om h`` over so_g.

    Letting ``Om`` run over the m(m-1)/2 basis elements ``g^{-1} W_b`` of
    so_g gives, for every node, a linear map on symmetric ``h``.  Its
    ``(m^2 m(m-1)/2) x m(m+1)/2`` matrix is one product ``z @ C`` of the
    node's ``z = [vec M_b, vec g^{-1}]``, ``M_b = k^{-1} R(g^{-1} W_b)``
    (:func:`curvature.curvature_operator`), with the constant map of
    :func:`_theorem3_map`.  The bottom right singular vector of that
    system, the only eigenvector the Jacobi kernel
    :func:`curvature.symmetric_eig` forms of its Gram matrix
    (:func:`codim._right_singular`), is the nullspace.  A
    one-dimensional numerical nullspace (small last singular value, clear
    gap to the second-last) certifies uniqueness up to scale; the missing
    scale is restored from ``Tr(h^2) = Tr k`` and the sign is fixed once per
    chart (trace >= 0 at the center) and continued seamlessly.

    The last singular value is the residual norm ``|mat v|`` of that
    eigenvector, so the gap keeps the accuracy of an SVD.  The others are
    square roots of Gram eigenvalues, resolved only to about ``1e-8`` of the
    largest; a gap tolerance below that cannot separate the second-last
    from zero.  The system, its Gram and the eigensolve run in blocks of
    whole axis-0 slabs of about ``_THEOREM3_BLOCK_NODES`` nodes, so their
    temporaries do not grow with the grid.  Invertibility of the Gauss-map
    differential is judged once, before step 1
    (:func:`isogauss.codim.weingarten_combination`); here only a ``k``
    that is not positive definite raises :class:`DegenerateGaussMapError`.
    """
    options = options or PipelineOptions()
    chart = metric.chart
    m = chart.m
    if m < 3:
        raise DomainError("the linear-system route needs m >= 3")
    kop_inv = spd_solve(k, metric.g)
    if kop_inv is None:
        raise DegenerateGaussMapError("third form not invertible; dnu is degenerate")
    # the per-block system and its eigensolve keep batched products on the
    # grid-first layout: its inputs are written grid first here, and h is
    # read back components first at the end
    kop_inv, ginv = grid_first(kop_inv, 2), grid_first(metric.g_inv, 2)

    W = _antisymmetric_basis(m)
    C = _theorem3_map(m)
    rows, p = W.size, m * (m + 1) // 2
    # z = [vec M_b, vec g^{-1}] per node
    z = np.empty(chart.shape + (C.shape[0],))
    np.matmul(kop_inv[..., None, :, :],
              curvature_operator(pack, metric, _so_g_basis(ginv)),
              out=z[..., :rows].reshape(chart.shape + W.shape))
    z[..., rows:] = ginv.reshape(chart.shape + (m * m,))
    null, sig = np.empty((2,) + chart.shape + (p,))
    step = max(1, _THEOREM3_BLOCK_NODES // math.prod(chart.shape[1:]))
    for i0 in range(0, chart.shape[0], step):
        blk = slice(i0, i0 + step)
        sig[blk], null[blk] = _right_singular(
            (z[blk] @ C).reshape(z[blk].shape[:-1] + (rows, p)))
    sig_last, sig_prev, sig1 = sig[..., 0], sig[..., 1], sig[..., -1]
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

    S = _symmetric_basis(m)
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
    return Theorem3Result(components_first(h, 2), gap, has_null, unique,
                          frac_unique, "ok", utol)


def hopf_angle_gradient(metric: MetricField, Gamma: np.ndarray,
                        kappa: np.ndarray) -> np.ndarray:
    """Gradient ``f[j] = chol[j, a] dphi(e_a)`` of the Hopf angle, m = 2,
    ``(m, *grid)``.

    In the Cholesky frame ``e_a`` (the rows of ``chol_inv``) a trace-free
    ``h`` with ``h^2 = kappa^2 I`` is ``h_phi = kappa [[cos phi, sin phi],
    [sin phi, -cos phi]]``.  Codazzi for it reads ``dphi(e1) = -2 w(e1) +
    e2(log kappa)`` and ``dphi(e2) = -2 w(e2) - e1(log kappa)`` with
    ``w(X) = g(nabla_X e1, e2)``; ``f`` is closed exactly when the Hopf
    differential is holomorphic.
    """
    L, Li = metric.chol, metric.chol_inv
    # e1 = d_0 / L00 and g(d_i, e2) = L_i1, so w_j = L11 Gamma^1_j0 / L00
    f = (-2.0 * L[1, 1] / L[0, 0]) * Gamma[1, :, 0]
    dlog = grad_all(np.log(kappa), metric.chart)
    e1_log = Li[0, 0] * dlog[0]
    e2_log = Li[1, 0] * dlog[0] + Li[1, 1] * dlog[1]
    f[0] += L[0, 0] * e2_log
    f[1] += L[1, 0] * e2_log - L[1, 1] * e1_log
    return f


def h_from_hopf_angle(metric: MetricField, Gamma: np.ndarray, k: np.ndarray,
                      sign: int = 1) -> np.ndarray:
    """The member ``chol h_phi chol^T`` of the associated family of minimal
    m = 2 data whose Hopf angle is 0 at the chart center (``sign = -1`` is
    ``phi = pi``, i.e. ``-h``); ``kappa^2 = tr(k_on) / 2`` and ``phi``
    integrates :func:`hopf_angle_gradient`."""
    k_on = to_orthonormal(metric, k)
    kappa = np.sqrt(0.5 * (k_on[0, 0] + k_on[1, 1]))
    phi = integrate(hopf_angle_gradient(metric, Gamma, kappa)[None],
                    metric.chart)[0]
    c, s = sign * kappa * np.cos(phi), sign * kappa * np.sin(phi)
    h_on = np.empty(k.shape)
    h_on[0, 0], h_on[1, 1] = c, -c
    h_on[0, 1] = h_on[1, 0] = s
    L = metric.chol
    return node_product(node_product(L, h_on), L.swapaxes(0, 1))


# ---------------------------------------------------------------------------
# checks (steps 3 and 4, plus the appendix cross-check)


def check_h_squared(h_alpha: np.ndarray, k_ab: np.ndarray,
                    metric: MetricField) -> float:
    """Interior max of ``|h^a g^{-1} h^b - k^{ab}| / (1 + |k^{ab}|)`` per
    node, over every block of the ``(d, m, m, *grid)`` lowered second forms
    and the ``(d, d, m, m, *grid)`` mixed third forms (``h^2 = k`` when
    ``d = 1``)."""
    d = h_alpha.shape[0]
    hg = [node_product(h, metric.g_inv) for h in h_alpha]
    defect = np.empty(k_ab.shape)
    for a in range(d):
        for b in range(d):
            node_product(hg[a], h_alpha[b], out=defect[a, b])
    defect -= k_ab
    res = node_norm(defect, 4) / (1.0 + node_norm(k_ab, 4))
    return interior_max(metric.chart, res)


def build_U(A: np.ndarray, k: np.ndarray, h: np.ndarray,
            frame: np.ndarray) -> np.ndarray:
    """Solve ``A^T U = -h`` with columns in the normal complement.

    ``A`` is the ``(n, m, *grid)`` differential of one normal direction,
    ``k = A^T A`` its third form and ``h`` its second form.  That direction
    is an everywhere-invertible combination of the frame (the unit normal
    when ``d = 1``; :func:`isogauss.codim.weingarten_combination`) and ``h``
    the same combination of the ``h^a``: the two combine covariantly, so
    any such combination determines the same U.  ``A`` has full column rank
    on non-degenerate data, so the solution is ``U = -A k^{-1} h``, with
    ``k^{-1} h = L^{-T} (L^{-1} h)`` from the Cholesky factor ``k = L L^T``
    (:func:`isogauss.curvature.spd_solve`); a ``k`` that is not positive
    definite at some node raises :class:`DegenerateGaussMapError`.
    Columns are re-projected onto the complement of the ``(d, n, *grid)``
    normal frame to strip the O(dx^2) normal component that discrete
    differentiation leaves in ``A``.  Every product is a
    :func:`isogauss.curvature.node_product` sum.
    """
    kinvh = spd_solve(k, h)
    if kinvh is None:
        raise DegenerateGaussMapError(
            "third form not positive definite, cannot invert A^*")
    U = node_product(A, kinvh)
    np.negative(U, out=U)
    for nu in frame:
        U -= nu[:, None] * node_product(nu[None], U)
    return U


def check_isometry(U: np.ndarray, metric: MetricField) -> float:
    """Interior max of ``|U^T U - g| / (1 + |g|)`` per node."""
    defect = node_product(U.swapaxes(0, 1), U)
    defect -= metric.g
    res = node_norm(defect, 2) / (1.0 + node_norm(metric.g, 2))
    return interior_max(metric.chart, res)


def check_parallel(U: np.ndarray, Gamma: np.ndarray, frame: np.ndarray,
                   chart: Chart, dU: np.ndarray | None = None) -> float:
    """Parallelity defect of U: tangential part of dU minus the Gamma term.

    Per node and index pair (i, j) this is the norm of
    ``d_i u_j - sum_a <d_i u_j, nu^a> nu^a - Gamma^k_ij u_k`` over the
    columns of the ``(d, n, *grid)`` normal frame, normalized by
    ``1 + |Gamma| |U|``; the interior maximum is returned.  ``dU`` is
    ``grad_all(U, chart)`` when the caller has it; it is overwritten.
    """
    m = chart.m
    tang = grad_all(U, chart) if dU is None else dU           # [n, j, i]
    # every normal component is read from dU before any is removed
    ips = [node_product(nu[None], tang.reshape((len(nu), m * m) + chart.shape))
           .reshape((1, m, m) + chart.shape) for nu in frame]
    for nu, ip in zip(frame, ips):
        for n, nu_n in enumerate(nu):
            tang[n] -= nu_n * ip[0]
    del ips, ip
    # u_k Gamma^k_ij, subtracted at [n, j, i] one entry at a time
    t, u = np.empty((2,) + chart.shape)
    for n in range(len(U)):
        for i in range(m):
            for j in range(m):
                tang[n, j, i] -= _sum_of_products(
                    [(U[n, k], Gamma[k, i, j]) for k in range(m)], t, u)
    del t, u
    # norm over n, then the largest over (i, j)
    res = node_max(node_norm(tang, 1), 2)
    scale = 1.0 + node_norm(Gamma, 3) * node_norm(U, 2)
    # U is a derived field: a deeper margin keeps its boundary-layer
    # truncation error out of the stencil
    return interior_max(chart, res / scale, margin=4)


def curl_residual(U: np.ndarray, chart: Chart,
                  dU: np.ndarray | None = None) -> float:
    """Mixed-partials defect: the interior max over nodes and pairs
    ``i < j`` of ``|d_i u_j - d_j u_i|``, normalized by ``1 + max |U|`` over
    the chart.

    Zero (up to discretization) is exactly path independence of the line
    integral of U, i.e. integrability of du = U.  ``dU`` is
    ``grad_all(U, chart)`` when the caller has it.
    """
    if dU is None:
        dU = grad_all(U, chart)                               # [n, j, i]
    res = np.zeros(chart.shape)
    for i, j in itertools.combinations(range(chart.m), 2):
        np.maximum(res, node_norm(dU[:, j, i] - dU[:, i, j], 1), out=res)
    scale = 1.0 + float(np.max(node_norm(U, 2)))
    return interior_max(chart, res, margin=4) / scale


# ---------------------------------------------------------------------------
# the pipeline

# the residuals a candidate is judged by, in report order (a residual
# without a threshold, NaN, is never judged; a NaN residual against a
# threshold fails)
_JUDGED = ("h_squared", "isometry", "parallelity", "curl",
           "aalpha_consistency")


def _badness(report: AdmissibilityReport) -> float:
    values = [report.residuals[k]
              for k in ("h_squared", "isometry", "parallelity", "curl")]
    return math.inf if any(map(math.isnan, values)) else max(values)


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
                      f"normalized s + Tr k runs from {s1.qn_min:.4g}, within "
                      f"tau = {tau:.4g} of 0, to {s1.qn_max:.4g} > tau: it is "
                      f"neither zero nor positive beyond noise on the whole "
                      f"chart, so no branch is selected")

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
        H = node_inner(metric.g_inv, h, 2)
        candidates = [(h[None], H[None])]

    # steps 3 and 4 read only Gamma of the curvature data
    Gamma = pack.Gamma
    del pack
    thresholds.update(h_squared=tau, isometry=tau, parallelity=tau, curl=tau)
    if not hypersurface:
        thresholds["aalpha_consistency"] = tau
    best = None
    for h_alpha, H_alpha in candidates:
        U = build_U(wc.A, wc.k, _weighted(wc.w, h_alpha), frame)
        res = dict(residuals)
        res["h_squared"] = check_h_squared(h_alpha, forms.k_ab, metric)
        res["isometry"] = check_isometry(U, metric)
        # U's one derivative: the curl reads it, then parallelity reuses it
        dU = grad_all(U, chart)
        res["curl"] = curl_residual(U, chart, dU)
        res["parallelity"] = check_parallel(U, Gamma, frame, chart, dU)
        del dU
        if not hypersurface:
            res["aalpha_consistency"] = frame_consistency(nf.A, U, h_alpha,
                                                          chart)
        candidate = CandidateSolution(h_alpha, H_alpha, U, method, sign)
        failing = [key for key in _JUDGED if math.isfinite(thresholds[key])
                   and not res[key] <= thresholds[key]]
        if not failing:
            return AdmissibilityReport(VERDICT_ADMISSIBLE, None, res, thresholds,
                                       method, candidate, notes, extra)
        step = "3" if {"h_squared", "aalpha_consistency"} & set(failing) else "4"
        report = AdmissibilityReport(
            VERDICT_REJECTED, step, res, thresholds, method, candidate,
            notes + [f"failing: {', '.join(failing)}"], extra)
        if best is None or _badness(report) < _badness(best):
            best = report
    return best
