"""Per-node, per-angle and per-value reference implementations.

These are the straightforward loops that ``grid.align_signs``,
``codim.build_normal_frame`` and the text I/O (``datafiles.read_dataset``,
``datafiles.write_dataset``, ``cli._write_plot_data``) vectorize, the
180-angle scan that ``codim._resolve_full_fixed_space`` replaces by an
exact solve, the index-notation contractions and triangular solves that
``curvature`` replaces by batched matrix products, and the finite-difference
second derivatives that ``surfaces.generate`` replaces by the Weingarten
identity, the ``einsum`` assembly with a whole-grid batched SVD or a
per-node LAPACK ``eigh`` of its Gram matrix that
``admissibility.h_from_theorem3`` replaces by one constant map and the
Jacobi kernel, the per-matrix LAPACK ``cholesky``, ``inv`` and ``solve``
calls that ``curvature.cholesky_factors`` replaces by one elementwise kernel, and the
per-matrix LAPACK ``eigvalsh``, ``eigh`` and ``svd`` calls that
``curvature.symmetric_eig`` replaces by one elementwise Jacobi kernel (with
``codim.weingarten_combination`` as it scored each candidate by its own
eigensolve), the ``np.sum`` / ``np.max`` reductions over trailing axes and
the ``np.gradient`` stack that ``curvature.node_norm``,
``curvature.node_max`` and ``grid.grad_all`` replace by elementwise
kernels, and the whole antisymmetric defect that ``admissibility.curl_residual`` reads only
above the diagonal; the equivalence tests compare the package against them.
``gauss_map_differential`` is the hypersurface formula that the one-column
normal frame reproduces, and ``generate_grid_first`` is the oracle as it was
sampled grid first, with its third forms formed eagerly.

The Gauss and Codazzi equations, which the pipeline never evaluates, are
the tests' independent checks of the oracle and of admissible candidates:
``riemann_low`` completes theorem3's lowered rows ``i < j`` to the whole
``R_ijkl``, ``codazzi_residual`` and ``gauss_codazzi_residuals`` measure the
two defects, and ``gauss_equation_R`` is the exact curvature of the Gauss
equation in ``CurvaturePack.R``'s layout, which theorem3 reads through its
own path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from isogauss import curvature
from isogauss.admissibility import (PipelineOptions, Theorem3Result,
                                    _antisymmetric_basis, _symmetric_basis)
from isogauss.codim import (_FLIP_THRESHOLD, RANK_REL_TOL,
                            WeingartenCombination, _block_products,
                            _combinations, _halpha_ops, _signed_permutation_fit)
from isogauss.datafiles import (_BLOCK_ORDER, FORMAT_VERSION, KINDS, Dataset,
                                _validate_blocks)
from isogauss.errors import (DatasetFormatError, DegenerateGaussMapError,
                             DomainError)
from isogauss.grid import build_chart, center_sign, grad_all, interior_max
from layout import cf, gf, gf_metric

_CSTEP = 1e-100
_FD2_STEP = 1e-5


def staircase_orders(chart):
    """Center-out, axis-ordered traversal yielding ``(node, previous node)``.

    The chart center comes first with ``previous = None``; every later
    previous node was yielded earlier and is one step away along one axis.
    """
    base = chart.center
    yield base, None
    filled_ranges = [range(b, b + 1) for b in base]
    for a in range(chart.m):
        n = chart.shape[a]
        b = base[a]
        prefix_iter = list(np.ndindex(*[len(r) for r in filled_ranges[:a]]))
        for side in (range(b + 1, n), range(b - 1, -1, -1)):
            for i in side:
                step = -1 if i < b else 1
                for pre in prefix_iter:
                    lead = tuple(filled_ranges[t][pre[t]] for t in range(a))
                    yield (lead + (i,) + base[a + 1:],
                           lead + (i - step,) + base[a + 1:])
        filled_ranges[a] = range(n)


def align_signs(chart, vectors):
    """Node-by-node sign continuation with the ``>= 0`` tie rule."""
    sign = np.ones(chart.shape)
    flat = vectors.reshape(chart.shape + (-1,))
    for idx, prev in staircase_orders(chart):
        if prev is None:
            continue
        d = float(np.dot(flat[idx], flat[prev])) * sign[prev]
        sign[idx] = 1.0 if d >= 0 else -1.0
    return sign


def normal_frame(chart, spans):
    """Gram-Schmidt frame repaired node by node; returns
    ``(frame, min_overlap_det)``."""
    d = spans.shape[-1]
    Q = np.empty_like(spans, dtype=float)
    for idx in np.ndindex(*chart.shape):
        for a in range(d):
            v = spans[idx][:, a]
            for b in range(a):
                v = v - np.sum(Q[idx][:, b] * v) * Q[idx][:, b]
            Q[idx][:, a] = v / np.sqrt(np.sum(v * v))
    def overlap(P, R):
        # P^T R, each entry summed over the ambient index in index order
        D = P[0][:, None] * R[0][None, :]
        for i in range(1, len(P)):
            D = D + P[i][:, None] * R[i][None, :]
        return D

    min_det = math.inf
    for idx, prev in staircase_orders(chart):
        if prev is None:
            continue
        D = overlap(Q[prev], Q[idx])
        if np.linalg.norm(D - np.eye(d)) > _FLIP_THRESHOLD:
            G = _signed_permutation_fit(D.T)
            Q[idx] = Q[idx] @ G.T
            D = overlap(Q[prev], Q[idx])
        min_det = min(min_det, float(np.linalg.det(D)))
    return Q, min_det


def gauss_map_differential(chart, nu):
    """``A = d nu`` and ``k = A^T A`` of the normalized field ``nu``,
    straight from the differences, grid first: what the one-column frame
    reduces to.  ``k`` sums the products over the ambient index in index
    order, as ``codim.third_forms`` does, so the two agree bit for bit."""
    A = gradient_stack(nu / np.sqrt(np.sum(nu * nu, axis=-1))[..., None],
                       chart)
    k = A[..., 0, :, None] * A[..., 0, None, :]
    for n in range(1, A.shape[-2]):
        k = k + A[..., n, :, None] * A[..., n, None, :]
    return A, k


def christoffel(metric):
    """``Gamma^k_ij = g^kl Gamma_lij``, contracted in index notation."""
    metric = gf_metric(metric)
    dg = gradient_stack(metric.g, metric.chart)       # [..., i, j, l] = d_l g_ij
    low = 0.5 * (np.einsum("...jli->...lij", dg)
                 + np.einsum("...ilj->...lij", dg)
                 - np.einsum("...ijl->...lij", dg))
    return np.einsum("...kl,...lij->...kij", metric.g_inv, low)


def riemann_tensor(metric, Gamma):
    """``(R_low, Ric, s)`` of ``Gamma``, contracted in index notation."""
    metric = gf_metric(metric)
    dG = gradient_stack(Gamma, metric.chart)          # [..., l, j, k, a] = d_a G^l_jk
    R = (np.einsum("...ljki->...lijk", dG)
         - np.einsum("...likj->...lijk", dG)
         + np.einsum("...lip,...pjk->...lijk", Gamma, Gamma)
         - np.einsum("...ljp,...pik->...lijk", Gamma, Gamma))
    R_low = np.einsum("...lp,...pijk->...ijkl", metric.g, R)
    Ric = np.einsum("...jk,...ijkl->...il", metric.g_inv, R_low)
    s = np.einsum("...il,...il->...", metric.g_inv, Ric)
    return R_low, Ric, s


def riemann_low(pack, metric):
    """``R_ijkl = g_lp R^p_ijk``, ``(m, m, m, m, *grid)``: the rows ``i < j``
    of ``curvature._lowered_pairs`` completed by antisymmetry, so that it is
    antisymmetric in ``(i, j)`` bit for bit."""
    m = metric.chart.m
    lowered = curvature._lowered_pairs(pack, metric)
    R_low = np.zeros((m,) * 4 + metric.chart.shape)
    for n, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        R_low[i, j] = lowered[:, :, n]
        np.negative(lowered[:, :, n], out=R_low[j, i])
    return R_low


def gauss_equation_R(h_alpha, metric):
    """``R^l_ijk = g^lp R_ijkp`` with ``R_ijkl = sum_a (h^a_il h^a_jk -
    h^a_ik h^a_jl)``, exact in the second forms ``h_alpha`` (grid first,
    ``(*grid, d, m, m)``): the rows ``i < j`` in ``CurvaturePack.R``'s
    layout, free of finite-difference error."""
    m = metric.chart.m
    h = cf(h_alpha, 3)
    quad = (np.einsum("ail...,ajk...->ijkl...", h, h)
            - np.einsum("aik...,ajl...->ijkl...", h, h))
    pairs = list(itertools.combinations(range(m), 2))
    rows = quad[[i for i, _ in pairs], [j for _, j in pairs]]
    return np.einsum("lp...,nkp...->lnk...", metric.g_inv, rows)


def codazzi_residual(h, Gamma, metric):
    """Interior max of ``(nabla_i h)_jk - (nabla_j h)_ik`` (normalized), for
    an ``(m, m, *grid)`` form ``h``."""
    chart = metric.chart
    m = chart.m
    dh = grad_all(h, chart)                                   # [j, k, i]
    nabla = np.empty((m, m, m) + chart.shape)                  # [i, j, k]
    t, u = np.empty((2,) + chart.shape)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                x = nabla[i, j, k]
                np.copyto(x, dh[j, k, i])
                x -= curvature._sum_of_products(
                    [(Gamma[p, i, j], h[p, k]) for p in range(m)], t, u)
                x -= curvature._sum_of_products(
                    [(h[j, p], Gamma[p, i, k]) for p in range(m)], t, u)
    defect = nabla - nabla.swapaxes(0, 1)
    del nabla
    res = curvature.node_norm(defect, 3)
    scale = 1.0 + curvature.node_norm(h, 2) * (
        1.0 + curvature.node_norm(Gamma, 3))
    return interior_max(chart, res / scale, margin=4)


def gauss_codazzi_residuals(data, pack, metric):
    """Interior maxima of the Gauss and Codazzi defects of oracle data.

    Gauss: ``R_ijkl - sum_a (h^a_il h^a_jk - h^a_ik h^a_jl)``.  Codazzi is the
    symmetrized-covariant-derivative defect of each ``h^a``; for codimension
    >= 2 this is the flat-normal-connection form, valid for the catalog
    frames (which are parallel in the normal bundle).
    """
    h = cf(data.h_alpha, 3)
    quad = (np.einsum("ail...,ajk...->ijkl...", h, h, optimize=True)
            - np.einsum("aik...,ajl...->ijkl...", h, h, optimize=True))
    scale = 1.0 + float(np.max(curvature.node_norm(quad, 4)))
    R_low = riemann_low(pack, metric)
    inter = (slice(None),) * 4 + data.chart.interior
    gauss = float(np.max(curvature.node_norm((R_low - quad)[inter], 4))) / scale
    codazzi = max(codazzi_residual(h_a, pack.Gamma, metric) for h_a in h)
    return gauss, codazzi


def to_orthonormal(metric, b_low):
    """``inv(L) b inv(L)^T`` by two batched solves against ``L``, grid
    first."""
    metric = gf_metric(metric)
    tmp = np.linalg.solve(metric.chol, b_low)
    return np.swapaxes(np.linalg.solve(metric.chol, np.swapaxes(tmp, -1, -2)),
                       -1, -2)


def _leading(a):
    """A contiguous copy of ``a`` with its trailing axis moved first."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


class GridFirst:
    """A catalog surface read grid first, through a layout adapter:
    ``point(x)`` takes ``x[..., m]`` and returns ``(..., n)``, and
    ``frame(x, u)`` returns ``(..., n, d)``.  Each argument reaches the
    surface as a contiguous components-first copy, as the package's own
    sampler hands it over."""

    def __init__(self, surface):
        self.surface = surface

    def point(self, x):
        return np.moveaxis(self.surface.point(_leading(x)), 0, -1)

    def frame(self, x, u):
        return np.moveaxis(self.surface.frame(_leading(x), _leading(u)),
                           (0, 1), (-2, -1))


def generate_grid_first(surface, chart):
    """The fields of ``surfaces.generate``, sampled and multiplied grid
    first as it did before its sampler went components first: each of the
    ``m + 1`` complex-step evaluations runs on the ``(*grid, m)`` mesh
    through :class:`GridFirst`, the derivatives land on a trailing axis, and
    the third forms ``k_ab`` and ``k`` are formed with the other products.
    Returns a dict of the fields, ``dframe`` and ``branch`` included."""
    surface = GridFirst(surface)
    x = chart.mesh()
    m = chart.m
    u = np.real(surface.point(x))
    frame = np.real(surface.frame(x, u))
    du = np.empty(u.shape + (m,))
    dframe = np.empty(frame.shape + (m,))
    for j in range(m):
        xc = x.astype(complex)
        xc[..., j] += 1j * _CSTEP
        uc = surface.point(xc)
        fc = surface.frame(xc, uc)
        du[..., j] = uc.imag / _CSTEP
        dframe[..., j] = fc.imag / _CSTEP
    d = frame.shape[-1]
    duT = np.ascontiguousarray(du.mT)
    g = duT @ du
    flat = dframe.reshape(u.shape + (d * m,))
    h_alpha = -np.swapaxes((duT @ flat).reshape(chart.shape + (m, d, m)),
                           -3, -2)
    h_alpha = 0.5 * (h_alpha + np.swapaxes(h_alpha, -1, -2))
    L_inv = gf(curvature.cholesky_factors(
        np.moveaxis(g, (-2, -1), (0, 1)))[1], 2)
    g_inv = np.ascontiguousarray(L_inv.mT) @ L_inv
    H_alpha = (h_alpha.reshape(chart.shape + (d, m * m))
               @ g_inv.reshape(chart.shape + (m * m, 1)))[..., 0]
    A_frame = flat - frame @ (np.ascontiguousarray(frame.mT) @ flat)
    k_ab = np.einsum("...aibj->...abij", (
        np.ascontiguousarray(A_frame.mT) @ A_frame).reshape(
            chart.shape + (d, m) * 2))
    k = np.einsum("...aaij->...ij", k_ab)
    k = 0.5 * (k + np.swapaxes(k, -1, -2))
    branch = center_sign(chart, H_alpha)
    if branch < 0:
        u, du, h_alpha, H_alpha = -u, -du, -h_alpha, -H_alpha
    return dict(u=u, du=du, frame=frame, dframe=dframe, g=g, h_alpha=h_alpha,
                H_alpha=H_alpha, k_ab=k_ab, k=k, branch=branch)


def cstep_jacobian(fn, x):
    """d fn / d x_j by complex step, one function at a time; appends the
    derivative axis last."""
    cols = []
    for j in range(x.shape[-1]):
        xc = x.astype(complex)
        xc[..., j] += 1j * _CSTEP
        cols.append(fn(xc).imag / _CSTEP)
    return np.stack(cols, axis=-1)


def second_derivatives(fn, x):
    """u_ij = d_j d_i u, shape (..., n, m, m), by a central difference of
    the complex-step gradient (error ~ 1e-10)."""
    m = x.shape[-1]
    cols = []
    for j in range(m):
        xp = x.copy()
        xm = x.copy()
        xp[..., j] += _FD2_STEP
        xm[..., j] -= _FD2_STEP
        dp = cstep_jacobian(fn, xp)
        dm = cstep_jacobian(fn, xm)
        cols.append((dp - dm) / (2 * _FD2_STEP))
    u2 = np.stack(cols, axis=-1)                 # (..., n, i, j)
    return 0.5 * (u2 + np.swapaxes(u2, -1, -2))


def _product_defect(h_ops, k_ab_op):
    """Per-node norm of h^a h^b - k^{ab} over all blocks, on operators
    (normalized): the score the direction scan minimizes."""
    defect = _block_products(h_ops, h_ops)
    defect -= k_ab_op
    return node_norm(defect, 4) / (1.0 + node_norm(k_ab_op, 4))


def resolve_full_fixed_space(chart, length, B, k_ab_op, sign_branch):
    """Direction scan that rebuilds ``h`` and its products at every angle:
    180 angles on the half-circle, each local minimum within 5 % of the
    score range sharpened by golden-section search."""
    inter = chart.interior

    def score(psi):
        H = length[..., None] * np.array([math.cos(psi), math.sin(psi)])
        h_ops = _halpha_ops(H, B, k_ab_op)
        return float(np.mean(_product_defect(h_ops, k_ab_op)[inter]))

    npts = 180
    angles = np.linspace(0.0, math.pi, npts, endpoint=False)
    scores = np.array([score(psi) for psi in angles])
    best = float(np.min(scores))
    margin = best + 0.05 * (float(np.max(scores)) - best) + 1e-14
    step = math.pi / npts
    minima = []
    for i, sc in enumerate(scores):
        if sc <= scores[i - 1] and sc <= scores[(i + 1) % npts] and sc <= margin:
            psi = golden_min(score, angles[i] - step, angles[i] + step)
            minima.append((score(psi), psi % math.pi))
    candidates = []
    for _, psi in sorted(minima):
        H = length[..., None] * np.array([math.cos(psi), math.sin(psi)])
        candidates.append(H * (center_sign(chart, H) * sign_branch))
    sign = 1 if sign_branch >= 0 else -1
    candidates.sort(key=lambda H: -sign * float(np.sum(H[chart.center])))
    return candidates


def golden_min(fn, a, b, iters=80):
    """Golden-section search for a minimum of ``fn`` on ``[a, b]``."""
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


def _theorem3_rows(pack, k, metric):
    """theorem3's per-node ``(nb m^2, p)`` system by index-notation
    ``einsum`` over the whole grid, with ``k^{-1}`` from one LAPACK ``inv``
    per node."""
    chart = metric.chart
    m = chart.m
    if m < 3:
        raise DomainError("the linear-system route needs m >= 3")
    k_eigs = np.linalg.eigvalsh(to_orthonormal(metric, k))
    if float(np.min(k_eigs)) <= RANK_REL_TOL * max(float(np.max(k_eigs)), 1e-300):
        raise DegenerateGaussMapError("third form not invertible; dnu is degenerate")
    R_low = gf(riemann_low(pack, metric), 4)
    metric = gf_metric(metric)
    ginv = metric.g_inv
    g = metric.g
    kop_inv = np.linalg.inv(ginv @ k)

    W = _antisymmetric_basis(m)
    S = _symmetric_basis(m)
    Om_up = np.einsum("...ik,bkl,...lj->...bij", ginv, W, ginv, optimize=True)
    T = np.einsum("...ip,...jq,...pqkl,...bkl->...bij",
                  ginv, ginv, R_low, Om_up, optimize=True)
    CO = -(T @ g[..., None, :, :])
    M = kop_inv[..., None, :, :] @ CO
    rows = (np.einsum("eik,...bkj->...bije", S, M, optimize=True)
            - 2.0 * np.einsum("bik,...kl,elj->...bije", W, ginv, S, optimize=True))
    nb, p = W.shape[0], S.shape[0]
    return rows.reshape(chart.shape + (nb * m * m, p))


def _theorem3_result(k, metric, options, null, sig1, sig_prev, sig_last):
    """theorem3's certificate, scale and signs from the per-node nullspace
    vector and the first, second-last and last singular values, with the
    signs continued by the node loop above."""
    chart = metric.chart
    m = chart.m
    S = _symmetric_basis(m)
    p = S.shape[0]
    ginv = gf(metric.g_inv, 2)
    gtol = options.unit_tol(chart)
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

    h_raw = (null @ S.reshape(p, m * m)).reshape(chart.shape + (m, m))
    hop = ginv @ h_raw
    tr_h2 = np.einsum("...ij,...ji->...", hop, hop)
    tr_k = np.einsum("...ij,...ji->...", ginv, k)
    lam = np.sqrt(tr_k / np.where(tr_h2 > 0, tr_h2, np.inf))
    if not np.all(np.isfinite(lam)):
        return Theorem3Result(None, gap, has_null, unique, frac_unique,
                              "no_solution", gtol)
    h = lam[..., None, None] * h_raw
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


def h_from_theorem3_svd(pack, k, metric, options=None):
    """theorem3 by one whole-grid batched SVD of the Frobenius-normalized
    per-node system, with the last right singular vector as the nullspace."""
    options = options or PipelineOptions()
    mat = _theorem3_rows(pack, k, metric)
    norm = np.sqrt(np.sum(mat * mat, axis=(-2, -1)))
    _, sig, Vh = np.linalg.svd(mat / norm[..., None, None], full_matrices=False)
    return _theorem3_result(k, metric, options, Vh[..., -1, :], sig[..., 0],
                            sig[..., -2], sig[..., -1])


def h_from_theorem3_eigh(pack, k, metric, options=None):
    """theorem3 by one LAPACK ``eigh`` per node of the trace-scaled Gram
    matrix of the ``einsum``-assembled system: the bottom eigenvector is the
    nullspace, the residual norm ``|mat v|`` the last singular value."""
    options = options or PipelineOptions()
    mat = _theorem3_rows(pack, k, metric)
    gram = mat.mT @ mat
    tr = np.einsum("...ii->...", gram)
    ev, V = np.linalg.eigh(gram / tr[..., None, None])
    sig_last = np.sqrt(np.sum(np.square(mat @ V[..., :, :1]),
                              axis=(-2, -1)) / tr)
    return _theorem3_result(k, metric, options, V[..., :, 0],
                            np.sqrt(ev[..., -1]),
                            np.sqrt(np.clip(ev[..., 1], 0.0, None)), sig_last)


def _fmt(x):
    return f"{x:.17g}"


def write_dataset(path, dataset):
    """Dataset writer that formats one value at a time."""
    chart = dataset.chart
    lines = ["# isogauss dataset",
             f"format_version = {FORMAT_VERSION}",
             f"kind = {dataset.kind}",
             f"m = {chart.m}",
             f"n = {dataset.n}",
             "grid_shape = " + " ".join(str(s) for s in chart.shape),
             "spacing = " + " ".join(_fmt(dx) for dx in chart.spacing),
             "origin = " + " ".join(_fmt(x) for x in chart.origin)]
    for name in _BLOCK_ORDER:
        if name not in dataset.blocks:
            continue
        rows = dataset.blocks[name].reshape(chart.num_points, -1)
        lines.append(f"begin {name}")
        lines.extend(" ".join(_fmt(v) for v in row) for row in rows)
        lines.append(f"end {name}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path):
    """Dataset reader that parses one token at a time with ``float()``."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read dataset: {exc}") from exc
    header = {}
    blocks = {}
    current = None
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("begin "):
            if current is not None:
                raise DatasetFormatError(f"line {ln}: nested block")
            current = line[6:].strip()
            blocks[current] = []
            continue
        if line.startswith("end "):
            if current != line[4:].strip():
                raise DatasetFormatError(f"line {ln}: mismatched block end")
            current = None
            continue
        if current is not None:
            try:
                blocks[current].append([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise DatasetFormatError(f"line {ln}: bad number: {exc}") from exc
        else:
            if "=" not in line:
                raise DatasetFormatError(f"line {ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    if current is not None:
        raise DatasetFormatError(f"unterminated block '{current}'")

    try:
        version = int(header["format_version"])
        kind = header["kind"]
        m = int(header["m"])
        n = int(header["n"])
        shape = tuple(int(t) for t in header["grid_shape"].split())
        spacing = tuple(float(t) for t in header["spacing"].split())
        origin = tuple(float(t) for t in header["origin"].split())
    except KeyError as exc:
        raise DatasetFormatError(f"missing header key {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError(f"bad header value: {exc}") from exc
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unrecognized format_version {version}")
    if kind not in KINDS:
        raise DatasetFormatError(f"unrecognized kind '{kind}'")
    chart = build_chart(m, shape, spacing, origin)

    arrays = {}
    for name, rows in blocks.items():
        if not rows:
            raise DatasetFormatError(f"block '{name}' is empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DatasetFormatError(f"block '{name}' has ragged rows")
        arr = np.array(rows, dtype=float)
        if arr.shape[0] != chart.num_points:
            raise DatasetFormatError(
                f"block '{name}' has {arr.shape[0]} rows, expected "
                f"{chart.num_points}")
        if not np.all(np.isfinite(arr)):
            raise DatasetFormatError(f"block '{name}' contains non-finite values")
        arrays[name] = arr.reshape(chart.shape + (width,))

    _validate_blocks(kind, chart, n, arrays)
    return Dataset(kind=kind, chart=chart, n=n, blocks=arrays)


def write_plot_data(path, chart, u):
    """``.xyz.txt`` writer with one Python line per node."""
    coords = chart.mesh().reshape(chart.num_points, chart.m)
    pts = u.reshape(chart.num_points, -1)
    header = " ".join([f"x{i+1}" for i in range(chart.m)]
                      + [f"u{i+1}" for i in range(pts.shape[1])])
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + header + "\n")
        for c, p in zip(coords, pts):
            fh.write(" ".join(f"{v:.17g}" for v in np.concatenate([c, p])) + "\n")


def cholesky_factors(a):
    """``curvature.cholesky_factors`` by one LAPACK ``cholesky`` and one
    ``inv`` call per matrix.  ``None`` when the factorization fails, or when
    a NaN pivot passed through it: numpy's bundled ``potrf`` tests only
    ``<= 0``."""
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(L)):
        return None
    return L, np.linalg.inv(L)


def build_U(A, k, h, frame):
    """``admissibility.build_U`` with ``k^{-1} h`` from one LAPACK ``solve``
    per node."""
    U = -(A @ np.linalg.solve(k, h))
    for a in range(frame.shape[-1]):
        nu = frame[..., a]
        U = U - nu[..., :, None] * (nu[..., None, :] @ U)
    return U


def symmetric_eig(a, vectors=False):
    """``curvature.symmetric_eig`` by one LAPACK ``eigvalsh`` or ``eigh``
    call per matrix (lower triangle, ascending); with ``vectors`` the
    bottom eigenvector, ``eigh``'s column 0."""
    if not vectors:
        return np.linalg.eigvalsh(a)
    w, V = np.linalg.eigh(a)
    return w, V[..., :, 0]


def right_singular(E):
    """``codim._right_singular`` from one LAPACK SVD per matrix: singular
    values ascending and the right singular vector of the smallest."""
    _, sig, Vh = np.linalg.svd(E)
    return sig[..., ::-1], Vh[..., -1, :]


def weingarten_combination(A, k_ab, metric):
    """``codim.weingarten_combination`` forming ``A_w`` and ``k_w`` for every
    candidate and scoring each by its own LAPACK ``eigvalsh`` of
    ``to_orthonormal(k_w)``.  ``A`` and ``k_ab`` are the package's
    components-first differentials and third forms, and ``A_w`` and ``k_w``
    their weighted sums in index order, as the package forms them."""
    d = A.shape[0]
    best = None
    for c, w in enumerate(_combinations(d)):
        if c < d:
            A_w, k_w = A[c], k_ab[c, c]
        else:
            A_w = sum(w_a * A_a for w_a, A_a in zip(w, A))
            k_w = sum(w[a] * w[b] * k_ab[a, b]
                      for a in range(d) for b in range(d))
        eigs = np.linalg.eigvalsh(to_orthonormal(metric, gf(k_w, 2)))
        max_sv = math.sqrt(max(float(np.max(eigs)), 0.0))
        min_sv = math.sqrt(max(float(np.min(eigs)), 0.0))
        score = min_sv / max(max_sv, 1e-300)
        if best is None or score > best[0]:
            best = (score, WeingartenCombination(
                w, A_w, k_w, min_sv, max_sv,
                min_sv > RANK_REL_TOL * max_sv and max_sv > 0.0))
    return best[1]


def node_norm(a, k):
    """``curvature.node_norm`` by ``np.sum`` over the last ``k`` axes."""
    return np.sqrt(np.sum(a * a, axis=tuple(range(-k, 0))))


def node_max(a, k):
    """``curvature.node_max`` by ``np.max`` over the last ``k`` axes."""
    return np.max(a, axis=tuple(range(-k, 0)))


def gradient_stack(values, chart):
    """``grid.grad_all`` as one ``np.gradient`` per axis, stacked."""
    return np.stack([np.gradient(values, chart.spacing[a], axis=a, edge_order=2)
                     for a in range(chart.m)], axis=-1)


def curl_residual(U, chart):
    """``admissibility.curl_residual`` over the whole ``(j, i)`` block of
    ``d_i u_j - d_j u_i``, diagonal included, by ``np.sum`` and ``np.max``."""
    dU = gradient_stack(U, chart)
    defect = np.moveaxis(dU - np.swapaxes(dU, -1, -2), -3, -1)
    res = node_max(node_norm(defect, 1), 2)
    scale = 1.0 + float(np.max(node_norm(U, 2)))
    return float(np.max(res[chart.interior_slices(4)])) / scale

