"""Per-node, per-angle and per-value reference implementations.

These are the straightforward loops that ``grid.align_signs``,
``codim.build_normal_frame`` and the text I/O (``datafiles.read_dataset``,
``datafiles.write_dataset``, ``cli._write_plot_data``) vectorize, the
180-angle scan that ``codim._resolve_full_fixed_space`` replaces by an
exact solve, the index-notation contractions and triangular solves that
``curvature`` replaces by batched matrix products, and the finite-difference
second derivatives that ``surfaces.generate`` replaces by the Weingarten
identity, the whole-grid batched SVD that
``admissibility.h_from_theorem3`` replaces by a blocked Gram eigensolve,
the per-matrix LAPACK ``cholesky``, ``inv`` and ``solve`` calls that
``curvature.cholesky_factors`` replaces by one elementwise kernel, and the
per-matrix LAPACK ``eigvalsh``, ``eigh`` and ``svd`` calls that
``curvature.symmetric_eig`` replaces by one elementwise Jacobi kernel (with
``codim.weingarten_combination`` as it scored each candidate by its own
eigensolve), the ``np.sum`` / ``np.max`` reductions over trailing axes and
the ``np.gradient`` stack that ``curvature.node_norm``,
``curvature.node_max`` and ``grid.grad_all`` replace by elementwise
kernels, and the per-matrix LAPACK ``det`` of ``check_minimal_m2``; the
equivalence tests compare the package against them.
``gauss_map_differential`` is the hypersurface formula that the one-column
normal frame reproduces.
"""

from __future__ import annotations

import math

import numpy as np

from isogauss.admissibility import (MinimalCaseResult, PipelineOptions,
                                    Theorem3Result, _antisymmetric_basis,
                                    _symmetric_basis)
from isogauss.codim import (_FLIP_THRESHOLD, RANK_REL_TOL,
                            WeingartenCombination, _combinations, _halpha_ops,
                            _product_defect, _signed_permutation_fit)
from isogauss.curvature import raise_index, to_orthonormal
from isogauss.datafiles import (_BLOCK_ORDER, FORMAT_VERSION, KINDS, Dataset,
                                _validate_blocks)
from isogauss.errors import (DatasetFormatError, DegenerateGaussMapError,
                             DomainError)
from isogauss.grid import build_chart, center_sign, grad_all
from isogauss.surfaces import _cstep_jacobian

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
    min_det = math.inf
    for idx, prev in staircase_orders(chart):
        if prev is None:
            continue
        D = Q[prev].T @ Q[idx]
        if np.linalg.norm(D - np.eye(d)) > _FLIP_THRESHOLD:
            G = _signed_permutation_fit(D.T)
            Q[idx] = Q[idx] @ G.T
            D = Q[prev].T @ Q[idx]
        min_det = min(min_det, float(np.linalg.det(D)))
    return Q, min_det


def gauss_map_differential(chart, nu):
    """``A = d nu`` and ``k = A^T A`` of the normalized field ``nu``,
    straight from the differences: what the one-column frame reduces to.
    ``k`` is the same batched product ``codim.third_forms`` forms, so the
    two agree bit for bit."""
    A = grad_all(nu / np.sqrt(np.sum(nu * nu, axis=-1))[..., None], chart)
    k = A.mT @ A
    return A, 0.5 * (k + np.swapaxes(k, -1, -2))


def christoffel(metric):
    """``Gamma^k_ij = g^kl Gamma_lij``, contracted in index notation."""
    dg = grad_all(metric.g, metric.chart)             # [..., i, j, l] = d_l g_ij
    low = 0.5 * (np.einsum("...jli->...lij", dg)
                 + np.einsum("...ilj->...lij", dg)
                 - np.einsum("...ijl->...lij", dg))
    return np.einsum("...kl,...lij->...kij", metric.g_inv, low)


def riemann_tensor(metric, Gamma):
    """``(R_low, Ric, s)`` of ``Gamma``, contracted in index notation."""
    dG = grad_all(Gamma, metric.chart)                # [..., l, j, k, a] = d_a G^l_jk
    R = (np.einsum("...ljki->...lijk", dG)
         - np.einsum("...likj->...lijk", dG)
         + np.einsum("...lip,...pjk->...lijk", Gamma, Gamma)
         - np.einsum("...ljp,...pik->...lijk", Gamma, Gamma))
    R_low = np.einsum("...lp,...pijk->...ijkl", metric.g, R)
    Ric = np.einsum("...jk,...ijkl->...il", metric.g_inv, R_low)
    s = np.einsum("...il,...il->...", metric.g_inv, Ric)
    return R_low, Ric, s


def to_orthonormal(metric, b_low):
    """``inv(L) b inv(L)^T`` by two batched solves against ``L``."""
    tmp = np.linalg.solve(metric.chol, b_low)
    return np.swapaxes(np.linalg.solve(metric.chol, np.swapaxes(tmp, -1, -2)),
                       -1, -2)


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
        dp = _cstep_jacobian(fn, xp)
        dm = _cstep_jacobian(fn, xm)
        cols.append((dp - dm) / (2 * _FD2_STEP))
    u2 = np.stack(cols, axis=-1)                 # (..., n, i, j)
    return 0.5 * (u2 + np.swapaxes(u2, -1, -2))


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


def h_from_theorem3_svd(pack, k, metric, options=None):
    """theorem3 by one whole-grid batched SVD of the Frobenius-normalized
    per-node system, with the last right singular vector as the nullspace
    and the signs continued by the node loop above."""
    options = options or PipelineOptions()
    chart = metric.chart
    m = chart.m
    if m < 3:
        raise DomainError("the linear-system route needs m >= 3")
    kop = raise_index(metric, k)
    k_eigs = np.linalg.eigvalsh(to_orthonormal(metric, k))
    if float(np.min(k_eigs)) <= RANK_REL_TOL * max(float(np.max(k_eigs)), 1e-300):
        raise DegenerateGaussMapError("third form not invertible; dnu is degenerate")
    kop_inv = np.linalg.inv(kop)
    ginv = metric.g_inv
    g = metric.g

    W = _antisymmetric_basis(m)
    S = _symmetric_basis(m)
    Om_up = np.einsum("...ik,bkl,...lj->...bij", ginv, W, ginv, optimize=True)
    T = np.einsum("...ip,...jq,...pqkl,...bkl->...bij",
                  ginv, ginv, pack.R_low, Om_up, optimize=True)
    CO = -(T @ g[..., None, :, :])
    M = kop_inv[..., None, :, :] @ CO
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

    h_raw = (Vh[..., -1, :] @ S.reshape(p, m * m)).reshape(chart.shape + (m, m))
    hop = ginv @ h_raw
    tr_h2 = np.einsum("...ij,...ji->...", hop, hop)
    tr_k = np.einsum("...ii->...", kop)
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
    call per matrix (lower triangle, ascending)."""
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def right_singular(E):
    """``codim._right_singular`` from one LAPACK SVD per matrix: singular
    values ascending, right singular vectors as columns."""
    _, sig, Vh = np.linalg.svd(E)
    return sig[..., ::-1], Vh[..., ::-1, :].mT


def weingarten_combination(A, k_ab, metric):
    """``codim.weingarten_combination`` forming ``A_w`` and ``k_w`` for every
    candidate and scoring each by its own LAPACK ``eigvalsh`` of
    ``to_orthonormal(k_w)``."""
    d = A.shape[-1]
    best = None
    for c, w in enumerate(_combinations(d)):
        if c < d:
            A_w, k_w = A[..., c], k_ab[..., c, c, :, :]
        else:
            A_w = A @ w
            k_w = np.einsum("...abij,a,b->...ij", k_ab, w, w, optimize=True)
        eigs = np.linalg.eigvalsh(to_orthonormal(metric, k_w))
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


def check_minimal_m2(metric, k, s):
    """``admissibility.check_minimal_m2`` with ``det(k) / det(g)`` from one
    LAPACK ``det`` per matrix."""
    chart = metric.chart
    K = 0.5 * s
    det_gk = np.linalg.det(k) / np.linalg.det(metric.g)
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
