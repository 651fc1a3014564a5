"""Intrinsic curvature of a sampled metric.

Index conventions (fixed once, all modules inherit them):

* Every per-node field is stored components first, ``(*components,
  *grid)`` (see :mod:`isogauss.grid`), so ``g[i, j]`` is one contiguous
  array over the nodes.
* ``Gamma[k, i, j]`` = Christoffel symbol with upper index first,
  symmetric in ``(i, j)``.
* ``R^l_{ijk}`` = curvature of the coordinate frame in the convention
  ``R(e_i, e_j) e_k = R^l_{ijk} e_l`` with
  ``R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{ip}Gamma^p_{jk}
  - Gamma^l_{jp}Gamma^p_{ik}``, kept components first for ``i < j`` only
  (:class:`CurvaturePack`).
* ``R_ijkl = g_{lp} R^p_{ijk}`` is formed only inside theorem3's
  curvature operator, for ``i < j`` (:func:`_lowered_pairs`).
* ``Ric[i, l] = g^{jk} R_{ijkl}`` and ``s = g^{il} Ric_{il}``.

With these choices the unit round sphere carries scalar curvature
``m (m - 1) > 0`` and satisfies ``R_{ijkl} = h_{il} h_{jk} - h_{ik} h_{jl}``
with ``h = g``; the test suite pins that calibration and every downstream
formula relies on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SingularMetricError
from .grid import Chart, _deriv_into

_SYM_TOL = 1e-8


def _sum_of_products(terms, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out = sum a * b`` over the factor pairs ``(a, b)`` of ``terms``,
    summed in their order; ``tmp`` is scratch."""
    (a, b), *rest = terms
    np.multiply(a, b, out=out)
    for a, b in rest:
        out += np.multiply(a, b, out=tmp)
    return out


def _leading_flat(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` with its leading ``k`` (component) axes flattened into one."""
    a = np.asarray(a)
    return a.reshape((-1,) + a.shape[k:])


def node_inner(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """``sum a * b`` over the leading ``k`` axes, per node, summed in index
    order: ``Tr(a^T b)`` of two ``(m, m, *grid)`` forms for ``k = 2``."""
    a, b = _leading_flat(a, k), _leading_flat(b, k)
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    return _sum_of_products(zip(a, b), np.empty(shape), np.empty(shape))


def node_norm(a: np.ndarray, k: int) -> np.ndarray:
    """Frobenius norm over the leading ``k`` (component) axes, per node:
    the square root of :func:`node_inner`, so a NaN entry makes its node's
    norm NaN."""
    out = node_inner(a, a, k)
    return np.sqrt(out, out=out)


def node_max(a: np.ndarray, k: int) -> np.ndarray:
    """Maximum over the leading ``k`` (component) axes, per node.

    A chain of elementwise ``np.maximum`` over the components, each one
    contiguous array over the nodes.  The maximum is exact, and a NaN
    anywhere in a node's block makes that node's result NaN, as with
    ``np.max``.
    """
    flat = _leading_flat(a, k)
    out = flat[0].copy()
    for x in flat[1:]:
        np.maximum(out, x, out=out)
    return out


def node_product(a: np.ndarray, b: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Per-node matrix product ``out[i, j] = sum_k a[i, k] b[k, j]``, each
    entry one elementwise sum over contiguous node arrays, in index order.

    The matrix indices are the two leading axes of ``a`` and ``b``; the
    trailing axes (the grid, after any stack of blocks) broadcast, and a
    constant matrix broadcasts against every node.  A transpose is the
    view ``x.swapaxes(0, 1)``, whose entries are still contiguous node
    arrays, so it costs nothing.  The sums do not depend on which BLAS
    kernel a batched ``@`` would pick.  ``out``, when given, receives the
    ``(p, r, *rest)`` result.
    """
    p, q = a.shape[:2]
    r = b.shape[1]
    rest = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    if out is None:
        out = np.empty((p, r) + rest)
    tmp = np.empty(rest)
    for i in range(p):
        for j in range(r):
            _sum_of_products([(a[i, k], b[k, j]) for k in range(q)],
                             out[i, j], tmp)
    return out


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` over the two leading (matrix) axes, a new
    C-contiguous array whose entries ``[i, j]`` and ``[j, i]`` are equal
    bit for bit."""
    out = np.add(a, a.swapaxes(0, 1), out=np.empty(a.shape))
    out *= 0.5
    return out


def cholesky_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Lower Cholesky factor ``L`` (``a = L L^T``) and ``inv(L)`` per node.

    ``a`` is an ``(m, m, *grid)`` stack of symmetric matrices, components
    first; only its lower triangle is read.  ``L`` comes from the unblocked
    Cholesky-Banachiewicz recurrence and ``inv(L)`` from forward
    substitution, one entry at a time, each entry one elementwise operation
    over all nodes.  At these sizes that is LAPACK's arithmetic up to the
    order of the rounding, without a LAPACK call per matrix.  Returns
    ``None`` when any pivot is not ``> 0`` (a NaN pivot included), i.e. when
    some node is not positive definite.
    """
    m = a.shape[0]
    L = np.zeros(a.shape)
    L_inv = np.zeros(a.shape)
    for i in range(m):
        for j in range(i + 1):
            s = a[i, j].copy()
            for k in range(j):
                s -= L[i, k] * L[j, k]
            if i == j:
                if not np.all(s > 0):
                    return None
                L[i, i] = np.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    for j in range(m):
        L_inv[j, j] = 1.0 / L[j, j]
        for i in range(j + 1, m):
            s = L[i, j] * L_inv[j, j]
            for k in range(j + 1, i):
                s += L[i, k] * L_inv[k, j]
            L_inv[i, j] = -s / L[i, i]
    return L, L_inv


# a safety cap only: Jacobi converges quadratically.  Batches of 2000 random
# symmetric matrices meet the tolerance in 4 (m = 3) to 6 (m = 6) sweeps,
# and theorem3's 6 x 6 Grams at 21^3 in 4
_JACOBI_MAX_SWEEPS = 32


def _rotate(c: np.ndarray, s: np.ndarray, x: np.ndarray, y: np.ndarray,
            tmp: np.ndarray) -> None:
    """``(x, y) <- (c x - s y, s x + c y)`` in place, elementwise."""
    np.multiply(s, x, out=tmp[0])
    x *= c
    np.multiply(s, y, out=tmp[1])
    x -= tmp[1]
    y *= c
    y += tmp[0]


def _cos_sin(t: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """``c = 1 / sqrt(1 + t^2)`` and ``s = t c`` of the rotation with tangent
    ``t``, in place; the same operations give the same bits every time."""
    np.square(t, out=c)
    c += 1.0
    np.sqrt(c, out=c)
    np.reciprocal(c, out=c)
    np.multiply(t, c, out=s)


def symmetric_eig(a: np.ndarray, vectors: bool = False):
    """Eigenvalues, ascending, and on request the bottom eigenvector, per
    node.

    ``a`` is a ``(..., m, m)`` stack of symmetric matrices; only its lower
    triangle is read.  Cyclic Jacobi (Golub & Van Loan, *Matrix
    Computations*, section 8.5): each sweep rotates every index pair
    ``(p, q)`` once so that entry ``(p, q)`` of every node vanishes, and
    each rotation is a few elementwise numpy operations over all nodes
    instead of one LAPACK call per matrix.  One sweep is exact for
    ``2 x 2``; larger ``m`` converge quadratically.  Each node is first
    scaled by a power of two so that its largest entry lies in ``[1/2, 1)``:
    the squares in the rotation formula cannot overflow, and only entries
    far below ``eps`` times the largest can underflow.  The sweeps stop
    once every node's off-diagonal mass is at most ``eps`` times its
    Frobenius norm, or after ``_JACOBI_MAX_SWEEPS``.  The eigenvalues are
    then accurate to about ``eps * |a|``, as LAPACK's are (Demmel &
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  A node with a
    non-finite entry gets NaN eigenvalues (and vector); the kernel never
    raises.

    The eigenvectors are the columns of the product ``J_1 ... J_n`` of the
    rotations, and only the bottom one is formed: with ``vectors`` each
    rotation's tangent is kept (8 B per node, so at most
    ``8 * sweeps * m (m - 1) / 2`` bytes per node in all), and after the
    sweeps ``e_j``, ``j`` the first index of the smallest diagonal entry,
    goes through ``J_n`` first and ``J_1`` last.  Each ``J`` is rebuilt
    from its tangent by the operations the sweep used, so it is the
    sweep's rotation bit for bit.

    Returns ``w`` of shape ``(..., m)``, or with ``vectors`` the pair
    ``(w, v)``: ``v`` of shape ``(..., m)`` is a unit vector with
    ``a v = w[..., 0] v``.
    """
    a = np.asarray(a, dtype=float)
    m = a.shape[-1]
    batch = a.shape[:-2]
    lower = [(i, j) for i in range(m) for j in range(i + 1)]
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m)]
    # entries (i, j) and (j, i) of every node are one contiguous row of work
    row = {}
    for n, (i, j) in enumerate(lower):
        row[i, j] = row[j, i] = n
    work = np.empty((len(lower),) + batch)
    d, r, t = np.empty((3,) + batch)
    amax = np.zeros(batch)
    for i, j in lower:
        np.maximum(amax, np.abs(a[..., i, j], out=d), out=amax)
    bad = ~np.isfinite(amax)
    expo = np.frexp(amax)[1]
    del amax
    for i, j in lower:
        np.ldexp(a[..., i, j], -expo, out=work[row[i, j]])
    # a is not read again: a temporary passed in is freed here
    del a
    off2 = np.zeros(batch)
    for p, q in pairs:
        off2 += np.square(work[row[p, q]], out=d)
    tol = off2 + off2
    for i in range(m):
        tol += np.square(work[row[i, i]], out=d)
    tol *= 0.5 * np.finfo(float).eps ** 2
    # c and s rotate the other rows (m > 2) and the vector; with neither
    # (m = 2, values only) t alone finishes each pair
    if vectors or m > 2:
        c, s = np.empty((2,) + batch)
        pair_tmp = np.empty((2,) + batch)
    tangents = []
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_MAX_SWEEPS):
            if not np.any(off2 > tol):
                break
            for p, q in pairs:
                app, aqq = work[row[p, p]], work[row[q, q]]
                apq = work[row[p, q]]
                if vectors:
                    t = np.empty(batch)
                    tangents.append(t)
                # t = tan(angle), the smaller root of
                # t^2 + t (aqq - app) / apq - 1 = 0; tiny keeps 0 / 0 away
                np.subtract(aqq, app, out=d)
                np.square(d, out=r)
                np.square(apq, out=t)
                t *= 4.0
                r += t
                np.sqrt(r, out=r)
                r += np.finfo(float).tiny
                np.copysign(r, d, out=r)
                r += d
                np.add(apq, apq, out=t)
                t /= r
                np.multiply(t, apq, out=r)
                app -= r
                aqq += r
                apq.fill(0.0)
                if m > 2:
                    _cos_sin(t, c, s)
                    for k in range(m):
                        if k != p and k != q:
                            _rotate(c, s, work[row[k, p]], work[row[k, q]],
                                    pair_tmp)
            off2.fill(0.0)
            for p, q in pairs:
                off2 += np.square(work[row[p, q]], out=d)
        if vectors:
            # e_j, j the first index of the smallest diagonal entry: the
            # column the ascending stable sort below puts first
            v = np.empty((m,) + batch)
            v[0] = 1.0
            low = work[row[0, 0]]
            for i in range(1, m):
                np.less(work[row[i, i]], low, out=v[i])
                np.subtract(1.0, v[i], out=d)
                v[:i] *= d
                low = np.minimum(low, work[row[i, i]], out=r)
            # the sweep's _rotate(c, s, x_p, x_q) is x <- J^T x; with the
            # pair swapped it is x <- J x
            for n in reversed(range(len(tangents))):
                p, q = pairs[n % len(pairs)]
                _cos_sin(tangents.pop(), c, s)
                _rotate(c, s, v[q], v[p], pair_tmp)
    # odd-even transposition sort of the diagonal, ascending
    for sweep in range(m):
        for i in range(sweep % 2, m - 1, 2):
            x, y = work[row[i, i]], work[row[i + 1, i + 1]]
            np.minimum(x, y, out=d)
            np.maximum(x, y, out=y)
            np.copyto(x, d)
    w = np.empty(batch + (m,))
    for i in range(m):
        np.ldexp(work[row[i, i]], expo, out=w[..., i])
    np.copyto(w, np.nan, where=bad[..., None])
    if not vectors:
        return w
    # a view, the vector axis outermost in memory: the products callers
    # form of it keep their rounding (a C-order copy moves the codim route's
    # residuals in their last digits)
    v = np.moveaxis(v, 0, -1)
    np.copyto(v, np.nan, where=bad[..., None])
    return w, v


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``a^{-1} b`` per node as ``L^{-T} (L^{-1} b)``, ``L`` from
    :func:`cholesky_factors` and both products from :func:`node_product`;
    ``None`` when ``a`` is not positive definite.  The factors are dropped
    on return, so they do not add to the memory peak of a caller that only
    needs the solution.
    """
    factors = cholesky_factors(a)
    if factors is None:
        return None
    L_inv = factors[1]
    del factors     # L is not read: freed, it makes room for the solution
    return node_product(L_inv.swapaxes(0, 1), node_product(L_inv, b))


@dataclass(frozen=True)
class MetricField:
    """A symmetric positive definite metric sampled on a chart.

    The Cholesky factor ``chol`` (``g = L L^T``, lower) and its inverse
    ``chol_inv`` are computed eagerly by :func:`cholesky_factors`, and
    ``g_inv = chol_inv^T chol_inv``; the columns of ``chol_inv^T`` form
    g-orthonormal frames.
    """

    chart: Chart
    g: np.ndarray          # (m, m, *grid)
    g_inv: np.ndarray      # (m, m, *grid)
    chol: np.ndarray       # (m, m, *grid), lower
    chol_inv: np.ndarray   # (m, m, *grid), lower


def components_first(a: np.ndarray, k: int) -> np.ndarray:
    """A C-contiguous ``(*components, *grid)`` copy of a grid-first array
    whose last ``k`` axes are components: the one conversion at an entry
    point that takes the grid-first arrays of datasets and the oracle."""
    a = np.asarray(a, dtype=float)
    return np.ascontiguousarray(
        np.moveaxis(a, range(a.ndim - k, a.ndim), range(k)))


def grid_first(a: np.ndarray, k: int) -> np.ndarray:
    """A C-contiguous ``(*grid, *components)`` copy of a components-first
    array with ``k`` leading component axes, for the batched products that
    keep the grid-first layout."""
    return np.ascontiguousarray(
        np.moveaxis(a, range(k), range(a.ndim - k, a.ndim)))


def metric_field(chart: Chart, g_values: np.ndarray) -> MetricField:
    """Validate a sampled metric and factor it once for every node.

    ``g_values`` is grid-first, ``(*grid, m, m)``, as datasets and the
    oracle hold it; the :class:`MetricField` holds a components-first copy.
    The metric must have the chart's shape, be finite and symmetric to
    ``_SYM_TOL`` (it is then symmetrized, so ``g[i, j]`` equals ``g[j, i]``
    bit for bit), and be positive definite at every node.  ``chol`` and
    ``chol_inv`` come from :func:`cholesky_factors`, which agrees with
    LAPACK to the last bits; when it fails, the eigenvalues name the node
    of the smallest one in the :class:`SingularMetricError`.  ``g_inv`` and
    the product ``g g_inv`` are :func:`node_product` sums; the product must
    be the identity to ``1e-12`` relative to ``|g| |g_inv|``, and a
    ``g_inv`` that overflows fails that check.
    """
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
    g = components_first(g, 2)
    if asym > 0:
        g = symmetric_part(g)
    factors = cholesky_factors(g)
    if factors is None:
        # eigenvalues only to name the node; the smallest one is named even
        # when it rounds to just above zero
        low = symmetric_eig(np.moveaxis(g, (0, 1), (-2, -1)))[..., 0]
        node = tuple(int(i) for i in np.unravel_index(np.argmin(low), low.shape))
        raise SingularMetricError(
            f"metric not positive definite at node {node} "
            f"(min eigenvalue {low[node]:.3e})", node=node)
    # inv(L) directly: L^T inv(g) agrees with it only to about
    # cond(g) * 1e-16, which is 1e-6 on a metric near singularity
    chol, chol_inv = factors
    with np.errstate(over="ignore", invalid="ignore"):
        g_inv = node_product(chol_inv.swapaxes(0, 1), chol_inv)
        defect = node_product(g, g_inv)
        for i in range(m):
            defect[i, i] -= 1.0
        err = float(np.max(node_norm(defect, 2)))
        rel = float(np.max(node_norm(g, 2)) * np.max(node_norm(g_inv, 2)))
    # NaN and an infinite g_inv fail here too
    if not (np.isfinite(rel) and err <= 1e-12 * max(1.0, rel)):
        raise SingularMetricError(
            f"metric inversion failed the identity check: {err:.3e}")
    return MetricField(chart=chart, g=g, g_inv=g_inv, chol=chol,
                       chol_inv=chol_inv)


@dataclass(frozen=True)
class CurvaturePack:
    """Christoffels plus the Riemann family of one metric, components first.

    ``R`` keeps ``R^l_ijk`` only for the index pairs ``i < j``: ``R[l, n,
    k]`` is ``R^l_ijk`` for the ``n``-th pair ``(i, j)`` of
    ``itertools.combinations(range(m), 2)``, and the pairs ``j < i`` follow
    by antisymmetry.  Exact input (``R`` from the Gauss equation, say)
    enters through ``R`` like any other.
    """

    chart: Chart
    Gamma: np.ndarray      # (m, m, m, *grid)  Gamma^k_ij
    R: np.ndarray          # (m, m (m - 1) / 2, m, *grid)  R^l_ijk, i < j
    Ric: np.ndarray        # (m, m, *grid)
    s: np.ndarray          # (*grid,)


def christoffel(metric: MetricField) -> np.ndarray:
    """Christoffel symbols ``Gamma^k_ij`` of the Levi-Civita connection,
    ``(m, m, m, *grid)``.

    ``Gamma_lij = (d_i g_jl + d_j g_il - d_l g_ij) / 2`` is formed one
    component at a time, each derivative ``d_a g_ij`` (``i <= j``) once;
    ``Gamma^k_ij = g^kl Gamma_lij`` is one batched ``(m x m)(m x m^2)``
    product per node.  That product keeps the grid-first layout: the finite
    differences of ``R`` and of ``U`` differentiate its rounding, and an
    elementwise sum moved parallelity and curl at 257^2 by about 1e-8
    relative.  So ``g_inv`` and ``Gamma_low`` are written grid first for
    it, and ``Gamma`` is stored components first.
    """
    chart = metric.chart
    m = chart.m
    dg = {}
    for i in range(m):
        for j in range(i, m):
            for a in range(m):
                dg[i, j, a] = dg[j, i, a] = np.empty(chart.shape)
                _deriv_into(metric.g[i, j], chart.spacing[a], a, dg[i, j, a])
    low = np.empty(chart.shape + (m, m, m))
    t = np.empty(chart.shape)
    for l in range(m):
        for i in range(m):
            for j in range(i, m):
                np.add(dg[j, l, i], dg[i, l, j], out=t)
                t -= dg[i, j, l]
                t *= 0.5
                # symmetric in (i, j) bit for bit, as g is
                low[..., l, i, j] = t
                if i != j:
                    low[..., l, j, i] = t
    del dg, t
    flat = low.reshape(chart.shape + (m, m * m))
    Gamma = grid_first(metric.g_inv, 2) @ flat
    del low, flat
    return components_first(Gamma.reshape(chart.shape + (m, m, m)), 3)


def riemann_tensor(metric: MetricField) -> CurvaturePack:
    """Full curvature data of the metric (see module docstring for signs).

    Every component is one elementwise sum over contiguous node arrays,
    summed in index order:
    ``R^l_ijk = d_i G^l_jk - d_j G^l_ik + sum_p G^l_ip G^p_jk
    - sum_p G^l_jp G^p_ik`` for ``i < j``, each derivative taken once into
    a scratch array, then ``Ric_il = g_lp (g^jk R^p_ijk)`` and
    ``s = g^il Ric_il``.  The lowered ``R_ijkl`` is not formed (see
    :func:`_lowered_pairs`).
    """
    chart = metric.chart
    m = chart.m
    G = christoffel(metric)
    pairs = list(itertools.combinations(range(m), 2))
    R = np.empty((m, len(pairs), m) + chart.shape)
    t, u = np.empty((2,) + chart.shape)
    for l in range(m):
        for n, (i, j) in enumerate(pairs):
            for k in range(m):
                r = R[l, n, k]
                _deriv_into(G[l, j, k], chart.spacing[i], i, r)
                _deriv_into(G[l, i, k], chart.spacing[j], j, t)
                r -= t
                r += _sum_of_products(
                    [(G[l, i, p], G[p, j, k]) for p in range(m)], t, u)
                r -= _sum_of_products(
                    [(G[l, j, p], G[p, i, k]) for p in range(m)], t, u)
    g, g_inv = metric.g, metric.g_inv
    # A[p, i] = g^jk R^p_ijk; the pairs j < i enter with R's sign flipped
    A = np.zeros((m, m) + chart.shape)
    for p in range(m):
        for n, (i, j) in enumerate(pairs):
            a_i, a_j = A[p, i], A[p, j]
            for k in range(m):
                a_i += np.multiply(g_inv[j, k], R[p, n, k], out=t)
                a_j -= np.multiply(g_inv[i, k], R[p, n, k], out=t)
    Ric = np.empty((m, m) + chart.shape)
    s = np.zeros(chart.shape)
    for i in range(m):
        for l in range(m):
            _sum_of_products([(g[l, p], A[p, i]) for p in range(m)],
                             Ric[i, l], u)
            s += np.multiply(g_inv[i, l], Ric[i, l], out=u)
    return CurvaturePack(chart=chart, Gamma=G, R=R, Ric=Ric, s=s)


def _lowered_pairs(pack: CurvaturePack, metric: MetricField) -> np.ndarray:
    """``R_ijkl = g_lp R^p_ijk`` for the pairs ``i < j``, ``(m, m,
    m (m - 1) / 2, *grid)``: ``[k, l, n]`` for the ``n``-th pair ``(i, j)``
    in ``pack.R``'s order.  Each entry is one sum over ``p`` in index order.
    The rows ``j < i`` are their negation and ``i = j`` zero, so these hold
    all of ``R_ijkl``.
    """
    m = metric.chart.m
    npairs = pack.R.shape[1]
    g = metric.g
    out = np.empty((m, m, npairs) + metric.chart.shape)
    t = np.empty(metric.chart.shape)
    for n in range(npairs):
        for k in range(m):
            for l in range(m):
                _sum_of_products([(g[l, p], pack.R[p, n, k]) for p in range(m)],
                                 out[k, l, n], t)
    return out


def raise_index(metric: MetricField, b_low: np.ndarray) -> np.ndarray:
    """Bilinear form -> operator: ``b^i_j = g^{ik} b_kj``."""
    return node_product(metric.g_inv, b_low)


def to_orthonormal(metric: MetricField, b_low: np.ndarray) -> np.ndarray:
    """Express a (0,2)-form in per-node g-orthonormal frames.

    Returns ``inv(L) b inv(L)^T`` where ``g = L L^T``, two
    :func:`node_product` sums; symmetric input gives a symmetric output
    whose eigenvalues are those of the g-raised operator.  ``b_low`` is
    ``(m, m, *grid)``, or ``(m, m, *stack, *grid)`` for a stack of forms.
    """
    L_inv = metric.chol_inv
    return node_product(node_product(L_inv, b_low), L_inv.swapaxes(0, 1))


def _per_operator(field: np.ndarray, Om_op: np.ndarray) -> np.ndarray:
    """A ``(*grid, m, m)`` field reshaped to broadcast against a
    ``(*grid, *stack, m, m)`` stack of operators."""
    stack = Om_op.ndim - field.ndim
    return field.reshape(field.shape[:-2] + (1,) * stack + field.shape[-2:])


def curvature_operator(pack: CurvaturePack, metric: MetricField,
                       Om_op: np.ndarray) -> np.ndarray:
    """Curvature operator on 2-forms, applied to g-antisymmetric operators.

    Part of theorem3's per-block system, which keeps batched products on
    the grid-first layout: ``Om_op`` is one operator per node,
    ``(*grid, m, m)``, or a stack of them, ``(*grid, *stack, m, m)``, and
    the result has its shape; ``g_inv`` and the rows of ``R_ijkl`` are
    written grid first for it.  With ``Y_pq = R_pqkl (Om g^{-1})^{kl}`` the
    result is ``-g^{-1} Y``.  One ``(m^2 x m (m - 1) / 2)`` product per node
    and operator forms the entries ``p < q`` of ``Y`` from the rows of
    ``R_ijkl`` that :func:`_lowered_pairs` holds.  The overall sign is fixed
    by the calibration constraint that the unit round sphere return
    ``2 * Om`` (equivalently, Gauss-compatible data satisfy ``R(Om) = 2 h Om
    h`` with ``h`` the g-raised second fundamental form).
    """
    grid = metric.chart.shape
    m = Om_op.shape[-1]
    lowered = grid_first(_lowered_pairs(pack, metric), 3)
    g_inv = _per_operator(grid_first(metric.g_inv, 2), Om_op)
    Om_up = (Om_op @ g_inv).reshape(grid + (-1, m * m))
    Y_pairs = Om_up @ lowered.reshape(grid + (m * m, -1))
    del lowered, Om_up
    # -Y, whose entries q < p and p = q follow from R_pqkl's antisymmetry in
    # (p, q); negating an operand negates a product exactly
    neg_Y = np.zeros(Y_pairs.shape[:-1] + (m, m))
    for n, (p, q) in enumerate(itertools.combinations(range(m), 2)):
        np.negative(Y_pairs[..., n], out=neg_Y[..., p, q])
        neg_Y[..., q, p] = Y_pairs[..., n]
    del Y_pairs
    return g_inv @ neg_Y.reshape(Om_op.shape)
