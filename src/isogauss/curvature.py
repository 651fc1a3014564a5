"""Intrinsic curvature of a sampled metric.

Index conventions (fixed once, all modules inherit them):

* ``Gamma[..., k, i, j]``  = Christoffel symbol with upper index first,
  symmetric in ``(i, j)``.
* ``R^l_{ijk}`` = curvature of the coordinate frame in the convention
  ``R(e_i, e_j) e_k = R^l_{ijk} e_l`` with
  ``R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{ip}Gamma^p_{jk}
  - Gamma^l_{jp}Gamma^p_{ik}``.
* ``R_low[..., i, j, k, l] = g_{lp} R^p_{ijk}``.
* ``Ric[..., i, l] = g^{jk} R_{ijkl}`` and ``s = g^{il} Ric_{il}``.

With these choices the unit round sphere carries scalar curvature
``m (m - 1) > 0`` and satisfies ``R_{ijkl} = h_{il} h_{jk} - h_{ik} h_{jl}``
with ``h = g``; the test suite pins that calibration and every downstream
formula relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMetricError
from .grid import Chart, grad_all

_SYM_TOL = 1e-8


def node_norm(a: np.ndarray, k: int) -> np.ndarray:
    """Frobenius norm over the last ``k`` axes, per node.

    The ``k`` axes are flattened (a view for contiguous input) and summed by
    one ``einsum``: numpy's ``reduce`` over a block of a few trailing
    entries costs more than the arithmetic.  The order of the sum differs
    from ``np.sum``'s, which moves a norm by at most a few ulp.
    """
    a = np.asarray(a)
    flat = a.reshape(a.shape[:a.ndim - k] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def node_max(a: np.ndarray, k: int) -> np.ndarray:
    """Maximum over the last ``k`` axes, per node.

    A chain of elementwise ``np.maximum`` over the flattened trailing block,
    for the reason given in :func:`node_norm`.  The maximum is exact, and a
    NaN anywhere in a node's block makes that node's result NaN, as with
    ``np.max``.
    """
    a = np.asarray(a)
    flat = a.reshape(a.shape[:a.ndim - k] + (-1,))
    out = flat[..., 0].copy()
    for i in range(1, flat.shape[-1]):
        np.maximum(out, flat[..., i], out=out)
    return out


def cholesky_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Lower Cholesky factor ``L`` (``a = L L^T``) and ``inv(L)`` per node.

    ``a`` is a ``(..., m, m)`` stack of symmetric matrices; only its lower
    triangle is read.  ``L`` comes from the unblocked Cholesky-Banachiewicz
    recurrence and ``inv(L)`` from forward substitution, one entry at a time,
    each entry one elementwise operation over all nodes.  At these sizes
    that is LAPACK's arithmetic up to the order of the rounding, without a
    LAPACK call per matrix.  Returns ``None`` when any pivot is not ``> 0``
    (a NaN pivot included), i.e. when some node is not positive definite.
    """
    m = a.shape[-1]
    L = np.zeros(a.shape)
    L_inv = np.zeros(a.shape)
    for i in range(m):
        for j in range(i + 1):
            s = a[..., i, j].copy()
            for k in range(j):
                s -= L[..., i, k] * L[..., j, k]
            if i == j:
                if not np.all(s > 0):
                    return None
                L[..., i, i] = np.sqrt(s)
            else:
                L[..., i, j] = s / L[..., j, j]
    for j in range(m):
        L_inv[..., j, j] = 1.0 / L[..., j, j]
        for i in range(j + 1, m):
            s = L[..., i, j] * L_inv[..., j, j]
            for k in range(j + 1, i):
                s += L[..., i, k] * L_inv[..., k, j]
            L_inv[..., i, j] = -s / L[..., i, i]
    return L, L_inv


# a safety cap only: Jacobi converges quadratically, and for m <= 4 it meets
# its tolerance within about six sweeps
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


def symmetric_eig(a: np.ndarray, vectors: bool = False):
    """Eigenvalues, ascending, and on request eigenvectors, per node.

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
    non-finite entry gets NaN eigenvalues (and vectors); the kernel never
    raises.

    Returns ``w`` of shape ``(..., m)``, or with ``vectors`` the pair
    ``(w, V)`` with orthonormal columns ``V[..., :, i]`` and
    ``a V = V diag(w)``.
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
    # c and s rotate the other rows and the vectors; with neither (m = 2,
    # values only) t alone finishes each pair
    rotates = vectors or m > 2
    if rotates:
        c, s = np.empty((2,) + batch)
        pair_tmp = np.empty((2,) + batch)
    if vectors:
        V = np.zeros((m, m) + batch)
        for i in range(m):
            V[i, i] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_MAX_SWEEPS):
            if not np.any(off2 > tol):
                break
            for p, q in pairs:
                app, aqq = work[row[p, p]], work[row[q, q]]
                apq = work[row[p, q]]
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
                if rotates:
                    np.square(t, out=c)
                    c += 1.0
                    np.sqrt(c, out=c)
                    np.reciprocal(c, out=c)
                    np.multiply(t, c, out=s)
                t *= apq
                app -= t
                aqq += t
                apq.fill(0.0)
                for k in range(m):
                    if k != p and k != q:
                        _rotate(c, s, work[row[k, p]], work[row[k, q]],
                                pair_tmp)
                if vectors:
                    for k in range(m):
                        _rotate(c, s, V[k, p], V[k, q], pair_tmp)
            off2.fill(0.0)
            for p, q in pairs:
                off2 += np.square(work[row[p, q]], out=d)
        # odd-even transposition sort of the diagonal, ascending
        for sweep in range(m):
            for i in range(sweep % 2, m - 1, 2):
                x, y = work[row[i, i]], work[row[i + 1, i + 1]]
                if vectors:
                    # swapping two columns is a quarter turn: c = 0, s = 1
                    np.greater(x, y, out=s)
                    np.subtract(1.0, s, out=c)
                    for k in range(m):
                        _rotate(c, s, V[k, i], V[k, i + 1], pair_tmp)
                np.minimum(x, y, out=d)
                np.maximum(x, y, out=y)
                np.copyto(x, d)
    w = np.empty(batch + (m,))
    for i in range(m):
        np.ldexp(work[row[i, i]], expo, out=w[..., i])
    np.copyto(w, np.nan, where=bad[..., None])
    if not vectors:
        return w
    V = np.moveaxis(V, (0, 1), (-2, -1))
    np.copyto(V, np.nan, where=bad[..., None, None])
    return w, V


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``a^{-1} b`` per node as ``L^{-T} (L^{-1} b)``, ``L`` from
    :func:`cholesky_factors`; ``None`` when ``a`` is not positive definite.
    The factors are dropped on return, so they do not add to the memory
    peak of a caller that only needs the solution.
    """
    factors = cholesky_factors(a)
    if factors is None:
        return None
    L_inv = factors[1]
    return L_inv.mT @ (L_inv @ b)


@dataclass(frozen=True)
class MetricField:
    """A symmetric positive definite metric sampled on a chart.

    The Cholesky factor ``chol`` (``g = L L^T``, lower) and its inverse
    ``chol_inv`` are computed eagerly by :func:`cholesky_factors`, and
    ``g_inv = chol_inv^T chol_inv``; the columns of ``chol_inv^T`` form
    g-orthonormal frames.
    """

    chart: Chart
    g: np.ndarray
    g_inv: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray


def metric_field(chart: Chart, g_values: np.ndarray) -> MetricField:
    """Validate a sampled metric and factor it once for every node.

    The metric must have the chart's shape, be finite and symmetric to
    ``_SYM_TOL`` (it is then symmetrized), and be positive definite at every
    node.  ``chol`` and ``chol_inv`` come from :func:`cholesky_factors`, which
    agrees with LAPACK to the last bits; when it fails, the eigenvalues name
    the node of the smallest one in the :class:`SingularMetricError`.  The
    product ``g g_inv`` must be the identity to ``1e-12`` relative to
    ``|g| |g_inv|``.
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
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    factors = cholesky_factors(g)
    if factors is None:
        # eigenvalues only to name the node; the smallest one is named even
        # when it rounds to just above zero
        low = symmetric_eig(g)[..., 0]
        node = tuple(int(i) for i in np.unravel_index(np.argmin(low), low.shape))
        raise SingularMetricError(
            f"metric not positive definite at node {node} "
            f"(min eigenvalue {low[node]:.3e})", node=node)
    # inv(L) directly: L^T inv(g) agrees with it only to about
    # cond(g) * 1e-16, which is 1e-6 on a metric near singularity
    chol, chol_inv = factors
    g_inv = chol_inv.mT @ chol_inv
    err = np.max(node_norm(g @ g_inv - np.eye(m), 2))
    rel = float(np.max(node_norm(g, 2)) * np.max(node_norm(g_inv, 2)))
    if err > 1e-12 * max(1.0, rel):
        raise SingularMetricError(
            f"metric inversion failed the identity check: {err:.3e}")
    return MetricField(chart=chart, g=g, g_inv=g_inv, chol=chol,
                       chol_inv=chol_inv)


@dataclass(frozen=True)
class CurvaturePack:
    """Christoffels plus the Riemann family of one metric."""

    chart: Chart
    Gamma: np.ndarray      # (*grid, m, m, m)  Gamma^k_ij
    R_low: np.ndarray      # (*grid, m, m, m, m)  R_ijkl
    Ric: np.ndarray        # (*grid, m, m)
    s: np.ndarray          # (*grid,)


def christoffel(metric: MetricField) -> np.ndarray:
    """Christoffel symbols ``Gamma^k_ij`` of the Levi-Civita connection."""
    chart = metric.chart
    m = chart.m
    dg = grad_all(metric.g, chart)                    # [..., i, j, l] = d_l g_ij
    low = 0.5 * (np.einsum("...jli->...lij", dg)      # d_i g_jl
                 + np.einsum("...ilj->...lij", dg)    # d_j g_il
                 - np.einsum("...ijl->...lij", dg))   # d_l g_ij
    flat = low.reshape(chart.shape + (m, m * m))
    return (metric.g_inv @ flat).reshape(low.shape)


def riemann_tensor(metric: MetricField, Gamma: np.ndarray | None = None) -> CurvaturePack:
    """Full curvature data of the metric (see module docstring for signs)."""
    chart = metric.chart
    m = chart.m
    if Gamma is None:
        Gamma = christoffel(metric)
    dG = grad_all(Gamma, chart)                       # [..., l, j, k, a] = d_a G^l_jk
    R = np.einsum("...ljki->...lijk", dG) - np.einsum("...likj->...lijk", dG)
    del dG
    # [..., l, i, j, k] = Gamma^l_ip Gamma^p_jk: one (m^2 x m)(m x m^2)
    # product per node
    GG = (Gamma.reshape(chart.shape + (m * m, m))
          @ Gamma.reshape(chart.shape + (m, m * m))).reshape(R.shape)
    R += GG
    R -= np.swapaxes(GG, -3, -2)                      # Gamma^l_jp Gamma^p_ik
    del GG
    # [..., (i, j, k), l] = g_lp R^p_ijk
    R_low = (R.reshape(chart.shape + (m, m ** 3)).mT
             @ metric.g.mT).reshape(R.shape)
    del R
    # [..., i, l] = R_low[..., i, (j, k), l] g^(jk): a matrix-vector product
    Ric = (np.swapaxes(R_low.reshape(chart.shape + (m, m * m, m)), -1, -2)
           @ metric.g_inv.reshape(chart.shape + (1, m * m, 1)))[..., 0]
    s = np.einsum("...il,...il->...", metric.g_inv, Ric)
    return CurvaturePack(chart=chart, Gamma=Gamma, R_low=R_low, Ric=Ric, s=s)


def raise_index(metric: MetricField, b_low: np.ndarray) -> np.ndarray:
    """Bilinear form -> operator: ``b^i_j = g^{ik} b_kj``."""
    return metric.g_inv @ b_low


def to_orthonormal(metric: MetricField, b_low: np.ndarray) -> np.ndarray:
    """Express a (0,2)-form in per-node g-orthonormal frames.

    Returns ``inv(L) b inv(L)^T`` where ``g = L L^T``; symmetric input gives
    a symmetric output whose eigenvalues are those of the g-raised operator.
    """
    return metric.chol_inv @ b_low @ metric.chol_inv.mT


def antisymmetry_defect(metric: MetricField, Om_op: np.ndarray) -> float:
    """Max deviation of an operator field from so_g (g Om skew)."""
    gOm = metric.g @ Om_op
    scale = 1.0 + float(np.max(node_norm(gOm, 2)))
    return float(np.max(node_norm(gOm + np.swapaxes(gOm, -1, -2), 2))) / scale


def curvature_operator(pack: CurvaturePack, metric: MetricField,
                       Om_op: np.ndarray, check: bool = True) -> np.ndarray:
    """Curvature operator on 2-forms, applied to a g-antisymmetric operator.

    Input and output are operator fields ``(*grid, m, m)``.  The overall sign
    is fixed by the calibration constraint that the unit round sphere return
    ``2 * Om`` (equivalently, Gauss-compatible data satisfy
    ``R(Om) = 2 h Om h`` with ``h`` the g-raised second fundamental form).
    """
    if check and antisymmetry_defect(metric, Om_op) > 1e-8:
        raise DomainError("operator argument is not g-antisymmetric")
    Om_up = Om_op @ metric.g_inv
    T = np.einsum("...ip,...jq,...pqkl,...kl->...ij",
                  metric.g_inv, metric.g_inv, pack.R_low, Om_up, optimize=True)
    return -(T @ metric.g)
