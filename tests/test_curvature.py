import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogauss import curvature
from isogauss.curvature import (cholesky_factors, christoffel,
                                curvature_operator, metric_field, node_inner,
                                node_max, node_norm, node_product,
                                raise_index, riemann_tensor,
                                spd_solve, symmetric_eig, to_orthonormal)
from isogauss.errors import SingularMetricError
from isogauss.grid import build_chart, grad_all, interior_max
from isogauss.reconstruct import observed_order
from isogauss.surfaces import Ellipsoid, RoundSphere, generate

import reference_loops
from layout import cf, gf, gf_metric
from reference_loops import node_norm as trailing_norm
from reference_loops import riemann_low


def per_node_rel(new, old, k):
    """Largest per-node ``|new - old| / |old|`` over the last ``k`` axes; a
    node where the two agree exactly counts 0."""
    diff = trailing_norm(new - old, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(diff == 0, 0.0, diff / trailing_norm(old, k))))


def flat_metric(chart):
    g = np.broadcast_to(np.eye(chart.m), chart.shape + (chart.m, chart.m)).copy()
    return metric_field(chart, g)


def polar_metric(n=33):
    chart = build_chart(2, (n, n), (1.0 / (n - 1), 1.0 / (n - 1)), (1.0, 0.2))
    r = chart.mesh()[..., 0]
    g = np.zeros(chart.shape + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = r ** 2
    return chart, metric_field(chart, g), r


def analytic_metric_m4(n=7):
    """The unit 4-sphere's metric, stereographic through a dense linear
    chart ``y = A x``, plus a small rank-one term: every entry nonzero, and
    the sampled scalar curvature stays between 2.7 and 13.4, away from a
    zero where a relative error means nothing.  The catalog has no m = 4
    surface."""
    chart = build_chart(4, (n,) * 4, (0.1,) * 4, (0.2, -0.1, 0.3, 0.0))
    x = chart.mesh()
    A = np.eye(4) + 0.25 * np.arange(1.0, 17.0).reshape(4, 4) / 16.0
    y = x @ A.T
    conformal = 4.0 / (1.0 + np.sum(y * y, axis=-1)) ** 2
    a = np.sin(x + np.roll(0.5 * x, 1, axis=-1) + np.arange(4.0))
    g = (conformal[..., None, None] * (A.T @ A)
         + 0.05 * a[..., :, None] * a[..., None, :])
    return metric_field(chart, g)


def sphere_metric(n=49):
    chart = build_chart(2, (n, n), (0.9 / (n - 1), 1.2 / (n - 1)), (0.65, 0.3))
    th = chart.mesh()[..., 0]
    g = np.zeros(chart.shape + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sin(th) ** 2
    return chart, metric_field(chart, g), th


class TestMetricField:
    def test_not_positive_definite(self):
        chart = build_chart(2, (7, 7), (0.1, 0.1))
        g = np.broadcast_to(np.diag([1.0, -1.0]), chart.shape + (2, 2)).copy()
        with pytest.raises(SingularMetricError):
            metric_field(chart, g)

    @pytest.mark.parametrize("bad", [[[1.0, 0.2], [0.2, -0.5]],
                                     [[1.0, 1.0], [1.0, 1.0]],
                                     [[1.0, 0.0], [0.0, 0.0]]],
                             ids=["indefinite", "rank-one", "diagonal-zero"])
    def test_failing_node_is_named(self, bad):
        # one interior node indefinite or with an eigenvalue exactly 0
        chart = build_chart(2, (7, 9), (0.1, 0.1))
        g = np.broadcast_to(np.eye(2), chart.shape + (2, 2)).copy()
        g[3, 5] = bad
        with pytest.raises(SingularMetricError, match=r"at node \(3, 5\)") as err:
            metric_field(chart, g)
        assert err.value.node == (3, 5)

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_near_singular_metric_passes_cholesky(self, near_singular_metric,
                                                  eps):
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        g = near_singular_metric(chart, eps)
        L = gf(metric_field(chart, g).chol, 2)
        assert per_node_rel(L @ L.mT, g, 2) <= 1e-14

    def test_asymmetric_rejected(self):
        chart = build_chart(2, (7, 7), (0.1, 0.1))
        g = np.broadcast_to(np.array([[1.0, 0.2], [0.0, 1.0]]),
                            chart.shape + (2, 2)).copy()
        with pytest.raises(SingularMetricError):
            metric_field(chart, g)

    def test_inverse_identity(self):
        chart, metric, _ = polar_metric(17)
        eye = np.einsum("ik...,kj...->...ij", metric.g, metric.g_inv)
        assert np.max(np.abs(eye - np.eye(2))) < 1e-12

    def test_near_singular_metric_accepted(self, near_singular_metric):
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = metric_field(chart, near_singular_metric(chart, 1e-10))
        cond = np.linalg.cond(gf(metric.g, 2))
        assert 0.5e10 < np.min(cond) and np.max(cond) < 2e10
        assert np.all(np.isfinite(metric.g_inv))
        assert np.all(np.isfinite(metric.chol_inv))

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_near_singular_frames_match_two_solves(self, near_singular_metric,
                                                   eps):
        # a form unrelated to g: for one near g itself the product cancels,
        # and the explicit inverse agrees only to about cond(g) * 1e-16
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = metric_field(chart, near_singular_metric(chart, eps))
        x = chart.mesh()
        b = np.zeros(chart.shape + (2, 2))
        b[..., 0, 0] = 1.0 + x[..., 0]
        b[..., 1, 1] = 2.0 - x[..., 1]
        b[..., 0, 1] = b[..., 1, 0] = 0.3 * x[..., 0] * x[..., 1]
        assert per_node_rel(gf(to_orthonormal(metric, cf(b, 2)), 2),
                            reference_loops.to_orthonormal(metric, b),
                            2) <= 1e-10

    def test_near_singular_orthonormal_image_of_g(self, near_singular_metric):
        # pins the open FOUND in CHANGES.md: the explicit inv(L) makes
        # to_orthonormal(g) cancel and lose about cond(g) * 1e-16 (3.0e-7 at
        # cond 1e10; two solves lose 3.2e-10); a fix should tighten this bound
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = metric_field(chart, near_singular_metric(chart, 1e-10))
        L = gf(metric.chol, 2).astype(np.longdouble)
        L_inv = np.zeros_like(L)
        L_inv[..., 0, 0] = 1.0 / L[..., 0, 0]
        L_inv[..., 1, 1] = 1.0 / L[..., 1, 1]
        L_inv[..., 1, 0] = -L[..., 1, 0] / (L[..., 0, 0] * L[..., 1, 1])
        want = L_inv @ gf(metric.g, 2).astype(np.longdouble) @ L_inv.mT
        assert per_node_rel(gf(to_orthonormal(metric, metric.g), 2),
                            want.astype(float), 2) <= 1e-6


def one_bad_node(m, bad):
    """Identity matrices on a 7 x 9 chart, with one matrix at node (3, 5)
    that fails the last pivot or, for ``nan-first``, the first one."""
    a = np.broadcast_to(np.eye(m), (7, 9, m, m)).copy()
    b = a[3, 5]
    if bad == "indefinite":
        b[-1, 0] = b[0, -1] = 0.2
        b[-1, -1] = -0.5
    elif bad == "rank-one":
        b[:] = 1.0
    elif bad == "zero-diagonal":
        b[-1, -1] = 0.0
    elif bad == "nan":
        b[-1, 0] = np.nan
    elif bad == "nan-first":
        b[0, 0] = np.nan
    return a


def random_spd(m, rng, grid=(40, 30)):
    X = rng.standard_normal(grid + (m, m))
    return X @ X.mT + m * np.eye(m)


class TestCholeskyFactors:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack_on_random_batches(self, m):
        a = random_spd(m, np.random.default_rng(m))
        L, L_inv = (gf(x, 2) for x in cholesky_factors(cf(a, 2)))
        ref_L, ref_L_inv = reference_loops.cholesky_factors(a)
        assert per_node_rel(L, ref_L, 2) <= 1e-14
        assert per_node_rel(L_inv, ref_L_inv, 2) <= 1e-14
        assert np.all(np.triu(L, 1) == 0) and np.all(np.triu(L_inv, 1) == 0)

    def test_layout_changes_no_bit(self):
        # the recurrence is elementwise: a grid-first view gives the factors
        # of the components-first copy bit for bit
        a = random_spd(3, np.random.default_rng(8))
        for x, y in zip(cholesky_factors(cf(a, 2)),
                        cholesky_factors(np.moveaxis(a, (-2, -1), (0, 1)))):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_near_singular_metric_agrees_to_cond(self, near_singular_metric,
                                                 eps):
        # metric_field runs the identity check on the kernel's factors; the
        # two factorizations round differently, and each is accurate only
        # to about cond(g) * 1e-16
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = gf_metric(metric_field(chart, near_singular_metric(chart, eps)))
        ref_L, ref_L_inv = reference_loops.cholesky_factors(metric.g)
        assert per_node_rel(metric.chol, ref_L, 2) <= 1e-15 / eps
        assert per_node_rel(metric.chol_inv, ref_L_inv, 2) <= 1e-15 / eps

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", ["indefinite", "rank-one", "zero-diagonal",
                                     "nan", "nan-first"])
    def test_one_failing_node_fails_the_batch(self, m, bad):
        a = one_bad_node(m, bad)
        assert cholesky_factors(cf(a, 2)) is None
        assert reference_loops.cholesky_factors(a) is None
        a[3, 5] = np.eye(m)
        assert cholesky_factors(cf(a, 2)) is not None


def with_nan_node(a):
    """``a`` with every entry of node (3, 5) NaN."""
    a = a.copy()
    a[3, 5] = np.nan
    return a


def assert_per_node_close(got, ref, scale, ulps):
    """``|got - ref| <= ulps * eps * scale`` at every node but (3, 5), where
    both are NaN throughout."""
    keep = np.ones(got.shape[:2], bool)
    keep[3, 5] = False
    err = np.abs(got - ref)[keep]
    assert np.all(err <= (ulps * np.finfo(float).eps
                          * np.broadcast_to(scale, got.shape)[keep]))
    assert np.all(np.isnan(got[3, 5])) and np.all(np.isnan(ref[3, 5]))


class TestNodeKernels:
    """The elementwise kernels against numpy's batched products and LAPACK
    on random ``40 x 30`` batches at ``m = 1..6``, each with one NaN node
    that stays NaN without touching the other nodes; the bounds are a few
    ulp times the node's scale."""

    MS = [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("m", MS)
    def test_product_and_transposed_product(self, m):
        rng = np.random.default_rng(20 + m)
        a = with_nan_node(rng.standard_normal((40, 30, m + 1, m)))
        b = rng.standard_normal((40, 30, m, 2))
        scale = (trailing_norm(a, 2) * trailing_norm(b, 2))[..., None, None]
        assert_per_node_close(gf(node_product(cf(a, 2), cf(b, 2)), 2),
                              a @ b, scale, 4 * m)
        gram = node_product(cf(a, 2).swapaxes(0, 1), cf(a, 2))
        assert np.array_equal(gram, gram.swapaxes(0, 1), equal_nan=True)
        assert_per_node_close(gf(gram, 2), a.mT @ a,
                              trailing_norm(a, 2)[..., None, None] ** 2,
                              4 * (m + 1))

    def test_product_broadcasts_stacks_and_constants(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3, 7, 5))
        stack = rng.standard_normal((3, 3, 2, 7, 5))
        J = rng.standard_normal((3, 3))
        got = node_product(g, stack)
        for a in range(2):
            assert np.array_equal(got[:, :, a], node_product(g, stack[:, :, a]))
        ref = np.einsum("ik...,kj->ij...", g, J)
        assert np.max(np.abs(node_product(g, J) - ref)) <= 1e-14

    @pytest.mark.parametrize("m", MS)
    def test_cholesky_inverse_and_spd_solve(self, m):
        rng = np.random.default_rng(30 + m)
        a = random_spd(m, rng)
        L_inv = gf(cholesky_factors(cf(a, 2))[1], 2)
        ref_inv = np.linalg.inv(np.linalg.cholesky(a))
        assert per_node_rel(L_inv, ref_inv, 2) <= 1e-14
        b = with_nan_node(rng.standard_normal((40, 30, m, 2)))
        got = gf(spd_solve(cf(a, 2), cf(b, 2)), 2)
        ref = np.linalg.solve(a, b)
        # both solves are backward stable: they agree to cond(a) ulp of
        # the solution's size
        scale = (np.linalg.cond(a)[..., None, None]
                 * np.max(np.abs(ref), axis=(-2, -1), keepdims=True))
        assert_per_node_close(got, ref, scale, 8 * m)

    @pytest.mark.parametrize("m", MS)
    def test_to_orthonormal(self, m):
        rng = np.random.default_rng(40 + m)
        a = random_spd(m, rng)
        L, L_inv = (cf(x, 2) for x in reference_loops.cholesky_factors(a))
        metric = curvature.MetricField(chart=None, g=cf(a, 2),
                                       g_inv=cf(np.linalg.inv(a), 2),
                                       chol=L, chol_inv=L_inv)
        b = rng.standard_normal((40, 30, m, m))
        b = with_nan_node(b + b.mT)
        got = gf(to_orthonormal(metric, cf(b, 2)), 2)
        ref = reference_loops.to_orthonormal(metric, b)
        scale = (np.linalg.cond(a)[..., None, None]
                 * np.max(np.abs(ref), axis=(-2, -1), keepdims=True))
        assert_per_node_close(got, ref, scale, 8 * m)

    @pytest.mark.parametrize("m", MS)
    def test_inner_product_over_leading_axes(self, m):
        rng = np.random.default_rng(50 + m)
        a = with_nan_node(rng.standard_normal((40, 30, m, m)))
        b = rng.standard_normal((40, 30, m, m))
        got = node_inner(cf(a, 2), cf(b, 2), 2)
        ref = np.einsum("...ij,...ij->...", a, b)
        scale = trailing_norm(a, 2) * trailing_norm(b, 2)
        assert_per_node_close(got[..., None], ref[..., None],
                              scale[..., None], m * m)


def special_nodes(m, rng):
    """A batch of nodes that stress an eigensolver: diagonal, zero,
    repeated eigenvalues, rank one, and eigenvalues 1e10 and 1e-10 apart."""
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = rng.standard_normal(m)
    spread = np.geomspace(1e10, 1e-10, m)
    nodes = [np.diag(np.arange(1.0, m + 1.0)[::-1]), np.zeros((m, m)),
             3.0 * np.eye(m), Q @ np.diag(np.r_[2.0, np.ones(m - 1)]) @ Q.T,
             np.outer(v, v), Q @ np.diag(spread) @ Q.T,
             Q @ np.diag(spread * np.r_[1.0, -np.ones(m - 1)]) @ Q.T,
             1e10 * np.outer(v, v) + np.eye(m), 1e-10 * (Q + Q.T)]
    return np.array(nodes)


def clustered_nodes(m, rng):
    """300 nodes with clusters 1e-8 apart, a fourfold eigenvalue (all
    ``m`` eigenvalues equal when ``m <= 4``), and Grams of rank ``m - 1``
    with ``lambda_0 / lambda_max`` about 1e-10, like theorem3's."""
    k = min(4, m)
    Q = np.linalg.qr(rng.standard_normal((300, m, m)))[0]
    lam = np.empty((300, m))
    lam[:100] = 1.0 + 1e-8 * rng.standard_normal((100, m))
    lam[100:200] = np.r_[np.ones(k), rng.uniform(2.0, 3.0, m - k)]
    lam[200:] = rng.uniform(0.1, 1.0, (100, m))
    lam[200:, 0] = 1e-10 * lam[200:].max(axis=-1)
    a = Q @ (lam[..., None] * Q.mT)
    return 0.5 * (a + a.mT)


def assert_bottom_eigenpair(a):
    """``symmetric_eig(a, vectors=True)`` against LAPACK ``eigh``: the
    eigenvalues are the values-only call's bit for bit and LAPACK's to
    ``1e-14`` of the node's scale, and ``v`` is a unit bottom eigenvector,
    LAPACK's up to sign wherever the bottom eigenvalue is simple."""
    m = a.shape[-1]
    w, v = symmetric_eig(a, vectors=True)
    assert v.shape == a.shape[:-1]
    assert np.array_equal(symmetric_eig(a), w)
    ref_w, ref_v = reference_loops.symmetric_eig(a, vectors=True)
    scale = np.max(np.abs(ref_w), axis=-1)
    assert np.all(np.abs(w - ref_w) <= 1e-14 * scale[..., None])
    assert np.max(np.abs(trailing_norm(v, 1) - 1.0)) <= 1e-14
    resid = trailing_norm(a @ v[..., None] - w[..., :1, None] * v[..., None], 2)
    assert np.all(resid <= 1e-14 * scale)
    if m > 1:
        simple = ref_w[..., 1] - ref_w[..., 0] > 1e-8 * scale
        cos = np.abs(np.sum(v * ref_v, axis=-1))
        assert np.all(cos[simple] >= 1.0 - 1e-10)


class TestSymmetricEig:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack_on_random_batches(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((40, 30, m, m))
        a = X + X.mT
        before = a.copy()
        assert_bottom_eigenpair(a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack_on_special_nodes(self, m):
        assert_bottom_eigenpair(special_nodes(m, np.random.default_rng(m)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack_on_clustered_and_rank_deficient(self, m):
        assert_bottom_eigenpair(
            clustered_nodes(m, np.random.default_rng(10 + m)))

    def test_reads_the_lower_triangle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3, 3))
        a = X + X.mT
        w, v = symmetric_eig(a, vectors=True)
        w_low, v_low = symmetric_eig(np.tril(a), vectors=True)
        assert np.array_equal(w, w_low) and np.array_equal(v, v_low)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_gives_nan_without_raising(self, m, bad):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, m, m))
        a = X + X.mT
        a[2, m - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = symmetric_eig(a, vectors=True)
            assert np.array_equal(symmetric_eig(a), w, equal_nan=True)
        assert np.all(np.isnan(w[2])) and np.all(np.isnan(v[2]))
        keep = np.arange(6) != 2
        assert_bottom_eigenpair(a[keep])
        assert np.array_equal(w[keep], symmetric_eig(a[keep]))


class TestJacobiReplay:
    """The bottom eigenvector comes from replaying the recorded rotations,
    last first and each transposed; a replay in sweep order, or of the
    untransposed rotations, leaves the bound of ``assert_bottom_eigenpair``
    by far."""

    def test_batch_of_many_sweeps(self, monkeypatch):
        # the m = 6 batch of test_matches_lapack_on_clustered_and_rank_deficient
        a = clustered_nodes(6, np.random.default_rng(16))
        assert_bottom_eigenpair(a)
        # five sweeps do not meet the tolerance: the replay runs through
        # at least six sweeps of rotations
        w = symmetric_eig(a)
        monkeypatch.setattr(curvature, "_JACOBI_MAX_SWEEPS", 5)
        assert not np.array_equal(symmetric_eig(a), w)

    def test_one_rotation(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 2, 2))
        a = X + X.mT
        assert_bottom_eigenpair(a)
        # every node is turned (no v is e_0 or e_1), so each one sees the
        # direction of its rotation
        w, v = symmetric_eig(a, vectors=True)
        assert np.all(np.abs(v[..., 0] * v[..., 1]) > 0)

    def test_no_rotation(self):
        a = np.random.default_rng(4).standard_normal((50, 1, 1))
        w, v = symmetric_eig(a, vectors=True)
        assert np.array_equal(w, a[..., 0])
        assert np.array_equal(v, np.ones((50, 1)))
        assert_bottom_eigenpair(a)

    def test_ties_take_the_first_index(self):
        # a diagonal node is not rotated: v is e_j for the first smallest j
        a = np.array([np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 1.0, 3.0]),
                      np.diag([3.0, 2.0, 1.0])])
        w, v = symmetric_eig(a, vectors=True)
        assert np.array_equal(v, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                           [0.0, 0.0, 1.0]]))


class TestNodeReductions:
    """``node_norm`` and ``node_max`` over leading axes against the
    ``np.sum`` / ``np.max`` reductions over trailing axes they replace."""

    @staticmethod
    def _leading(a, k):
        """A view of ``a`` with its last ``k`` axes first."""
        return np.moveaxis(a, range(a.ndim - k, a.ndim), range(k))

    @classmethod
    def _assert_match(cls, a, k):
        before = a.copy()
        lead = cls._leading(a, k)
        norm, ref = node_norm(lead, k), reference_loops.node_norm(a, k)
        # a reordered sum of at most 81 squares: a few ulp
        assert norm.shape == ref.shape
        assert np.all(np.abs(norm - ref) <= 1e-15 * ref)
        assert np.array_equal(node_max(lead, k), reference_loops.node_max(a, k))
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_numpy_reductions(self, k, size):
        rng = np.random.default_rng(10 * k + size)
        self._assert_match(rng.standard_normal((9, 7) + (size,) * k), k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_contiguous_views(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((11, 9) + (3,) * k)
        self._assert_match(a[2:-2, 1::2], k)
        self._assert_match(np.swapaxes(a, -1, -k - 1)[..., ::2], k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_finite_entries_propagate_as_in_numpy(self, k, bad):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 4) + (2,) * k)
        a[1, 2].flat[-1] = bad
        a[3, 0].flat[0] = bad
        a[4, 1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lead = self._leading(a, k)
            norm, mx = node_norm(lead, k), node_max(lead, k)
        ref_norm = reference_loops.node_norm(a, k)
        assert np.array_equal(np.isfinite(norm), np.isfinite(ref_norm))
        assert np.array_equal(norm[np.isnan(ref_norm)], ref_norm[np.isnan(ref_norm)],
                              equal_nan=True)
        assert np.array_equal(mx, reference_loops.node_max(a, k), equal_nan=True)


class TestChristoffel:
    def test_euclidean_vanishes(self):
        chart = build_chart(2, (17, 17), (0.07, 0.07))
        assert np.max(np.abs(christoffel(flat_metric(chart)))) < 1e-12

    def test_polar_plane(self):
        # polar metric is quadratic in r, so 2nd-order stencils are exact
        chart, metric, r = polar_metric()
        Gamma = gf(christoffel(metric), 3)
        assert np.max(np.abs(Gamma[..., 0, 1, 1] + r)) < 1e-10
        assert np.max(np.abs(Gamma[..., 1, 0, 1] - 1.0 / r)) < 1e-10

    def test_round_sphere(self):
        chart, metric, th = sphere_metric()
        Gamma = gf(christoffel(metric), 3)
        err = np.abs(Gamma[..., 0, 1, 1] + np.sin(th) * np.cos(th))
        assert interior_max(chart, err) < 10 * chart.max_spacing ** 2

    def test_symmetric_in_lower_indices(self):
        chart, metric, _ = sphere_metric(33)
        Gamma = gf(christoffel(metric), 3)
        assert np.max(np.abs(Gamma - np.swapaxes(Gamma, -1, -2))) < 1e-12

    def test_discrete_metric_compatibility_is_exact(self, ellipsoid):
        # nabla g = dg - Gamma g - g Gamma cancels identically for the
        # discrete Christoffels (a linear-algebra identity, no FD error)
        metric, chart = ellipsoid.metric, ellipsoid.chart
        Gamma = ellipsoid.pack.Gamma
        dg = np.einsum("jki...->ijk...", grad_all(metric.g, chart))
        t1 = np.einsum("pij...,pk...->ijk...", Gamma, metric.g)
        t2 = np.einsum("pik...,jp...->ijk...", Gamma, metric.g)
        assert np.max(np.abs(dg - t1 - t2)) < 1e-11


class TestRiemann:
    def test_flat_metric_zero(self):
        chart = build_chart(2, (17, 17), (0.07, 0.07))
        metric = flat_metric(chart)
        pack = riemann_tensor(metric)
        assert np.max(np.abs(riemann_low(pack, metric))) < 1e-12
        assert np.max(np.abs(pack.Ric)) < 1e-12
        assert np.max(np.abs(pack.s)) < 1e-12

    def test_unit_sphere_scalar_curvature(self):
        chart, metric, _ = sphere_metric()
        pack = riemann_tensor(metric)
        assert interior_max(chart, np.abs(pack.s - 2.0)) < 20 * chart.max_spacing ** 2

    @pytest.mark.parametrize("radius", [1.0, 1.7])
    def test_round_sphere_pullback_scalar(self, radius):
        # constant curvature: s = m(m-1)/r^2, cross-checked via oracle pullback
        surf = RoundSphere(radius)
        chart = surf.default_chart(49)
        data = generate(surf, chart)
        pack = riemann_tensor(metric_field(chart, data.g))
        expect = 2.0 / radius ** 2
        assert interior_max(chart, np.abs(pack.s - expect)) < \
            20 * chart.max_spacing ** 2 / radius ** 2

    def test_lowered_tensor_symmetries(self, sphere):
        R = gf(riemann_low(sphere.pack, sphere.metric), 4)
        tol = 30 * sphere.dx2
        assert interior_max(sphere.chart,
                            trailing_norm(R + np.swapaxes(R, -4, -3), 4)) < tol
        assert interior_max(sphere.chart,
                            trailing_norm(R + np.swapaxes(R, -2, -1), 4)) < tol
        pair = np.einsum("...ijkl->...klij", R)
        assert interior_max(sphere.chart, trailing_norm(R - pair, 4)) < tol

    def test_first_bianchi_order(self):
        errs = []
        for n in (25, 49):
            chart, metric, _ = sphere_metric(n)
            R = gf(riemann_low(riemann_tensor(metric), metric), 4)
            cyc = (R + np.einsum("...iklj->...ijkl", R)
                   + np.einsum("...iljk->...ijkl", R))
            errs.append(interior_max(chart, trailing_norm(cyc, 4)))
        assert observed_order(*errs) >= 1.5

    def test_ricci_contraction_slot_consistency(self, sphere):
        # tracing the alternative slot pair gives the same Ricci up to FD noise
        pack, metric = sphere.pack, sphere.metric
        alt = np.einsum("jk...,jikl...->il...", metric.g_inv,
                        riemann_low(pack, metric))
        assert interior_max(sphere.chart, node_norm(pack.Ric + alt, 2)) < 30 * sphere.dx2
        sym = pack.Ric - pack.Ric.swapaxes(0, 1)
        assert interior_max(sphere.chart, node_norm(sym, 2)) < 30 * sphere.dx2

    def test_gauss_equation_calibration_on_sphere(self, sphere):
        # pins the sign convention: R_ijkl = h_il h_jk - h_ik h_jl with h = g
        h = sphere.data.h
        quad = (np.einsum("...il,...jk->...ijkl", h, h)
                - np.einsum("...ik,...jl->...ijkl", h, h))
        R_low = gf(riemann_low(sphere.pack, sphere.metric), 4)
        res = interior_max(sphere.chart, trailing_norm(R_low - quad, 4))
        assert res < 20 * sphere.dx2

    def test_gamma_is_christoffel_bit_for_bit(self, ellipsoid, ellipsoid_m3,
                                              clifford):
        for metric in (ellipsoid.metric, ellipsoid_m3.metric, clifford.metric,
                       analytic_metric_m4()):
            assert (riemann_tensor(metric).Gamma.tobytes()
                    == christoffel(metric).tobytes())

    def test_lowered_tensor_exactly_antisymmetric_in_i_j(self, ellipsoid_m3):
        for metric in (ellipsoid_m3.metric, analytic_metric_m4()):
            R = riemann_low(riemann_tensor(metric), metric)
            assert np.any(R != 0)
            assert np.array_equal(R, -R.swapaxes(0, 1))

    def test_traced_peak_within_budget(self):
        # 16.4 MB measured at 257^2; the full dG stack and an unpaired R
        # alone take 8.5 MB each
        surface = Ellipsoid()
        data = generate(surface, surface.default_chart(257))
        metric = metric_field(data.chart, data.g)
        tracemalloc.start()
        try:
            riemann_tensor(metric)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 21.3

    def test_ric_identity_calibration_on_sphere(self, sphere):
        # Ric = h H - k with the calibrated trace slot
        data = sphere.data
        expect = data.h * data.H[..., None, None] - data.k
        res = interior_max(sphere.chart,
                           trailing_norm(gf(sphere.pack.Ric, 2) - expect, 2))
        assert res < 20 * sphere.dx2


class TestRaiseLower:
    def test_metric_raises_to_identity(self, sphere):
        op = gf(raise_index(sphere.metric, sphere.metric.g), 2)
        eye = np.eye(sphere.chart.m)
        assert np.max(trailing_norm(op - eye, 2)) < 1e-12

    def test_diagonal_case(self):
        chart = build_chart(2, (7, 7), (0.1, 0.1))
        g = np.broadcast_to(np.diag([1.0, 4.0]), chart.shape + (2, 2)).copy()
        metric = metric_field(chart, g)
        op = gf(raise_index(metric, cf(g, 2)), 2)
        assert np.max(np.abs(op - np.eye(2))) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_raise_then_lower_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        chart = build_chart(2, (5, 5), (0.1, 0.1))
        a = rng.standard_normal(chart.shape + (2, 2))
        g = np.einsum("...ik,...jk->...ij", a, a) + 0.5 * np.eye(2)
        metric = metric_field(chart, g)
        b = rng.standard_normal(chart.shape + (2, 2))
        b = 0.5 * (b + np.swapaxes(b, -1, -2))
        back = g @ gf(raise_index(metric, cf(b, 2)), 2)
        assert np.max(np.abs(back - b)) < 1e-12 * (1 + np.max(np.abs(b)))


class TestCurvatureOperator:
    @staticmethod
    def random_g_antisymmetric(metric, seed=0):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((metric.chart.m, metric.chart.m))
        W = W - W.T
        return np.einsum("ik...,kj->...ij", metric.g_inv, W)

    def test_flat_gives_zero(self):
        chart = build_chart(2, (17, 17), (0.07, 0.07))
        metric = flat_metric(chart)
        pack = riemann_tensor(metric)
        Om = self.random_g_antisymmetric(metric)
        assert np.max(np.abs(curvature_operator(pack, metric, Om))) < 1e-12

    def test_unit_sphere_doubles(self, sphere):
        Om = self.random_g_antisymmetric(sphere.metric, seed=2)
        RO = curvature_operator(sphere.pack, sphere.metric, Om)
        res = interior_max(sphere.chart, trailing_norm(RO - 2 * Om, 2))
        assert res < 30 * sphere.dx2

    def test_matches_2h0mh_on_m3_ellipsoid(self, ellipsoid_m3):
        p = ellipsoid_m3
        Om = self.random_g_antisymmetric(p.metric, seed=5)
        RO = curvature_operator(p.pack, p.metric, Om)
        hop = gf(raise_index(p.metric, cf(p.data.h, 2)), 2)
        expect = 2 * np.einsum("...ik,...kl,...lj->...ij", hop, Om, hop)
        scale = 1.0 + np.max(trailing_norm(expect, 2))
        res = interior_max(p.chart, trailing_norm(RO - expect, 2)) / scale
        assert res < 30 * p.dx2

    def test_stack_matches_one_at_a_time_and_index_notation(self, ellipsoid_m3):
        # theorem3's stack g^{-1} W_b against single calls and against
        # -(g^{ip} g^{jq} R_pqkl (Om g^{-1})^{kl}) g written as one einsum
        p = ellipsoid_m3
        g_inv, R_low = gf(p.metric.g_inv, 2), gf(riemann_low(p.pack, p.metric), 4)
        Om = np.stack([self.random_g_antisymmetric(p.metric, seed=s)
                       for s in range(3)], axis=-3)
        RO = curvature_operator(p.pack, p.metric, Om)
        assert RO.shape == Om.shape
        for b in range(3):
            one = curvature_operator(p.pack, p.metric, Om[..., b, :, :])
            T = np.einsum("...ip,...jq,...pqkl,...kl->...ij", g_inv, g_inv,
                          R_low, Om[..., b, :, :] @ g_inv)
            for other in (one, -(T @ gf(p.metric.g, 2))):
                scale = np.max(trailing_norm(other, 2))
                assert np.max(trailing_norm(RO[..., b, :, :] - other, 2)) < 1e-13 * scale

    def test_output_stays_g_antisymmetric(self, ellipsoid_m3):
        # the curvature operator maps 2-forms to 2-forms
        p = ellipsoid_m3
        Om = self.random_g_antisymmetric(p.metric, seed=9)
        RO = curvature_operator(p.pack, p.metric, Om)
        gRO = gf(p.metric.g, 2) @ RO
        defect = trailing_norm(gRO + np.swapaxes(gRO, -1, -2), 2)
        scale = 1.0 + float(np.max(trailing_norm(gRO, 2)))
        assert interior_max(p.chart, defect) / scale < 30 * p.dx2


class TestBatchedKernels:
    """The batched matrix products agree node by node with the index-notation
    contractions and the two triangular solves of ``reference_loops``."""

    @pytest.mark.parametrize("rows, cols", [(3, 2), (2, 2), (3, 3), (4, 2)])
    def test_contiguous_operand_is_the_transposed_view_bit_for_bit(self, rows,
                                                                   cols):
        # the pipeline's products read contiguous copies of transposed
        # operands (X^T X, X^T Y and Y X^T on its stack shapes); the results
        # stay byte-identical only because the copy changes no bit of them,
        # and X^T X stays exactly symmetric
        rng = np.random.default_rng(10 * rows + cols)
        grid = (65, 63)
        x, y = (rng.standard_normal(grid + (rows, cols))
                * np.exp(4.0 * rng.standard_normal(grid + (1, 1)))
                for _ in range(2))
        xT = np.ascontiguousarray(x.mT)
        gram = xT @ x
        assert gram.tobytes() == (x.mT @ x).tobytes()
        assert np.array_equal(gram, gram.mT)
        assert (xT @ y).tobytes() == (x.mT @ y).tobytes()
        if rows == cols:
            assert (y @ xT).tobytes() == (y @ x.mT).tobytes()

    PROBLEMS = ["ellipsoid", "ellipsoid_m3", "clifford"]

    @pytest.mark.parametrize("name", PROBLEMS + ["analytic_m4"])
    def test_curvature_matches_index_notation(self, name, request):
        if name == "analytic_m4":
            metric = analytic_metric_m4()
            pack = riemann_tensor(metric)
        else:
            problem = request.getfixturevalue(name)
            metric, pack = problem.metric, problem.pack
        Gamma = reference_loops.christoffel(metric)
        R_low, Ric, s = reference_loops.riemann_tensor(metric, Gamma)
        assert per_node_rel(gf(christoffel(metric), 3), Gamma, 3) <= 1e-12
        assert per_node_rel(gf(riemann_low(pack, metric), 4), R_low, 4) <= 1e-12
        assert per_node_rel(gf(pack.Ric, 2), Ric, 2) <= 1e-12
        assert per_node_rel(pack.s[..., None], s[..., None], 1) <= 1e-12

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_to_orthonormal_matches_two_solves(self, name, request):
        problem = request.getfixturevalue(name)
        metric = problem.metric
        for form in (problem.data.k, gf(metric.g, 2)):
            assert per_node_rel(gf(to_orthonormal(metric, cf(form, 2)), 2),
                                reference_loops.to_orthonormal(metric, form),
                                2) <= 1e-12

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_inverse_from_the_cholesky_factor(self, name, request):
        metric = gf_metric(request.getfixturevalue(name).metric)
        eye = np.eye(metric.chart.m)
        assert np.max(np.abs(metric.chol_inv @ metric.chol - eye)) <= 1e-12
        assert per_node_rel(metric.g_inv, np.linalg.inv(metric.g), 2) <= 1e-12
