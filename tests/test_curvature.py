import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogauss.curvature import (cholesky_factors, christoffel,
                                curvature_operator, metric_field, node_max,
                                node_norm, raise_index, riemann_tensor,
                                symmetric_eig, to_orthonormal)
from isogauss.errors import DomainError, SingularMetricError
from isogauss.grid import build_chart, interior_max
from isogauss.reconstruct import observed_order
from isogauss.surfaces import RoundSphere, generate

import reference_loops


def per_node_rel(new, old, k):
    """Largest per-node ``|new - old| / |old|`` over the last ``k`` axes; a
    node where the two agree exactly counts 0."""
    diff = node_norm(new - old, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(diff == 0, 0.0, diff / node_norm(old, k))))


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
        metric = metric_field(chart, g)
        assert per_node_rel(metric.chol @ metric.chol.mT, g, 2) <= 1e-14

    def test_asymmetric_rejected(self):
        chart = build_chart(2, (7, 7), (0.1, 0.1))
        g = np.broadcast_to(np.array([[1.0, 0.2], [0.0, 1.0]]),
                            chart.shape + (2, 2)).copy()
        with pytest.raises(SingularMetricError):
            metric_field(chart, g)

    def test_inverse_identity(self):
        chart, metric, _ = polar_metric(17)
        eye = np.einsum("...ik,...kj->...ij", metric.g, metric.g_inv)
        assert np.max(np.abs(eye - np.eye(2))) < 1e-12

    def test_near_singular_metric_accepted(self, near_singular_metric):
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = metric_field(chart, near_singular_metric(chart, 1e-10))
        cond = np.linalg.cond(metric.g)
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
        assert per_node_rel(to_orthonormal(metric, b),
                            reference_loops.to_orthonormal(metric, b),
                            2) <= 1e-10

    def test_near_singular_orthonormal_image_of_g(self, near_singular_metric):
        # pins the open FOUND in CHANGES.md: the explicit inv(L) makes
        # to_orthonormal(g) cancel and lose about cond(g) * 1e-16 (3.0e-7 at
        # cond 1e10; two solves lose 3.2e-10); a fix should tighten this bound
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = metric_field(chart, near_singular_metric(chart, 1e-10))
        L = metric.chol.astype(np.longdouble)
        L_inv = np.zeros_like(L)
        L_inv[..., 0, 0] = 1.0 / L[..., 0, 0]
        L_inv[..., 1, 1] = 1.0 / L[..., 1, 1]
        L_inv[..., 1, 0] = -L[..., 1, 0] / (L[..., 0, 0] * L[..., 1, 1])
        want = L_inv @ metric.g.astype(np.longdouble) @ L_inv.mT
        assert per_node_rel(to_orthonormal(metric, metric.g),
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


class TestCholeskyFactors:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_lapack_on_random_batches(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((40, 30, m, m))
        a = X @ X.mT + m * np.eye(m)
        L, L_inv = cholesky_factors(a)
        ref_L, ref_L_inv = reference_loops.cholesky_factors(a)
        assert per_node_rel(L, ref_L, 2) <= 1e-14
        assert per_node_rel(L_inv, ref_L_inv, 2) <= 1e-14
        assert np.all(np.triu(L, 1) == 0) and np.all(np.triu(L_inv, 1) == 0)

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_near_singular_metric_agrees_to_cond(self, near_singular_metric,
                                                 eps):
        # metric_field runs the identity check on the kernel's factors; the
        # two factorizations round differently, and each is accurate only
        # to about cond(g) * 1e-16
        chart = build_chart(2, (17, 17), (0.05, 0.05), (0.3, 0.2))
        metric = metric_field(chart, near_singular_metric(chart, eps))
        ref_L, ref_L_inv = reference_loops.cholesky_factors(metric.g)
        assert per_node_rel(metric.chol, ref_L, 2) <= 1e-15 / eps
        assert per_node_rel(metric.chol_inv, ref_L_inv, 2) <= 1e-15 / eps

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", ["indefinite", "rank-one", "zero-diagonal",
                                     "nan", "nan-first"])
    def test_one_failing_node_fails_the_batch(self, m, bad):
        a = one_bad_node(m, bad)
        assert cholesky_factors(a) is None
        assert reference_loops.cholesky_factors(a) is None
        a[3, 5] = np.eye(m)
        assert cholesky_factors(a) is not None


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


class TestSymmetricEig:
    @staticmethod
    def _assert_matches_lapack(a):
        m = a.shape[-1]
        w, V = symmetric_eig(a, vectors=True)
        assert np.array_equal(symmetric_eig(a), w)
        ref = reference_loops.symmetric_eig(a)
        scale = np.max(np.abs(ref), axis=-1)
        assert np.all(np.abs(w - ref) <= 1e-14 * scale[..., None])
        assert np.max(np.abs(V.mT @ V - np.eye(m))) <= 1e-14
        resid = node_norm(a @ V - V * w[..., None, :], 2)
        assert np.all(resid <= 1e-14 * scale)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_lapack_on_random_batches(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((40, 30, m, m))
        a = X + X.mT
        before = a.copy()
        self._assert_matches_lapack(a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_lapack_on_special_nodes(self, m):
        self._assert_matches_lapack(special_nodes(m, np.random.default_rng(m)))

    def test_reads_the_lower_triangle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3, 3))
        a = X + X.mT
        w, V = symmetric_eig(a, vectors=True)
        w_low, V_low = symmetric_eig(np.tril(a), vectors=True)
        assert np.array_equal(w, w_low) and np.array_equal(V, V_low)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_gives_nan_without_raising(self, m, bad):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, m, m))
        a = X + X.mT
        a[2, m - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, V = symmetric_eig(a, vectors=True)
            assert np.array_equal(symmetric_eig(a), w, equal_nan=True)
        assert np.all(np.isnan(w[2])) and np.all(np.isnan(V[2]))
        keep = np.arange(6) != 2
        self._assert_matches_lapack(a[keep])
        assert np.array_equal(w[keep], symmetric_eig(a[keep]))


class TestNodeReductions:
    """``node_norm`` and ``node_max`` against the ``np.sum`` / ``np.max``
    reductions they replace."""

    @staticmethod
    def _assert_match(a, k):
        before = a.copy()
        norm, ref = node_norm(a, k), reference_loops.node_norm(a, k)
        # a reordered sum of at most 81 squares: a few ulp
        assert norm.shape == ref.shape
        assert np.all(np.abs(norm - ref) <= 1e-15 * ref)
        assert np.array_equal(node_max(a, k), reference_loops.node_max(a, k))
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
            norm, mx = node_norm(a, k), node_max(a, k)
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
        Gamma = christoffel(metric)
        assert np.max(np.abs(Gamma[..., 0, 1, 1] + r)) < 1e-10
        assert np.max(np.abs(Gamma[..., 1, 0, 1] - 1.0 / r)) < 1e-10

    def test_round_sphere(self):
        chart, metric, th = sphere_metric()
        Gamma = christoffel(metric)
        err = np.abs(Gamma[..., 0, 1, 1] + np.sin(th) * np.cos(th))
        assert interior_max(chart, err) < 10 * chart.max_spacing ** 2

    def test_symmetric_in_lower_indices(self):
        chart, metric, _ = sphere_metric(33)
        Gamma = christoffel(metric)
        assert np.max(np.abs(Gamma - np.swapaxes(Gamma, -1, -2))) < 1e-12

    def test_discrete_metric_compatibility_is_exact(self, ellipsoid):
        # nabla g = dg - Gamma g - g Gamma cancels identically for the
        # discrete Christoffels (a linear-algebra identity, no FD error)
        from isogauss.grid import grad_all
        metric, chart = ellipsoid.metric, ellipsoid.chart
        Gamma = ellipsoid.pack.Gamma
        dg = np.einsum("...jki->...ijk", grad_all(metric.g, chart))
        t1 = np.einsum("...pij,...pk->...ijk", Gamma, metric.g)
        t2 = np.einsum("...pik,...jp->...ijk", Gamma, metric.g)
        assert np.max(np.abs(dg - t1 - t2)) < 1e-11


class TestRiemann:
    def test_flat_metric_zero(self):
        chart = build_chart(2, (17, 17), (0.07, 0.07))
        pack = riemann_tensor(flat_metric(chart))
        assert np.max(np.abs(pack.R_low)) < 1e-12
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
        R = sphere.pack.R_low
        tol = 30 * sphere.dx2
        assert interior_max(sphere.chart,
                            node_norm(R + np.swapaxes(R, -4, -3), 4)) < tol
        assert interior_max(sphere.chart,
                            node_norm(R + np.swapaxes(R, -2, -1), 4)) < tol
        pair = np.einsum("...ijkl->...klij", R)
        assert interior_max(sphere.chart, node_norm(R - pair, 4)) < tol

    def test_first_bianchi_order(self):
        errs = []
        for n in (25, 49):
            chart, metric, _ = sphere_metric(n)
            R = riemann_tensor(metric).R_low
            cyc = (R + np.einsum("...iklj->...ijkl", R)
                   + np.einsum("...iljk->...ijkl", R))
            errs.append(interior_max(chart, node_norm(cyc, 4)))
        assert observed_order(*errs) >= 1.5

    def test_ricci_contraction_slot_consistency(self, sphere):
        # tracing the alternative slot pair gives the same Ricci up to FD noise
        pack, metric = sphere.pack, sphere.metric
        alt = np.einsum("...jk,...jikl->...il", metric.g_inv, pack.R_low)
        assert interior_max(sphere.chart, node_norm(pack.Ric + alt, 2)) < 30 * sphere.dx2
        sym = pack.Ric - np.swapaxes(pack.Ric, -1, -2)
        assert interior_max(sphere.chart, node_norm(sym, 2)) < 30 * sphere.dx2

    def test_gauss_equation_calibration_on_sphere(self, sphere):
        # pins the sign convention: R_ijkl = h_il h_jk - h_ik h_jl with h = g
        h = sphere.data.h
        quad = (np.einsum("...il,...jk->...ijkl", h, h)
                - np.einsum("...ik,...jl->...ijkl", h, h))
        res = interior_max(sphere.chart, node_norm(sphere.pack.R_low - quad, 4))
        assert res < 20 * sphere.dx2

    def test_ric_identity_calibration_on_sphere(self, sphere):
        # Ric = h H - k with the calibrated trace slot
        data = sphere.data
        expect = data.h * data.H[..., None, None] - data.k
        res = interior_max(sphere.chart, node_norm(sphere.pack.Ric - expect, 2))
        assert res < 20 * sphere.dx2


class TestRaiseLower:
    def test_metric_raises_to_identity(self, sphere):
        op = raise_index(sphere.metric, sphere.metric.g)
        eye = np.eye(sphere.chart.m)
        assert np.max(node_norm(op - eye, 2)) < 1e-12

    def test_diagonal_case(self):
        chart = build_chart(2, (7, 7), (0.1, 0.1))
        g = np.broadcast_to(np.diag([1.0, 4.0]), chart.shape + (2, 2)).copy()
        metric = metric_field(chart, g)
        op = raise_index(metric, g)
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
        back = np.einsum("...ik,...kj->...ij", g, raise_index(metric, b))
        assert np.max(np.abs(back - b)) < 1e-12 * (1 + np.max(np.abs(b)))


class TestCurvatureOperator:
    @staticmethod
    def random_g_antisymmetric(metric, seed=0):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((metric.chart.m, metric.chart.m))
        W = W - W.T
        return np.einsum("...ik,kj->...ij", metric.g_inv, W)

    def test_flat_gives_zero(self):
        chart = build_chart(2, (17, 17), (0.07, 0.07))
        metric = flat_metric(chart)
        pack = riemann_tensor(metric)
        Om = self.random_g_antisymmetric(metric)
        assert np.max(np.abs(curvature_operator(pack, metric, Om))) < 1e-12

    def test_unit_sphere_doubles(self, sphere):
        Om = self.random_g_antisymmetric(sphere.metric, seed=2)
        RO = curvature_operator(sphere.pack, sphere.metric, Om)
        res = interior_max(sphere.chart, node_norm(RO - 2 * Om, 2))
        assert res < 30 * sphere.dx2

    def test_matches_2h0mh_on_m3_ellipsoid(self, ellipsoid_m3):
        p = ellipsoid_m3
        Om = self.random_g_antisymmetric(p.metric, seed=5)
        RO = curvature_operator(p.pack, p.metric, Om)
        hop = raise_index(p.metric, p.data.h)
        expect = 2 * np.einsum("...ik,...kl,...lj->...ij", hop, Om, hop)
        scale = 1.0 + np.max(node_norm(expect, 2))
        res = interior_max(p.chart, node_norm(RO - expect, 2)) / scale
        assert res < 30 * p.dx2

    def test_rejects_non_antisymmetric(self, sphere):
        Om = np.broadcast_to(np.eye(2), sphere.chart.shape + (2, 2)).copy()
        with pytest.raises(DomainError):
            curvature_operator(sphere.pack, sphere.metric, Om)

    def test_output_stays_g_antisymmetric(self, ellipsoid_m3):
        # the curvature operator maps 2-forms to 2-forms
        p = ellipsoid_m3
        Om = self.random_g_antisymmetric(p.metric, seed=9)
        RO = curvature_operator(p.pack, p.metric, Om)
        gRO = np.einsum("...ik,...kj->...ij", p.metric.g, RO)
        defect = node_norm(gRO + np.swapaxes(gRO, -1, -2), 2)
        scale = 1.0 + float(np.max(node_norm(gRO, 2)))
        assert interior_max(p.chart, defect) / scale < 30 * p.dx2


class TestBatchedKernels:
    """The batched matrix products agree node by node with the index-notation
    contractions and the two triangular solves of ``reference_loops``."""

    PROBLEMS = ["ellipsoid", "ellipsoid_m3", "clifford"]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_curvature_matches_index_notation(self, name, request):
        problem = request.getfixturevalue(name)
        metric, pack = problem.metric, problem.pack
        Gamma = reference_loops.christoffel(metric)
        R_low, Ric, s = reference_loops.riemann_tensor(metric, Gamma)
        assert per_node_rel(christoffel(metric), Gamma, 3) <= 1e-12
        assert per_node_rel(pack.R_low, R_low, 4) <= 1e-12
        assert per_node_rel(pack.Ric, Ric, 2) <= 1e-12
        assert per_node_rel(pack.s[..., None], s[..., None], 1) <= 1e-12

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_to_orthonormal_matches_two_solves(self, name, request):
        problem = request.getfixturevalue(name)
        metric = problem.metric
        for form in (problem.data.k, metric.g):
            assert per_node_rel(to_orthonormal(metric, form),
                                reference_loops.to_orthonormal(metric, form),
                                2) <= 1e-12

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_inverse_from_the_cholesky_factor(self, name, request):
        metric = request.getfixturevalue(name).metric
        eye = np.eye(metric.chart.m)
        assert np.max(np.abs(metric.chol_inv @ metric.chol - eye)) <= 1e-12
        assert per_node_rel(metric.g_inv, np.linalg.inv(metric.g), 2) <= 1e-12
