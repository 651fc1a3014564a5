import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogauss.curvature import (christoffel, curvature_operator, metric_field,
                                node_norm, raise_index, riemann_tensor)
from isogauss.errors import DomainError, SingularMetricError
from isogauss.grid import build_chart, interior_max
from isogauss.reconstruct import observed_order
from isogauss.surfaces import RoundSphere, generate


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
