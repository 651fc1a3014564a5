import numpy as np
import pytest

from isogauss.curvature import metric_field, node_norm, to_orthonormal
from isogauss.errors import InvalidGaussMapError
from isogauss.gaussmap import (build_gauss_field, degeneracy_report,
                               third_form_trace)
from isogauss.grid import build_chart, interior_max
from isogauss.surfaces import Cylinder, Plane, generate


def constant_gauss(chart, vec=(0.0, 0.0, 1.0)):
    nu = np.broadcast_to(np.asarray(vec), chart.shape + (3,)).copy()
    return build_gauss_field(chart, nu)


class TestBuildGaussField:
    def test_constant_map_has_zero_A_and_k(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        G = constant_gauss(chart)
        assert np.max(np.abs(G.A)) == 0.0
        assert np.max(np.abs(G.k)) == 0.0

    def test_unit_sphere_third_form_equals_metric(self, sphere):
        # nu = u/r on the unit sphere, so dnu = du and k = g
        res = interior_max(sphere.chart, node_norm(sphere.gauss.k - sphere.data.g, 2))
        assert res < 20 * sphere.dx2

    def test_ellipsoid_third_form_matches_oracle(self, ellipsoid):
        res = interior_max(ellipsoid.chart,
                           node_norm(ellipsoid.gauss.k - ellipsoid.data.k, 2))
        assert res < 30 * ellipsoid.dx2

    def test_small_norm_deviation_renormalized(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        nu = np.broadcast_to(np.array([0.0, 0.0, 1.0 + 5e-7]),
                             chart.shape + (3,)).copy()
        G = build_gauss_field(chart, nu)
        assert np.max(np.abs(np.linalg.norm(G.nu, axis=-1) - 1.0)) < 1e-15

    def test_large_norm_deviation_rejected(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        nu = np.broadcast_to(np.array([0.0, 0.0, 1.0 + 1e-5]),
                             chart.shape + (3,)).copy()
        with pytest.raises(InvalidGaussMapError):
            build_gauss_field(chart, nu)

    def test_columns_tangent_to_sphere(self, ellipsoid):
        G = ellipsoid.gauss
        ip = np.einsum("...nj,...n->...j", G.A, G.nu)
        assert interior_max(ellipsoid.chart, np.max(np.abs(ip), axis=-1)) < \
            20 * ellipsoid.dx2

    def test_k_positive_semidefinite(self, ellipsoid):
        eigs = np.linalg.eigvalsh(to_orthonormal(ellipsoid.metric, ellipsoid.gauss.k))
        assert float(np.min(eigs)) > -1e-12

    def test_trace_equals_frame_norm_of_A(self, ellipsoid):
        # Tr_g k per node = |A|^2 measured in g-orthonormal frames
        G, metric = ellipsoid.gauss, ellipsoid.metric
        tr = third_form_trace(G.k, metric)
        Ahat = np.einsum("...nk,...ki->...ni", G.A,
                         np.linalg.inv(np.swapaxes(metric.chol, -1, -2)))
        frob = np.sum(Ahat ** 2, axis=(-2, -1))
        assert np.max(np.abs(tr - frob)) < 1e-10 * (1 + np.max(np.abs(tr)))


class TestDegeneracy:
    def test_sphere_full_rank(self, sphere):
        rep = degeneracy_report(sphere.gauss, sphere.metric)
        assert rep.invertible
        assert np.all(rep.rank == 2)

    def test_cylinder_rank_deficient(self):
        surf = Cylinder(1.0)
        chart = surf.default_chart(33)
        data = generate(surf, chart)
        rep = degeneracy_report(build_gauss_field(chart, data.frame[..., 0]),
                                metric_field(chart, data.g))
        assert not rep.invertible
        assert np.all(rep.rank == 1)

    def test_plane_rank_zero(self):
        surf = Plane()
        chart = surf.default_chart(17)
        data = generate(surf, chart)
        rep = degeneracy_report(build_gauss_field(chart, data.frame[..., 0]),
                                metric_field(chart, data.g))
        assert not rep.invertible
        assert np.all(rep.rank == 0)
