"""The Gauss map of a hypersurface as the one-column normal frame."""

import numpy as np
import pytest

from isogauss import datafiles
from isogauss.admissibility import run_pipeline, third_form_trace
from isogauss.codim import build_normal_frame, third_forms
from isogauss.curvature import metric_field, node_norm, to_orthonormal
from isogauss.errors import InvalidGaussMapError
from isogauss.grid import build_chart, interior_max
from isogauss.surfaces import Cylinder, Plane, generate

import reference_loops


def constant_gauss(chart, vec=(0.0, 0.0, 1.0)):
    nu = np.broadcast_to(np.asarray(vec), chart.shape + (3,)).copy()
    return build_normal_frame(chart, nu[..., None])


def nu_dataset(chart, nu):
    g = np.broadcast_to(np.eye(chart.m), chart.shape + (chart.m, chart.m))
    return datafiles.gauss_dataset(chart, 3, g, nu=nu)


class TestBuildGaussField:
    def test_constant_map_has_zero_A_and_k(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        frame = constant_gauss(chart)
        assert np.max(np.abs(frame.A)) == 0.0
        assert np.max(np.abs(third_forms(frame).k)) == 0.0

    def test_unit_sphere_third_form_equals_metric(self, sphere):
        # nu = u/r on the unit sphere, so dnu = du and k = g
        res = interior_max(sphere.chart, node_norm(sphere.forms.k - sphere.data.g, 2))
        assert res < 20 * sphere.dx2

    def test_ellipsoid_third_form_matches_oracle(self, ellipsoid):
        res = interior_max(ellipsoid.chart,
                           node_norm(ellipsoid.forms.k - ellipsoid.data.k, 2))
        assert res < 30 * ellipsoid.dx2
        # the one-column frame differentiates the normal as it is given
        A, k = reference_loops.gauss_map_differential(
            ellipsoid.chart, ellipsoid.data.frame[..., 0])
        assert np.array_equal(ellipsoid.frame.A[..., 0], A)
        assert np.array_equal(ellipsoid.forms.k, k)

    def test_small_norm_deviation_renormalized(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        frame = constant_gauss(chart, (0.0, 0.0, 1.0 + 5e-7))
        assert np.max(np.abs(np.linalg.norm(frame.frame[..., 0], axis=-1)
                             - 1.0)) < 1e-15
        nu = frame.frame[..., 0] * (1.0 + 5e-7)
        assert datafiles.dataset_normals(nu_dataset(chart, nu)).shape == \
            chart.shape + (3, 1)

    def test_large_norm_deviation_rejected(self):
        # unit length is a property of the nu block of a dataset file
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        nu = np.broadcast_to(np.array([0.0, 0.0, 1.0 + 1e-5]),
                             chart.shape + (3,)).copy()
        with pytest.raises(InvalidGaussMapError, match="not unit length"):
            datafiles.dataset_normals(nu_dataset(chart, nu))

    def test_columns_tangent_to_sphere(self, ellipsoid):
        frame = ellipsoid.frame
        ip = np.einsum("...nj,...n->...j", frame.A[..., 0], frame.frame[..., 0])
        assert interior_max(ellipsoid.chart, np.max(np.abs(ip), axis=-1)) < \
            20 * ellipsoid.dx2

    def test_k_positive_semidefinite(self, ellipsoid):
        eigs = np.linalg.eigvalsh(to_orthonormal(ellipsoid.metric, ellipsoid.forms.k))
        assert float(np.min(eigs)) > -1e-12

    def test_trace_equals_frame_norm_of_A(self, ellipsoid):
        # Tr_g k per node = |A|^2 measured in g-orthonormal frames
        A, metric = ellipsoid.frame.A[..., 0], ellipsoid.metric
        tr = third_form_trace(ellipsoid.forms.k, metric)
        Ahat = np.einsum("...nk,...ki->...ni", A,
                         np.linalg.inv(np.swapaxes(metric.chol, -1, -2)))
        frob = np.sum(Ahat ** 2, axis=(-2, -1))
        assert np.max(np.abs(tr - frob)) < 1e-10 * (1 + np.max(np.abs(tr)))


def pipeline_report(surf, points):
    data = generate(surf, surf.default_chart(points))
    return run_pipeline(metric_field(data.chart, data.g), data.frame)


class TestDegeneracy:
    """The invertibility gate reports the extreme singular values of dnu,
    measured in g, and refuses data whose dnu is singular somewhere."""

    def test_sphere_full_rank(self, sphere):
        report = run_pipeline(sphere.metric, sphere.data.frame)
        assert report.admissible
        # dnu = du on the unit sphere: every singular value is 1
        assert report.extra["dnu_min_singular"] == pytest.approx(1.0, abs=1e-3)
        assert report.extra["dnu_max_singular"] == pytest.approx(1.0, abs=1e-3)

    def test_cylinder_rank_deficient(self):
        report = pipeline_report(Cylinder(1.0), 33)
        assert (report.verdict, report.method) == ("inapplicable", "none")
        assert report.extra["dnu_min_singular"] == 0.0
        assert report.extra["dnu_max_singular"] > 0.5

    def test_plane_rank_zero(self):
        report = pipeline_report(Plane(), 17)
        assert (report.verdict, report.method) == ("inapplicable", "none")
        assert report.extra["dnu_min_singular"] == 0.0
        assert report.extra["dnu_max_singular"] == 0.0
