import math

import numpy as np
import pytest

from isogauss.admissibility import PipelineOptions, run_pipeline
from isogauss.curvature import metric_field
from isogauss.errors import NonIntegrableError
from isogauss.grid import build_chart, grad_all
from isogauss.reconstruct import (box_error, compare_up_to_translation,
                                  curl_residual, integrate,
                                  observed_order, roundtrip, roundtrip_level,
                                  verify_immersion)
from isogauss.surfaces import (CATALOG, Catenoid, Ellipsoid, Plane, RoundSphere,
                               generate)

ELLIPSOID = Ellipsoid((1.0, 1.5, 2.0))


class TestIntegrate:
    def test_constant_columns_give_affine_exactly(self):
        chart = build_chart(2, (9, 11), (0.1, 0.2), (0.0, 0.0))
        cols = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, -1.0]])
        U = np.broadcast_to(cols, chart.shape + (3, 2)).copy()
        imm = integrate(U, chart, base_value=(1.0, 2.0, 3.0))
        x = chart.mesh() - chart.node_coords(chart.center)
        expect = np.einsum("nj,...j->...n", cols, x) + np.array([1.0, 2.0, 3.0])
        assert np.max(np.abs(imm.u - expect)) < 1e-12
        assert np.allclose(imm.u[chart.center], [1.0, 2.0, 3.0])

    def test_sphere_oracle_roundtrip(self, sphere_pair):
        errs = [box_error(integrate(p.data.du, p.chart).u, p.data.u, p.chart, level)
                for level, p in enumerate(sphere_pair)]
        assert errs[1] < 50 * sphere_pair[1].dx2
        assert observed_order(*errs) >= 1.5

    def test_synthetic_curl_raises(self, sphere):
        U = sphere.data.du.copy()
        half = sphere.chart.shape[0] // 2
        U[half:, ..., 0], U[half:, ..., 1] = (U[half:, ..., 1].copy(),
                                              U[half:, ..., 0].copy())
        with pytest.raises(NonIntegrableError):
            integrate(U, sphere.chart, curl_tol=50 * sphere.dx2)

    def test_translation_invariance(self, sphere):
        a = integrate(sphere.data.du, sphere.chart, base_value=0.0)
        b = integrate(sphere.data.du, sphere.chart, base_value=(5.0, -1.0, 2.0))
        assert compare_up_to_translation(a.u, b.u) < 1e-12

    def test_base_point_choice_shifts_by_constant(self):
        # an exact gradient field integrates path-independently, so the base
        # node only moves the integration constant
        chart = build_chart(2, (17, 17), (0.06, 0.05), (0.2, -0.1))
        x = chart.mesh()
        du = np.stack([np.full(chart.shape, 2.0), 3.0 * np.ones(chart.shape)],
                      axis=-1)[..., None, :]
        center = integrate(du, chart)
        corner = integrate(du, chart, base_index=(0, 0))
        assert compare_up_to_translation(center.u, corner.u) < 1e-12


class TestVerifyImmersion:
    def test_oracle_reconstruction_verifies(self, ellipsoid):
        imm = integrate(ellipsoid.data.du, ellipsoid.chart)
        res_g, res_n = verify_immersion(imm, ellipsoid.metric, ellipsoid.data.frame)
        tol = 50 * ellipsoid.dx2
        assert res_g < tol and res_n < tol

    def test_constant_map_fails_metric_residual(self, ellipsoid):
        from isogauss.reconstruct import Immersion
        imm = Immersion(u=np.zeros(ellipsoid.chart.shape + (3,)),
                        base_index=ellipsoid.chart.center,
                        base_value=np.zeros(3), curl_residual=0.0)
        res_g, _ = verify_immersion(imm, ellipsoid.metric, ellipsoid.data.frame)
        g_norm = np.linalg.norm(ellipsoid.metric.g, axis=(-2, -1))
        assert res_g > 0.5 * np.min(g_norm / (1 + g_norm))

    def test_catenoid_self_consistent(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(49))
        metric = metric_field(data.chart, data.g)
        imm = integrate(data.du, data.chart)
        res_g, res_n = verify_immersion(imm, metric, data.frame)
        tol = 50 * data.chart.max_spacing ** 2
        assert res_g < tol and res_n < tol

    def test_codim2_oracle_verifies_and_every_column_counts(self, clifford):
        imm = integrate(clifford.data.du, clifford.chart)
        tol = 50 * clifford.dx2
        res_g, res_n = verify_immersion(imm, clifford.metric, clifford.data.frame)
        assert res_g < tol and res_n < tol
        # a tangent direction in the second column must show up
        wrong = clifford.data.frame.copy()
        wrong[..., 1] = clifford.data.du[..., 0]
        _, res_wrong = verify_immersion(imm, clifford.metric, wrong)
        assert res_wrong > 0.1

    def test_second_form_recovered_from_reconstruction(self, ellipsoid):
        # pipeline candidate h vs h recomputed from the integrated u
        report = run_pipeline(ellipsoid.metric, ellipsoid.data.frame)
        imm = integrate(report.candidate.U, ellipsoid.chart)
        # h_ij = <d_j u_i, nu>
        ddu = grad_all(grad_all(imm.u, ellipsoid.chart), ellipsoid.chart)
        h_back = np.einsum("...nij,...n->...ij", ddu,
                           ellipsoid.data.frame[..., 0])
        h_back = 0.5 * (h_back + np.swapaxes(h_back, -1, -2))
        reg = ellipsoid.chart.interior_slices(6)
        h = report.candidate.h_alpha[..., 0, :, :]
        err = np.max(np.linalg.norm((h_back - h)[reg], axis=(-2, -1)))
        scale = 1.0 + np.max(np.linalg.norm(h, axis=(-2, -1)))
        assert err / scale < 100 * ellipsoid.dx2


class TestCompare:
    def test_pure_translation_is_zero(self, sphere):
        u = sphere.data.u
        assert compare_up_to_translation(u, u + np.array([1.0, -2.0, 0.5])) < 1e-12

    def test_rotation_detected(self, sphere):
        theta = 0.3
        R = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0],
                      [0, 0, 1.0]])
        rotated = np.einsum("ij,...j->...i", R, sphere.data.u)
        assert compare_up_to_translation(sphere.data.u, rotated) > 0.01

    def test_pipeline_reconstruction_converges(self):
        # this case's errors, pinned to rounding
        coarse, fine = roundtrip(ELLIPSOID, ELLIPSOID.default_chart(33),
                                 PipelineOptions(), 1)
        assert (coarse.method, fine.method) == ("theorem2", "theorem2")
        assert coarse.rec_error == pytest.approx(5.441904606979945e-4, rel=1e-12)
        assert fine.rec_error == pytest.approx(1.3639702909713346e-4, rel=1e-12)
        assert observed_order(coarse.rec_error, fine.rec_error) >= 1.5

    def test_observed_order_needs_two_finite_positive_errors(self):
        assert observed_order(4e-3, 2e-3) == 1.0
        for pair in [(math.nan, 1e-3), (0.0, 1e-3), (1e-3, 0.0), (math.inf, 1e-3)]:
            assert math.isnan(observed_order(*pair))


class TestRoundtripDriver:
    def test_one_row_per_level_on_the_refined_chart(self):
        rows = roundtrip(RoundSphere(1.0), RoundSphere(1.0).default_chart(9),
                         PipelineOptions(), 2)
        assert [row.shape for row in rows] == [(9, 9), (17, 17), (33, 33)]
        # tau = 50 * 0.15^2 >= 1 on the 9-point level: too coarse to decide
        assert [row.verdict for row in rows] == ["inapplicable", "admissible",
                                                 "admissible"]
        # a 9-point chart leaves a one-node box at every level
        assert all(math.isnan(row.rec_error) for row in rows)

    def test_rejected_and_inapplicable_levels_have_no_error(self):
        [rejected] = roundtrip(ELLIPSOID, ELLIPSOID.default_chart(17),
                               PipelineOptions(), 0, perturb_nu=1e-2)
        [inapplicable] = roundtrip(Plane(), Plane().default_chart(17),
                                   PipelineOptions(), 0)
        assert (rejected.verdict, inapplicable.verdict) == ("rejected", "inapplicable")
        assert math.isnan(rejected.rec_error) and math.isnan(inapplicable.rec_error)

    def test_last_row_is_that_level_alone(self):
        chart = ELLIPSOID.default_chart(17)
        rows = roundtrip(ELLIPSOID, chart, PipelineOptions(), 1)
        run = roundtrip_level(ELLIPSOID, chart, PipelineOptions(), 1)
        assert run.chart == chart.refine() and rows[-1] == run.row()

    def test_zero_curl_tolerance_raises_for_every_route(self):
        # the discrete curl is never exactly 0, and no route is exempt
        for surface in (ELLIPSOID, Catenoid()):
            run = roundtrip_level(surface, surface.default_chart(17),
                                  PipelineOptions(), 0)
            assert run.report.admissible
            with pytest.raises(NonIntegrableError):
                integrate(run.report.candidate.U, run.chart, curl_tol=0.0)

    @pytest.mark.parametrize("name", ["catenoid", "helicoid",
                                      "associated-family"])
    def test_perturbed_minimal_data_rejected_at_parallelity(self, name):
        surface = CATALOG[name]()
        run = roundtrip_level(surface, surface.default_chart(33),
                              PipelineOptions(), 0, perturb_nu=1e-2)
        report = run.report
        assert (report.verdict, report.method, report.failed_step) == \
            ("rejected", "minimal_m2", "4")
        assert report.residuals["parallelity"] > report.thresholds["parallelity"]


def test_sign_flip_reconstructs_negated_immersion(ellipsoid):
    catenoid = generate(Catenoid(), Catenoid().default_chart(33))
    for metric, frame in ((ellipsoid.metric, ellipsoid.data.frame),
                          (metric_field(catenoid.chart, catenoid.g),
                           catenoid.frame)):
        plus = run_pipeline(metric, frame, PipelineOptions(sign_branch=1))
        minus = run_pipeline(metric, frame, PipelineOptions(sign_branch=-1))
        assert plus.admissible and minus.admissible
        up = integrate(plus.candidate.U, metric.chart)
        um = integrate(minus.candidate.U, metric.chart)
        assert compare_up_to_translation(um.u, -up.u) < 1e-12


# (surface, points per axis) -> (verdict, method, decade of rec_error or
# None when it is NaN); every CATALOG surface with its factory's defaults at
# 17^2 and 33^2, m = 3 at 7^3, 9^3 and 13^3
VERDICT_MATRIX = {
    ("plane", 17): ("inapplicable", "none", None),
    ("plane", 33): ("inapplicable", "none", None),
    ("round-sphere", 17): ("admissible", "theorem2", -4),
    ("round-sphere", 33): ("admissible", "theorem2", -4),
    ("ellipsoid", 17): ("admissible", "theorem2", -3),
    ("ellipsoid", 33): ("admissible", "theorem2", -4),
    ("graph", 17): ("admissible", "theorem2", -3),
    ("graph", 33): ("admissible", "theorem2", -3),
    ("cylinder", 17): ("inapplicable", "none", None),
    ("cylinder", 33): ("inapplicable", "none", None),
    ("catenoid", 17): ("admissible", "minimal_m2", -4),
    ("catenoid", 33): ("admissible", "minimal_m2", -4),
    ("helicoid", 17): ("admissible", "minimal_m2", -4),
    ("helicoid", 33): ("admissible", "minimal_m2", -4),
    ("associated-family", 17): ("admissible", "minimal_m2", -4),
    ("associated-family", 33): ("admissible", "minimal_m2", -4),
    ("clifford-torus", 17): ("admissible", "codim", -4),
    ("clifford-torus", 33): ("admissible", "codim", -5),
    ("graph-r4", 17): ("admissible", "codim", -1),
    ("graph-r4", 33): ("admissible", "codim", -4),
    ("hypersphere-m3", 7): ("admissible", "theorem2", None),
    ("hypersphere-m3", 9): ("admissible", "theorem2", None),
    ("hypersphere-m3", 13): ("admissible", "theorem2", -4),
    ("ellipsoid-m3", 7): ("inapplicable", "theorem3", None),
    ("ellipsoid-m3", 9): ("admissible", "theorem2", None),
    ("ellipsoid-m3", 13): ("admissible", "theorem2", -4),
}

# the m = 3 surfaces with theorem3 forced: below 11^3 its nullspace is not
# one-dimensional and the chart reads inapplicable
THEOREM3_MATRIX = {
    ("hypersphere-m3", 7): ("inapplicable", "theorem3", None),
    ("hypersphere-m3", 9): ("inapplicable", "theorem3", None),
    ("hypersphere-m3", 11): ("admissible", "theorem3", -5),
    ("hypersphere-m3", 13): ("admissible", "theorem3", -5),
    ("ellipsoid-m3", 7): ("inapplicable", "theorem3", None),
    ("ellipsoid-m3", 9): ("inapplicable", "theorem3", None),
    ("ellipsoid-m3", 11): ("admissible", "theorem3", -4),
    ("ellipsoid-m3", 13): ("admissible", "theorem3", -4),
}

# Cells of VERDICT_MATRIX that are known to be wrong, each with the
# CHANGES.md FOUND line that names it.  They are pinned as they read today,
# not asserted correct: mending a defect changes its cells and drops their
# marks in the same diff.
KNOWN_DEFECTS = {
    ("graph-r4", 17): "FOUND: codim.mean_curvature_vector counts rho's second "
                      "eigenvalue as 1 on coarse grids; graph-r4 at 17^2 then "
                      "reads admissible with a wrong immersion",
    ("ellipsoid-m3", 7): "FOUND: the coarse-chart gate covers only tau >= 1; "
                         "below it step 1 misreads non-minimal data as "
                         "minimal whenever tau exceeds its normalized q "
                         "(here q 0.862-0.884 < tau 0.889: convex data is "
                         "routed to theorem3)",
}


def _matrix_cell(surface, points, options):
    level = roundtrip_level(surface, surface.default_chart(points), options, 0)
    error = level.rec_error
    return (level.report.verdict, level.report.method,
            None if math.isnan(error) else math.floor(math.log10(error)))


def test_verdict_matrix_is_pinned():
    """Every catalog surface through ``roundtrip_level`` against the
    committed table: a numeric change that flips a verdict, a method or the
    decade of a reconstruction error fails here until the table is updated,
    so the flip shows in the diff."""
    got = {}
    for name, factory in CATALOG.items():
        surface = factory()
        for points in ((7, 9, 13) if surface.m == 3 else (17, 33)):
            got[name, points] = _matrix_cell(surface, points, PipelineOptions())
    assert got == VERDICT_MATRIX
    assert set(KNOWN_DEFECTS) <= set(VERDICT_MATRIX)


def test_theorem3_matrix_is_pinned():
    options = PipelineOptions(method="theorem3")
    got = {(name, points): _matrix_cell(CATALOG[name](), points, options)
           for name, points in THEOREM3_MATRIX}
    assert got == THEOREM3_MATRIX
