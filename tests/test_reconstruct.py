import math
import tracemalloc

import numpy as np
import pytest

from isogauss.admissibility import PipelineOptions, curl_residual, run_pipeline
from isogauss.curvature import metric_field
from isogauss.errors import DomainError
from isogauss.grid import build_chart, grad_all
from isogauss.reconstruct import (box_error, compare_up_to_translation,
                                  integrate, observed_order, roundtrip,
                                  roundtrip_level, verify_immersion)
from isogauss.surfaces import (CATALOG, Catenoid, Ellipsoid, Plane, RoundSphere,
                               generate)

import reference_loops
from layout import cf, gf

ELLIPSOID = Ellipsoid((1.0, 1.5, 2.0))


class TestIntegrate:
    def test_constant_columns_give_affine_exactly(self):
        chart = build_chart(2, (9, 11), (0.1, 0.2), (0.0, 0.0))
        cols = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, -1.0]])
        U = cf(np.broadcast_to(cols, chart.shape + (3, 2)), 2)
        u = gf(integrate(U, chart), 1)
        x = chart.mesh() - chart.mesh()[chart.center]
        assert np.max(np.abs(u - np.einsum("nj,...j->...n", cols, x))) < 1e-12
        assert np.array_equal(u[chart.center], np.zeros(3))

    def test_a_misshapen_U_is_a_domain_error(self):
        chart = build_chart(2, (9, 11), (0.1, 0.2), (0.0, 0.0))
        with pytest.raises(DomainError):
            integrate(np.zeros((3, 3) + chart.shape), chart)

    def test_sphere_oracle_roundtrip(self, sphere_pair):
        errs = [box_error(integrate(cf(p.data.du, 2), p.chart), p.data.u,
                          p.chart, level)
                for level, p in enumerate(sphere_pair)]
        assert errs[1] < 50 * sphere_pair[1].dx2
        assert observed_order(*errs) >= 1.5

    def test_synthetic_curl_raises(self, sphere):
        # swapping the columns of du on half the chart breaks integrability:
        # the curl residual rises far above the threshold the pipeline
        # judges it by, where the exact du stays far below it
        U = cf(sphere.data.du, 2)
        half = sphere.chart.shape[0] // 2
        U[:, 0, half:], U[:, 1, half:] = (U[:, 1, half:].copy(),
                                          U[:, 0, half:].copy())
        tau = 50 * sphere.dx2
        assert curl_residual(U, sphere.chart) > 10 * tau
        assert curl_residual(cf(sphere.data.du, 2), sphere.chart) < 0.1 * tau

    @pytest.mark.parametrize("name, points", [("ellipsoid", 33),
                                              ("clifford-torus", 17),
                                              ("ellipsoid-m3", 9)])
    def test_curl_matches_the_whole_defect_reference(self, name, points):
        # only the pairs i < j are formed; the full antisymmetric block
        # has the same largest norm
        surface = CATALOG[name]()
        data = generate(surface, surface.default_chart(points))
        U = data.du + 0.01 * np.sin(data.chart.mesh()[..., :1, None])
        curl = curl_residual(cf(U, 2), data.chart)
        assert curl > 1e-4
        assert curl == pytest.approx(reference_loops.curl_residual(U, data.chart),
                                     rel=1e-14, abs=0)

    def test_translation_invariance(self, sphere):
        # u is 0 at the chart center; a translate of the oracle compares
        # as the oracle does
        u = gf(integrate(cf(sphere.data.du, 2), sphere.chart), 1)
        assert np.array_equal(u[sphere.chart.center], np.zeros(3))
        shifted = sphere.data.u + np.array([5.0, -1.0, 2.0])
        assert compare_up_to_translation(u, shifted) == pytest.approx(
            compare_up_to_translation(u, sphere.data.u), abs=1e-12)

    def test_base_point_choice_shifts_by_constant(self):
        # the base node is the chart center; a gradient field that is linear
        # in x integrates exactly, so on a sub-chart with another center u
        # moves only by the integration constant
        def gradient_field(chart):
            # d f for f = x^2 + 3 x y - y^2
            x, y = chart.mesh()[..., 0], chart.mesh()[..., 1]
            return np.stack([2 * x + 3 * y, 3 * x - 2 * y])[None]

        chart = build_chart(2, (17, 17), (0.06, 0.05), (0.2, -0.1))
        sub = build_chart(2, (11, 15), chart.spacing, chart.origin)
        assert sub.center != chart.center
        full = gf(integrate(gradient_field(chart), chart), 1)
        part = gf(integrate(gradient_field(sub), sub), 1)
        assert compare_up_to_translation(full[:11, :15], part) < 1e-12


class TestVerifyImmersion:
    def test_oracle_reconstruction_verifies(self, ellipsoid):
        u = integrate(cf(ellipsoid.data.du, 2), ellipsoid.chart)
        res_g, res_n = verify_immersion(u, ellipsoid.metric, ellipsoid.data.frame)
        tol = 50 * ellipsoid.dx2
        assert res_g < tol and res_n < tol

    def test_constant_map_fails_metric_residual(self, ellipsoid):
        res_g, _ = verify_immersion(np.zeros((3,) + ellipsoid.chart.shape),
                                    ellipsoid.metric, ellipsoid.data.frame)
        g_norm = np.linalg.norm(ellipsoid.metric.g, axis=(0, 1))
        assert res_g > 0.5 * np.min(g_norm / (1 + g_norm))

    def test_catenoid_self_consistent(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(49))
        metric = metric_field(data.chart, data.g)
        u = integrate(cf(data.du, 2), data.chart)
        res_g, res_n = verify_immersion(u, metric, data.frame)
        tol = 50 * data.chart.max_spacing ** 2
        assert res_g < tol and res_n < tol

    def test_codim2_oracle_verifies_and_every_column_counts(self, clifford):
        u = integrate(cf(clifford.data.du, 2), clifford.chart)
        tol = 50 * clifford.dx2
        res_g, res_n = verify_immersion(u, clifford.metric, clifford.data.frame)
        assert res_g < tol and res_n < tol
        # a tangent direction in the second column must show up
        wrong = clifford.data.frame.copy()
        wrong[..., 1] = clifford.data.du[..., 0]
        _, res_wrong = verify_immersion(u, clifford.metric, wrong)
        assert res_wrong > 0.1

    def test_second_form_recovered_from_reconstruction(self, ellipsoid):
        # pipeline candidate h vs h recomputed from the integrated u
        report = run_pipeline(ellipsoid.metric, ellipsoid.data.frame)
        u = integrate(report.candidate.U, ellipsoid.chart)
        # h_ij = <d_j u_i, nu>
        ddu = gf(grad_all(grad_all(u, ellipsoid.chart), ellipsoid.chart), 3)
        h_back = np.einsum("...nij,...n->...ij", ddu,
                           ellipsoid.data.frame[..., 0])
        h_back = 0.5 * (h_back + np.swapaxes(h_back, -1, -2))
        reg = ellipsoid.chart.interior_slices(6)
        h = gf(report.candidate.h_alpha[0], 2)
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
        assert coarse.rec_error == pytest.approx(5.441904606959231e-4, rel=1e-12,
                                                abs=0)
        assert fine.rec_error == pytest.approx(1.3639702910266195e-4, rel=1e-12,
                                              abs=0)
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

    @pytest.mark.parametrize("name,points,method,options,perturb_nu", [
        ("ellipsoid", 17, "theorem2", PipelineOptions(), 0.0),
        # the Hopf turn of minimal_m2 reads the level's oracle
        ("catenoid", 17, "minimal_m2", PipelineOptions(), 0.0),
        ("graph-r4", 17, "codim", PipelineOptions(), 0.0),
        ("clifford-torus", 17, "codim", PipelineOptions(), 0.0),
        ("ellipsoid-m3", 9, "theorem3", PipelineOptions(method="theorem3"),
         0.0),
        ("ellipsoid", 17, "theorem2", PipelineOptions(), 1e-2),
    ])
    def test_every_row_is_that_level_alone(self, name, points, method,
                                           options, perturb_nu):
        # roundtrip samples the finest level once and restricts it
        surface = CATALOG[name]()
        chart = surface.default_chart(points)
        rows = roundtrip(surface, chart, options, 2, perturb_nu, seed=5)
        assert [row.method for row in rows] == [method] * 3
        for level, row in enumerate(rows):
            run = roundtrip_level(surface, chart, options, level, perturb_nu,
                                  seed=5)
            assert repr(row) == repr(run.row())     # bit for bit, NaN too

    def test_roundtrip_peak_is_that_of_the_finest_level(self):
        # the finest oracle outlives the coarse level; the traced peak stays
        # at the 52.05 MB measured with one sample per level
        surface = Ellipsoid()
        tracemalloc.start()
        try:
            roundtrip(surface, surface.default_chart(129), PipelineOptions(),
                      1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 52.5 * 2 ** 20

    def test_zero_curl_tolerance_raises_for_every_route(self):
        # the discrete curl is never exactly 0, and no route is exempt from
        # judging it: each admissible verdict holds it under its threshold
        for surface, method in ((ELLIPSOID, "theorem2"),
                                (Catenoid(), "minimal_m2")):
            run = roundtrip_level(surface, surface.default_chart(17),
                                  PipelineOptions(), 0)
            report = run.report
            assert (report.verdict, report.method) == ("admissible", method)
            curl = curl_residual(report.candidate.U, run.chart)
            assert report.residuals["curl"] == curl > 0.0
            assert report.thresholds["curl"] == 50 * run.chart.max_spacing ** 2

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


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_judged_curl_is_the_curl_of_the_candidate(name):
    # every report that judged a candidate carries that candidate's curl,
    # rejected or admissible; a report that judged none carries NaN
    surface = CATALOG[name]()
    chart = surface.default_chart(9 if surface.m == 3 else 17)
    for perturb_nu in ((0.0, 1e-2) if surface.m == 2 and surface.codim == 1
                       else (0.0,)):
        report = roundtrip_level(surface, chart, PipelineOptions(), 0,
                                 perturb_nu=perturb_nu).report
        if report.candidate is None:
            assert math.isnan(report.residuals["curl"])
        else:
            assert report.residuals["curl"] == curl_residual(
                report.candidate.U, chart)


def test_sign_flip_reconstructs_negated_immersion(ellipsoid):
    catenoid = generate(Catenoid(), Catenoid().default_chart(33))
    for metric, frame in ((ellipsoid.metric, ellipsoid.data.frame),
                          (metric_field(catenoid.chart, catenoid.g),
                           catenoid.frame)):
        plus = run_pipeline(metric, frame, PipelineOptions(sign_branch=1))
        minus = run_pipeline(metric, frame, PipelineOptions(sign_branch=-1))
        assert plus.admissible and minus.admissible
        up = gf(integrate(plus.candidate.U, metric.chart), 1)
        um = gf(integrate(minus.candidate.U, metric.chart), 1)
        assert compare_up_to_translation(um, -up) < 1e-12


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

# m = 2 charts between the coarse-chart gate (tau >= 1) and the first grid
# whose tau lies below the data's normalized q: (surface, points,
# perturb_nu) -> (verdict, method, failed_step, decade of rec_error)
COARSE_MATRIX = {
    ("round-sphere", 10, 0.0): ("admissible", "minimal_m2", None, -1),
    ("round-sphere", 10, 1e-2): ("admissible", "minimal_m2", None, -1),
    ("ellipsoid", 10, 0.0): ("rejected", "minimal_m2", "3", None),
}

_STEP1_MISREAD = ("FOUND: the coarse-chart gate covers only tau >= 1; below "
                  "it step 1 misreads non-minimal data as minimal whenever "
                  "tau exceeds its normalized q ")

# Cells of VERDICT_MATRIX and COARSE_MATRIX that are known to be wrong, each
# with the CHANGES.md FOUND line that names it.  They are pinned as they read
# today, not asserted correct: mending a defect changes its cells and drops
# their marks in the same diff.
KNOWN_DEFECTS = {
    ("graph-r4", 17): "FOUND: codim.mean_curvature_vector counts rho's second "
                      "eigenvalue as 1 on coarse grids; graph-r4 at 17^2 then "
                      "reads admissible with a wrong immersion",
    ("ellipsoid-m3", 7): _STEP1_MISREAD + "(here q 0.862-0.884 < tau 0.889: "
                         "convex data is routed to theorem3)",
    ("round-sphere", 10, 0.0): _STEP1_MISREAD + "(here q 0.799-0.800 < tau "
                               "0.889: the sphere reads admissible as a "
                               "minimal surface, rec_error 0.12)",
    ("round-sphere", 10, 1e-2): _STEP1_MISREAD + "(here q 0.793-0.807 < tau "
                                "0.889: perturbed data reads admissible as "
                                "minimal)",
    ("ellipsoid", 10, 0.0): _STEP1_MISREAD + "(here q 0.435-0.788 < tau "
                            "0.889: convex data is rejected on the minimal "
                            "route)",
}


def _level(name, points, options, perturb_nu=0.0):
    surface = CATALOG[name]()
    return roundtrip_level(surface, surface.default_chart(points), options, 0,
                           perturb_nu=perturb_nu)


def _matrix_cell(level):
    error = level.rec_error
    return (level.report.verdict, level.report.method,
            None if math.isnan(error) else math.floor(math.log10(error)))


def assert_judged_by_one_rule(report):
    """Rejected at step 3 or 4 exactly when some finite residual exceeds
    its threshold, and no ``extra`` key is judged."""
    over = [key for key, value in report.residuals.items()
            if not math.isnan(value) and value > report.thresholds[key]]
    assert (report.verdict == "rejected"
            and report.failed_step in ("3", "4")) == bool(over), over
    assert not set(report.extra) & set(report.thresholds)


def test_verdict_matrix_is_pinned():
    """Every catalog surface through ``roundtrip_level`` against the
    committed table: a numeric change that flips a verdict, a method or the
    decade of a reconstruction error fails here until the table is updated,
    so the flip shows in the diff."""
    got = {}
    for name, factory in CATALOG.items():
        for points in ((7, 9, 13) if factory().m == 3 else (17, 33)):
            level = _level(name, points, PipelineOptions())
            got[name, points] = _matrix_cell(level)
            assert_judged_by_one_rule(level.report)
    assert got == VERDICT_MATRIX
    assert set(KNOWN_DEFECTS) <= set(VERDICT_MATRIX) | set(COARSE_MATRIX)


def test_coarse_matrix_is_pinned():
    got = {}
    for name, points, perturb_nu in COARSE_MATRIX:
        level = _level(name, points, PipelineOptions(), perturb_nu)
        verdict, method, decade = _matrix_cell(level)
        got[name, points, perturb_nu] = (verdict, method,
                                         level.report.failed_step, decade)
        assert_judged_by_one_rule(level.report)
    assert got == COARSE_MATRIX
    assert set(COARSE_MATRIX) <= set(KNOWN_DEFECTS)


def test_theorem3_matrix_is_pinned():
    options = PipelineOptions(method="theorem3")
    got = {(name, points): _matrix_cell(_level(name, points, options))
           for name, points in THEOREM3_MATRIX}
    assert got == THEOREM3_MATRIX
