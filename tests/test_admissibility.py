import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isogauss import admissibility
from isogauss.admissibility import (PipelineOptions, build_U, check_h_squared,
                                    check_isometry, check_minimal_m2,
                                    check_parallel, codazzi_residual,
                                    h_from_theorem2, h_from_theorem3,
                                    hopf_angle_gradient, run_pipeline,
                                    step1_positivity)
from isogauss.codim import build_normal_frame, third_forms
from isogauss.curvature import (metric_field, node_norm, riemann_tensor,
                                to_orthonormal)
from isogauss.grid import grad_all
from isogauss.errors import (BranchError, ConfigurationError,
                             DegenerateGaussMapError, DomainError,
                             SamplingError)
from isogauss.grid import build_chart, interior_max
from isogauss.surfaces import (CATALOG, Catenoid, Ellipsoid, EllipsoidM3,
                               Helicoid, HypersphereM3, generate,
                               smooth_rotation_of_gauss_map)

import reference_loops


def saddle_metric(x):
    """Metric of the saddle graph z = x^2 - y^2 at coordinates ``x``."""
    fx, fy = 2 * x[..., 0], -2 * x[..., 1]
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1 + fx ** 2
    g[..., 0, 1] = g[..., 1, 0] = fx * fy
    g[..., 1, 1] = 1 + fy ** 2
    return g


def third_form(chart, normals):
    return third_forms(build_normal_frame(chart, normals)).k


def exact_curvature_pack(p):
    """``p.pack`` with ``R_low`` assembled exactly from the oracle ``h`` by
    the Gauss equation, free of finite-difference error."""
    h = p.data.h_alpha
    quad = (np.einsum("...ail,...ajk->...ijkl", h, h)
            - np.einsum("...aik,...ajl->...ijkl", h, h))
    return replace(p.pack, R_low=quad)


def theorem3_inputs(surface, points):
    """``(chart, pack, k, metric)`` for theorem3 on ``surface``'s chart."""
    chart = surface.default_chart(points)
    data = generate(surface, chart)
    metric = metric_field(chart, data.g)
    return chart, riemann_tensor(metric), third_form(chart, data.frame), metric


def saddle_problem(nu_slope, n=33):
    """The saddle metric paired with a fabricated nondegenerate Gauss map
    whose third-form trace is tunable; returns ``(chart, metric, normals)``."""
    chart = build_chart(2, (n, n), (1.0 / (n - 1),) * 2, (-0.5, -0.5))
    x = chart.mesh()
    raw = np.stack([nu_slope * x[..., 0], nu_slope * x[..., 1],
                    np.ones(chart.shape)], axis=-1)
    nu = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    metric = metric_field(chart, saddle_metric(x))
    return chart, metric, nu[..., None]


class TestStep1:
    def test_unit_sphere_gives_H_equals_m(self, sphere):
        res = step1_positivity(sphere.pack.s, sphere.forms.k, sphere.metric)
        assert res.classification == "positive"
        # q = s + Tr k = m(m-1) + m = m^2, H = m
        assert interior_max(sphere.chart, np.abs(res.q - 4.0)) < 100 * sphere.dx2
        assert interior_max(sphere.chart, np.abs(res.H - 2.0)) < 50 * sphere.dx2

    def test_catenoid_routed_to_minimal(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(33))
        metric = metric_field(data.chart, data.g)
        res = step1_positivity(riemann_tensor(metric).s,
                               third_form(data.chart, data.frame), metric)
        assert res.classification == "minimal"

    def test_ellipsoid_H_matches_oracle(self, ellipsoid):
        res = step1_positivity(ellipsoid.pack.s, ellipsoid.forms.k, ellipsoid.metric)
        assert res.classification == "positive"
        err = interior_max(ellipsoid.chart, np.abs(res.H - ellipsoid.data.H))
        assert err < 50 * ellipsoid.dx2

    def test_negative_q_rejected(self):
        chart, metric, normals = saddle_problem(nu_slope=0.05)
        res = step1_positivity(riemann_tensor(metric).s,
                               third_form(chart, normals), metric)
        assert res.classification == "rejected"
        assert res.residual > res.threshold

    @pytest.mark.parametrize("name, points, q_min", [("graph", 10, 0.806),
                                                     ("ellipsoid", 13, 0.407)])
    def test_report_carries_the_normalized_q_step1_compared(self, name, points,
                                                            q_min):
        surf = CATALOG[name]()
        data = generate(surf, surf.default_chart(points))
        metric = metric_field(data.chart, data.g)
        res = step1_positivity(riemann_tensor(metric).s,
                               third_form(data.chart, data.frame), metric)
        report = run_pipeline(metric, data.frame)
        assert report.extra["q_min_normalized"] == res.qn_min
        assert report.extra["q_max_normalized"] == res.qn_max
        assert res.qn_min == pytest.approx(q_min, abs=5e-4)

    def test_sign_change_classified_mixed(self):
        # q vanishes on part of the chart and is clearly positive elsewhere
        chart, metric, normals = saddle_problem(nu_slope=2.0, n=65)
        res = step1_positivity(riemann_tensor(metric).s,
                               third_form(chart, normals), metric)
        assert res.classification == "mixed"


class TestTheorem2:
    def test_unit_sphere_h_equals_g(self, sphere):
        res = step1_positivity(sphere.pack.s, sphere.forms.k, sphere.metric)
        h = h_from_theorem2(sphere.pack.Ric, sphere.forms.k, res.H)
        err = interior_max(sphere.chart, node_norm(h - sphere.data.g, 2))
        assert err < 50 * sphere.dx2

    @pytest.mark.parametrize("fixture", ["ellipsoid", "graph_surface"])
    def test_h_matches_oracle(self, fixture, request):
        p = request.getfixturevalue(fixture)
        res = step1_positivity(p.pack.s, p.forms.k, p.metric)
        h = h_from_theorem2(p.pack.Ric, p.forms.k, res.H)
        scale = 1.0 + float(np.max(node_norm(p.data.h, 2)))
        err = interior_max(p.chart, node_norm(h - p.data.h, 2)) / scale
        assert err < 50 * p.dx2

    def test_vanishing_H_routed_away(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(17))
        metric = metric_field(data.chart, data.g)
        pack = riemann_tensor(metric)
        with pytest.raises(BranchError):
            h_from_theorem2(pack.Ric, data.k, np.zeros(data.chart.shape))


class TestTheorem3:
    def test_m3_ellipsoid_unique_and_accurate(self, ellipsoid_m3):
        p = ellipsoid_m3
        res = h_from_theorem3(p.pack, p.forms.k, p.metric, PipelineOptions())
        assert res.status == "ok"
        assert res.frac_unique >= 0.99
        scale = float(np.max(node_norm(p.data.h, 2)))
        err = interior_max(p.chart, node_norm(res.h - p.data.h, 2)) / scale
        assert err < 5e-3

    def test_exact_forms_have_tiny_gap(self, ellipsoid_m3):
        # with curvature assembled exactly from the oracle h, the nullspace
        # certificate reaches machine precision (the uniqueness statement)
        p = ellipsoid_m3
        res = h_from_theorem3(exact_curvature_pack(p), p.data.k, p.metric,
                              PipelineOptions())
        assert res.status == "ok"
        assert interior_max(p.chart, res.gap) < 1e-6
        scale = float(np.max(node_norm(p.data.h, 2)))
        err = np.max(node_norm(res.h - p.data.h, 2)) / scale
        assert err < 1e-8

    def test_exact_forms_gap_at_rounding_level(self, ellipsoid_m3):
        # the last singular value is the residual |mat v| of the null vector
        # (2e-15 here); the square root of the Gram's bottom eigenvalue only
        # resolves it to about 1e-8 and must fail this bound
        p = ellipsoid_m3
        res = h_from_theorem3(exact_curvature_pack(p), p.data.k, p.metric,
                              PipelineOptions())
        assert interior_max(p.chart, res.gap) < 1e-12

    def test_temporaries_do_not_grow_with_the_grid(self):
        # the per-node system is assembled in node blocks, so the traced peak
        # grows only by the full-grid inputs and results (about 0.8 KB per
        # node); whole-grid temporaries cost about 5.6 KB per node
        peaks = {}
        for n in (17, 25):
            chart, pack, k, metric = theorem3_inputs(EllipsoidM3(), n)
            tracemalloc.start()
            try:
                h_from_theorem3(pack, k, metric, PipelineOptions())
                peaks[chart.num_points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (n0, p0), (n1, p1) = sorted(peaks.items())
        assert (p1 - p0) / (n1 - n0) < 2048

    def test_round_3sphere_solution_proportional_to_metric(self):
        from isogauss.surfaces import HypersphereM3
        surf = HypersphereM3(1.0)
        data = generate(surf, surf.default_chart(13))
        metric = metric_field(data.chart, data.g)
        pack = riemann_tensor(metric)
        res = h_from_theorem3(pack, data.k, metric, PipelineOptions())
        assert res.status == "ok"
        err = interior_max(data.chart, node_norm(res.h - data.g, 2))
        assert err < 100 * data.chart.max_spacing ** 2

    def test_flat_curvature_with_unit_k_has_no_solution(self):
        chart = build_chart(3, (9, 9, 9), (0.1,) * 3)
        g = np.broadcast_to(np.eye(3), chart.shape + (3, 3)).copy()
        metric = metric_field(chart, g)
        pack = riemann_tensor(metric)
        res = h_from_theorem3(pack, g.copy(), metric, PipelineOptions())
        assert res.status == "no_solution"

    def test_m2_rejected(self, sphere):
        with pytest.raises(DomainError):
            h_from_theorem3(sphere.pack, sphere.forms.k, sphere.metric,
                            PipelineOptions())

    def test_consistency_with_theorem2(self, ellipsoid_m3):
        # positive-trace data: both routes must produce the same h up to sign
        p = ellipsoid_m3
        s1 = step1_positivity(p.pack.s, p.forms.k, p.metric)
        h2 = h_from_theorem2(p.pack.Ric, p.forms.k, s1.H)
        h3 = h_from_theorem3(p.pack, p.forms.k, p.metric, PipelineOptions()).h
        scale = float(np.max(node_norm(h2, 2)))
        diff = min(interior_max(p.chart, node_norm(h3 - h2, 2)),
                   interior_max(p.chart, node_norm(h3 + h2, 2)))
        assert diff / scale < 100 * p.dx2


class TestTheorem3Reference:
    """The blocked Gram eigensolve against the whole-grid batched SVD that it
    replaced: same certificate, same ``h``."""

    def assert_agrees(self, pack, k, metric):
        new = h_from_theorem3(pack, k, metric, PipelineOptions())
        ref = reference_loops.h_from_theorem3_svd(pack, k, metric,
                                                  PipelineOptions())
        assert new.status == ref.status
        assert new.frac_unique == ref.frac_unique
        assert np.array_equal(new.has_nullspace, ref.has_nullspace)
        assert np.array_equal(new.unique, ref.unique)
        resolved = ref.gap > 1e-12
        assert np.all(np.abs(new.gap - ref.gap)[resolved]
                      <= 1e-9 * ref.gap[resolved])
        if ref.h is None:
            assert new.h is None
        else:
            assert np.max(np.abs(new.h - ref.h)) <= 1e-12 * np.max(np.abs(ref.h))
        return new

    def test_ellipsoid_m3(self, ellipsoid_m3):
        p = ellipsoid_m3
        assert self.assert_agrees(p.pack, p.forms.k, p.metric).status == "ok"

    def test_hypersphere_m3(self):
        _, pack, k, metric = theorem3_inputs(HypersphereM3(1.0), 13)
        assert self.assert_agrees(pack, k, metric).status == "ok"

    def test_flat_metric_no_solution(self):
        chart = build_chart(3, (9, 9, 9), (0.1,) * 3)
        g = np.broadcast_to(np.eye(3), chart.shape + (3, 3)).copy()
        metric = metric_field(chart, g)
        res = self.assert_agrees(riemann_tensor(metric), g.copy(), metric)
        assert res.status == "no_solution"

    def test_last_block_shorter_than_the_others(self):
        chart, pack, k, metric = theorem3_inputs(EllipsoidM3(), (23, 15, 13))
        slabs = admissibility._THEOREM3_BLOCK_NODES // (15 * 13)
        assert 1 < slabs < chart.shape[0] and chart.shape[0] % slabs != 0
        assert self.assert_agrees(pack, k, metric).status == "ok"


class TestChecks:
    def test_h_squared_on_sphere_h_equals_g(self, sphere):
        res = check_h_squared(sphere.data.g[..., None, :, :], sphere.forms.k_ab,
                              sphere.metric)
        assert res < 50 * sphere.dx2

    def test_h_squared_theorem2_ellipsoid(self, ellipsoid):
        s1 = step1_positivity(ellipsoid.pack.s, ellipsoid.forms.k, ellipsoid.metric)
        h = h_from_theorem2(ellipsoid.pack.Ric, ellipsoid.forms.k, s1.H)
        res = check_h_squared(h[..., None, :, :], ellipsoid.forms.k_ab,
                              ellipsoid.metric)
        assert res < 50 * ellipsoid.dx2
        # the block-wise check is the hypersurface h g^{-1} h = k, bit for bit
        k, metric = ellipsoid.forms.k, ellipsoid.metric
        single = node_norm(h @ metric.g_inv @ h - k, 2) / (1.0 + node_norm(k, 2))
        assert res == interior_max(ellipsoid.chart, single)

    def test_h_squared_codim2_is_every_block_product(self, clifford):
        # the oracle's forms satisfy h^a g^{-1} h^b = k^{ab} for all (a, b);
        # swapping the two normal directions breaks the diagonal blocks
        data = clifford.data
        assert check_h_squared(data.h_alpha, data.k_ab, clifford.metric) < 1e-12
        assert check_h_squared(data.h_alpha[..., ::-1, :, :], data.k_ab,
                               clifford.metric) > 0.1

    def test_build_U_on_unit_sphere_is_minus_A(self, sphere):
        # with h = g and k = g the solve gives U = -A, the antipodal branch
        A = sphere.frame.A[..., 0]
        U = build_U(A, sphere.forms.k, sphere.data.g, sphere.frame.frame)
        err = interior_max(sphere.chart, node_norm(U + A, 2))
        assert err < 50 * sphere.dx2
        assert check_isometry(U, sphere.metric) < 50 * sphere.dx2

    def test_build_U_matches_oracle_differential(self, ellipsoid):
        frame = ellipsoid.frame
        U = build_U(frame.A[..., 0], ellipsoid.forms.k, ellipsoid.data.h,
                    frame.frame)
        err = interior_max(ellipsoid.chart, node_norm(U - ellipsoid.data.du, 2))
        assert err < 50 * ellipsoid.dx2

    def test_build_U_agrees_with_a_solve(self, ellipsoid):
        args = (ellipsoid.frame.A[..., 0], ellipsoid.forms.k, ellipsoid.data.h,
                ellipsoid.frame.frame)
        U, ref = build_U(*args), reference_loops.build_U(*args)
        assert np.max(node_norm(U - ref, 2) / node_norm(ref, 2)) <= 1e-14

    @pytest.mark.parametrize("bad", [[[1.0, 1.0], [1.0, 1.0]],
                                     [[1.0, 0.2], [0.2, -0.5]]],
                             ids=["singular", "indefinite"])
    def test_build_U_degenerate_third_form_raises(self, ellipsoid, bad):
        k = ellipsoid.forms.k.copy()
        k[10, 20] = bad
        with pytest.raises(DegenerateGaussMapError):
            build_U(ellipsoid.frame.A[..., 0], k, ellipsoid.data.h,
                    ellipsoid.frame.frame)

    def test_zero_h_fails_isometry(self, ellipsoid):
        frame = ellipsoid.frame
        U = build_U(frame.A[..., 0], ellipsoid.forms.k,
                    np.zeros_like(ellipsoid.data.h), frame.frame)
        assert np.max(np.abs(U)) < 1e-12
        expect = interior_max(
            ellipsoid.chart,
            node_norm(ellipsoid.metric.g, 2) / (1 + node_norm(ellipsoid.metric.g, 2)))
        assert check_isometry(U, ellipsoid.metric) == pytest.approx(expect)

    def test_isometry_detects_scaling(self, ellipsoid):
        res = check_isometry(2.0 * ellipsoid.data.du, ellipsoid.metric)
        assert res > 0.5    # 4g vs g is an O(1) failure

    def test_parallel_on_oracle_data(self, ellipsoid):
        res = check_parallel(ellipsoid.data.du, ellipsoid.pack.Gamma,
                             ellipsoid.frame.frame, ellipsoid.chart)
        assert res < 50 * ellipsoid.dx2

    def test_parallel_fails_for_rotated_gauss_map(self):
        surf = Ellipsoid((1.0, 1.5, 2.0))
        vals = []
        for n in (33, 65):
            data = generate(surf, surf.default_chart(n))
            chart = data.chart
            metric = metric_field(chart, data.g)
            nu_bad = smooth_rotation_of_gauss_map(data.frame[..., 0], chart,
                                                  5e-2, seed=1)
            Gamma = riemann_tensor(metric).Gamma
            vals.append(check_parallel(data.du, Gamma, nu_bad[..., None], chart))
        # the defect is driven by the perturbation, not by discretization
        assert min(vals) > 1e-3
        assert abs(vals[0] - vals[1]) < 0.5 * vals[0]


class TestMinimalCase:
    @pytest.mark.parametrize("surf", [Catenoid(), Helicoid()], ids=lambda s: s.name)
    def test_minimal_pair_passes(self, surf):
        data = generate(surf, surf.default_chart(49))
        metric = metric_field(data.chart, data.g)
        res = check_minimal_m2(metric, third_form(data.chart, data.frame),
                               riemann_tensor(metric).s)
        tol = 50 * data.chart.max_spacing ** 2
        assert res.gauss_condition < tol
        assert res.conformality < tol

    @pytest.mark.parametrize("surf", [Catenoid(), Helicoid()], ids=lambda s: s.name)
    def test_matches_the_lapack_determinants(self, surf):
        data = generate(surf, surf.default_chart(49))
        metric = metric_field(data.chart, data.g)
        args = (metric, third_form(data.chart, data.frame),
                riemann_tensor(metric).s)
        res, ref = check_minimal_m2(*args), reference_loops.check_minimal_m2(*args)
        assert res.gauss_condition == pytest.approx(ref.gauss_condition,
                                                    rel=1e-14, abs=0.0)
        assert res.conformality == ref.conformality

    def test_m3_rejected(self, ellipsoid_m3):
        with pytest.raises(DomainError):
            check_minimal_m2(ellipsoid_m3.metric, ellipsoid_m3.forms.k,
                             ellipsoid_m3.pack.s)

    def test_sphere_routed_to_theorem2_not_minimal(self, sphere):
        report = run_pipeline(sphere.metric, sphere.data.frame)
        assert report.method == "theorem2"
        assert math.isnan(report.residuals["gauss_condition_m2"])


def hopf_angle_error(surf, chart, margin):
    """Max of ``|f - d phi|`` over ``chart.interior_slices(margin)``, with
    ``phi`` the oracle's Hopf angle ``atan2(h_on[0, 1], h_on[0, 0])``
    differentiated without wrapping as ``(a db - b da) / (a^2 + b^2)``."""
    data = generate(surf, chart)
    metric = metric_field(chart, data.g)
    k_on = to_orthonormal(metric, third_form(chart, data.frame))
    kappa = np.sqrt(0.5 * (k_on[..., 0, 0] + k_on[..., 1, 1]))
    f = hopf_angle_gradient(metric, riemann_tensor(metric).Gamma, kappa)
    h_on = to_orthonormal(metric, data.h)
    a, b = h_on[..., 0, 0], h_on[..., 0, 1]
    da, db = grad_all(a, chart), grad_all(b, chart)
    dphi = (a[..., None] * db - b[..., None] * da) / (a * a + b * b)[..., None]
    return float(np.max(np.abs(f - dphi)[chart.interior_slices(margin)]))


class TestHopfAngle:
    @pytest.mark.parametrize("name", ["catenoid", "helicoid",
                                      "associated-family"])
    def test_gradient_matches_the_oracle_angle_at_order_2(self, name):
        # Codazzi for h_phi, on one box at 17^2 and at half the spacing
        surf = CATALOG[name]()
        chart = surf.default_chart(17)
        coarse = hopf_angle_error(surf, chart, 4)
        fine = hopf_angle_error(surf, chart.refine(), 8)
        assert coarse < 2e-2
        assert math.log2(coarse / fine) >= 1.9


class TestCodazziResidual:
    def test_flat_constant_h_exactly_zero(self):
        chart = build_chart(2, (17, 17), (0.05, 0.05))
        g = np.broadcast_to(np.eye(2), chart.shape + (2, 2)).copy()
        metric = metric_field(chart, g)
        Gamma = riemann_tensor(metric).Gamma
        h = np.broadcast_to(np.diag([1.0, 2.0]), chart.shape + (2, 2)).copy()
        assert codazzi_residual(h, Gamma, metric) < 1e-13

    def test_conformal_multiple_of_metric_fails_persistently(self):
        surf = Ellipsoid((1.0, 1.5, 2.0))
        vals = []
        for n in (33, 65):
            data = generate(surf, surf.default_chart(n))
            metric = metric_field(data.chart, data.g)
            Gamma = riemann_tensor(metric).Gamma
            f = np.sin(data.chart.mesh()[..., 0] + data.chart.mesh()[..., 1])
            vals.append(codazzi_residual(f[..., None, None] * data.g, Gamma, metric))
        # metric compatibility kills the nabla(g) part; what remains is the
        # df wedge g term, which does not shrink under refinement
        assert min(vals) > 1e-2
        assert vals[1] > 0.5 * vals[0]


class TestPipeline:
    def test_oracle_ellipsoid_admissible(self, ellipsoid):
        report = run_pipeline(ellipsoid.metric, ellipsoid.data.frame)
        assert report.verdict == "admissible"
        assert report.method == "theorem2"
        tau = PipelineOptions().fd_tol(ellipsoid.chart)
        for key in ("step1_positivity", "h_squared", "isometry", "parallelity"):
            assert report.residuals[key] <= tau

    def test_perturbed_gauss_map_rejected_with_margin(self, ellipsoid):
        nu_bad = smooth_rotation_of_gauss_map(ellipsoid.data.frame[..., 0],
                                              ellipsoid.chart, 1e-2, seed=0)
        good = run_pipeline(ellipsoid.metric, ellipsoid.data.frame)
        bad = run_pipeline(ellipsoid.metric, nu_bad[..., None])
        assert bad.verdict == "rejected"
        assert bad.failed_step in ("3", "4")
        key = "h_squared" if bad.failed_step == "3" else "parallelity"
        assert bad.residuals[key] > 10 * good.residuals[key]
        # a failing h^2 = k names step 3 even when the bundle checks fail too
        if bad.residuals["h_squared"] > bad.thresholds["h_squared"]:
            assert bad.failed_step == "3"
            assert bad.notes == ["candidate h does not square to the third form"]

    def test_catenoid_admissible_via_minimal_branch(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(49))
        metric = metric_field(data.chart, data.g)
        report = run_pipeline(metric, data.frame)
        assert report.verdict == "admissible"
        assert report.method == "minimal_m2"
        assert report.candidate is not None

    def test_degenerate_inputs_inapplicable(self):
        from isogauss.surfaces import Cylinder, Plane
        for surf in (Cylinder(1.0), Plane()):
            data = generate(surf, surf.default_chart(17))
            metric = metric_field(data.chart, data.g)
            report = run_pipeline(metric, data.frame)
            assert report.verdict == "inapplicable"

    def test_negative_q_rejected_at_step_1(self):
        _, metric, normals = saddle_problem(nu_slope=0.05)
        report = run_pipeline(metric, normals)
        assert report.verdict == "rejected"
        assert report.failed_step == "1"

    def test_mixed_q_inapplicable(self):
        _, metric, normals = saddle_problem(nu_slope=2.0, n=65)
        report = run_pipeline(metric, normals)
        assert report.verdict == "inapplicable"

    @staticmethod
    def assert_sign_flip_is_exact(problem, method):
        plus = run_pipeline(problem.metric, problem.data.frame,
                            PipelineOptions(method=method, sign_branch=1))
        minus = run_pipeline(problem.metric, problem.data.frame,
                             PipelineOptions(method=method, sign_branch=-1))
        assert minus.verdict == "admissible"
        assert minus.method == plus.method
        for key, val in plus.residuals.items():
            other = minus.residuals[key]
            if math.isnan(val):
                assert math.isnan(other)
            else:
                assert abs(val - other) <= 1e-12
        assert np.array_equal(minus.candidate.h_alpha, -plus.candidate.h_alpha)
        assert np.array_equal(minus.candidate.U, -plus.candidate.U)
        assert np.array_equal(minus.candidate.H_alpha, -plus.candidate.H_alpha)

    def test_sign_branch_flip_is_exact(self, ellipsoid):
        self.assert_sign_flip_is_exact(ellipsoid, "auto")

    def test_theorem3_sign_branch_flip_is_exact(self, ellipsoid_m3):
        self.assert_sign_flip_is_exact(ellipsoid_m3, "theorem3")

    @pytest.mark.parametrize("name, value", [
        ("method", "sqrt"), ("method", "theorem4"), ("method", "minimal_m2"),
        ("sign_branch", 0), ("sign_branch", 2), ("tol_scale", 0.0),
        ("tol_scale", -1.0), ("tol_scale", math.nan), ("tol_scale", math.inf)])
    def test_unknown_option_raises(self, name, value):
        # only the listed routes can be forced (minimal_m2 follows from the
        # data); no branch is guessed from an out-of-range sign, and no
        # threshold from a C that is not a positive number
        with pytest.raises(ConfigurationError):
            PipelineOptions(**{name: value})

    def test_theorem2_override_on_minimal_data_inapplicable(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(17))
        metric = metric_field(data.chart, data.g)
        report = run_pipeline(metric, data.frame,
                              PipelineOptions(method="theorem2"))
        assert report.verdict == "inapplicable"

    def test_gauss_equation_follows_from_pipeline_success(self, ellipsoid):
        # never checked by the pipeline, yet it must hold for admissible data
        report = run_pipeline(ellipsoid.metric, ellipsoid.data.frame)
        h = report.candidate.h_alpha[..., 0, :, :]
        quad = (np.einsum("...il,...jk->...ijkl", h, h)
                - np.einsum("...ik,...jl->...ijkl", h, h))
        scale = 1.0 + float(np.max(node_norm(quad, 4)))
        res = interior_max(ellipsoid.chart,
                           node_norm(ellipsoid.pack.R_low - quad, 4)) / scale
        assert res < 50 * ellipsoid.dx2

    def test_report_carries_all_residual_keys(self, sphere):
        from isogauss.admissibility import RESIDUAL_KEYS
        report = run_pipeline(sphere.metric, sphere.data.frame)
        assert set(RESIDUAL_KEYS) <= set(report.residuals)
        assert set(RESIDUAL_KEYS) <= set(report.thresholds)


# (verdict, method, failed_step) of every catalog surface through the one
# entry point, at 33^2 (13^3 for m = 3)
CATALOG_ROUTES = {
    "associated-family": ("admissible", "minimal_m2", None),
    "catenoid": ("admissible", "minimal_m2", None),
    "clifford-torus": ("admissible", "codim", None),
    "cylinder": ("inapplicable", "none", None),
    "ellipsoid": ("admissible", "theorem2", None),
    "ellipsoid-m3": ("admissible", "theorem2", None),
    "graph": ("admissible", "theorem2", None),
    "graph-r4": ("admissible", "codim", None),
    "helicoid": ("admissible", "minimal_m2", None),
    "hypersphere-m3": ("admissible", "theorem2", None),
    "plane": ("inapplicable", "none", None),
    "round-sphere": ("admissible", "theorem2", None),
}
FIXED_SPACE_DIM = {"clifford-torus": 2.0, "graph-r4": 1.0}


def in_r4(normals):
    """Hypersurface normals of R^3 as normal planes of R^3 x R: the unit
    normal plus the constant fourth axis."""
    spans = np.zeros(normals.shape[:-2] + (4, 2))
    spans[..., :3, 0] = normals[..., 0]
    spans[..., 3, 1] = 1.0
    return spans


def plane_field_problem(g_of_x, n=17):
    """A metric on a square chart paired with one constant normal plane in
    R^4: the third forms vanish, so q = s + Tr k is the scalar curvature."""
    chart = build_chart(2, (n, n), (1.0 / (n - 1),) * 2, (-0.5, -0.5))
    spans = np.zeros(chart.shape + (4, 2))
    spans[..., 2, 0] = 1.0
    spans[..., 3, 1] = 1.0
    return metric_field(chart, g_of_x(chart.mesh())), spans


class TestRouting:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_route_through_run_pipeline(self, name):
        surf = CATALOG[name]()
        data = generate(surf, surf.default_chart(13 if surf.m == 3 else 33))
        report = run_pipeline(metric_field(data.chart, data.g), data.frame)
        assert (report.verdict, report.method,
                report.failed_step) == CATALOG_ROUTES[name]
        if data.d == 2:
            assert report.extra["fixed_space_dim"] == FIXED_SPACE_DIM[name]
            assert report.candidate.h_alpha.shape[-3] == 2
        elif report.admissible:
            assert report.candidate.h_alpha.shape[-3] == 1

    def test_method_request_on_codim2_data_is_noted(self):
        surf = CATALOG["clifford-torus"]()
        data = generate(surf, surf.default_chart(17))
        metric = metric_field(data.chart, data.g)
        auto = run_pipeline(metric, data.frame)
        forced = run_pipeline(metric, data.frame,
                              PipelineOptions(method="theorem3"))
        assert (forced.verdict, forced.method) == (auto.verdict, auto.method) \
            == ("admissible", "codim")
        assert forced.notes == ["method theorem3 applies to hypersurface data "
                                "only; normal data of codimension 2 takes "
                                "the codim route"] + auto.notes

    def test_codim2_negative_q_takes_the_shared_step1_report(self):
        # negatively curved metric, a slowly turning normal plane: q < 0
        _, metric, normals = saddle_problem(nu_slope=0.05)
        report = run_pipeline(metric, in_r4(normals))
        assert (report.verdict, report.failed_step, report.method) == \
            ("rejected", "1", "none")
        assert report.notes == ["s + Tr k is negative beyond noise: no "
                                "immersion exists"]
        assert math.isnan(report.residuals["nullspace_gap"])
        assert math.isnan(report.thresholds["nullspace_gap"])
        assert "fixed_space_dim" not in report.extra
        assert "frame_orthonormality_defect" in report.extra

    def test_codim2_vanishing_q_is_inapplicable(self):
        # the catenoid in a hyperplane of R^4: minimal, so |H| = 0
        surf = Catenoid()
        data = generate(surf, surf.default_chart(17))
        report = run_pipeline(metric_field(data.chart, data.g),
                              in_r4(data.frame))
        assert (report.verdict, report.failed_step, report.method) == \
            ("inapplicable", None, "none")
        assert report.notes == ["|H| = sqrt(s + Tr k) vanishes; the "
                                "trace-matrix recovery needs |H| != 0"]
        assert math.isnan(report.residuals["nullspace_gap"])
        assert "fixed_space_dim" not in report.extra

    def test_codim2_singular_dnu_fails_the_gate_before_step_1(self):
        # constant normal planes: every combination of dnu vanishes
        metric, spans = plane_field_problem(saddle_metric)
        report = run_pipeline(metric, spans)
        assert (report.verdict, report.failed_step, report.method) == \
            ("inapplicable", None, "none")
        assert report.notes == ["dnu is not everywhere invertible; the "
                                "decision theorems require an invertible "
                                "Gauss-map differential"]
        assert report.extra["dnu_min_singular"] == \
            report.extra["dnu_max_singular"] == 0.0
        assert math.isnan(report.residuals["step1_positivity"])
        assert "q_min_normalized" not in report.extra

    @pytest.mark.parametrize("name, perturb", [
        ("round-sphere", 0.0), ("ellipsoid", 0.0), ("ellipsoid", 1e-2)])
    def test_chart_too_coarse_for_step1_is_inapplicable(self, name, perturb):
        # 9 points: tau = 50 * 0.15^2 = 1.125, beyond every normalized q
        surf = CATALOG[name]()
        data = generate(surf, surf.default_chart(9))
        normals = data.frame
        if perturb:
            normals = smooth_rotation_of_gauss_map(
                data.nu, data.chart, perturb, seed=3)[..., None]
        report = run_pipeline(metric_field(data.chart, data.g), normals)
        assert (report.verdict, report.failed_step, report.method) == \
            ("inapplicable", None, "none")
        assert report.thresholds["step1_positivity"] == pytest.approx(1.125)
        assert len(report.notes) == 1 and "tau = C * dx^2 = 1.125" \
            in report.notes[0]

    def test_sphere_just_fine_enough_takes_theorem2(self):
        surf = CATALOG["round-sphere"]()
        data = generate(surf, surf.default_chart(11))
        report = run_pipeline(metric_field(data.chart, data.g), data.frame)
        assert (report.verdict, report.method) == ("admissible", "theorem2")

    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_normal_data_is_a_sampling_error(self, d):
        surf = CATALOG["ellipsoid" if d == 1 else "clifford-torus"]()
        data = generate(surf, surf.default_chart(17))
        normals = data.frame.copy()
        normals[3, 5, 0, -1] = np.nan
        with pytest.raises(SamplingError, match="non-finite"):
            run_pipeline(metric_field(data.chart, data.g), normals)


class TestUnorientedNormals:
    """Normal data is an unoriented plane for every d: the frame continues
    the orientation from the chart center, so flipped normals change
    nothing."""

    @pytest.fixture(scope="class")
    def ellipsoid33(self):
        surf = Ellipsoid()
        data = generate(surf, surf.default_chart(33))
        return metric_field(data.chart, data.g), data.frame

    def test_one_flipped_node_is_repaired(self, ellipsoid33):
        metric, normals = ellipsoid33
        flipped = normals.copy()
        flipped[20, 11] *= -1.0
        base = run_pipeline(metric, normals)
        report = run_pipeline(metric, flipped)
        assert report.admissible and base.admissible
        assert report.residuals == base.residuals
        assert np.array_equal(report.candidate.U, base.candidate.U)

    def test_global_flip_is_admissible(self, ellipsoid33):
        metric, normals = ellipsoid33
        report = run_pipeline(metric, -normals)
        assert report.admissible
        assert report.residuals == run_pipeline(metric, normals).residuals


def rotated(normals, seed):
    """The normal data of the same submanifold rotated by a seeded
    orthogonal Q of the ambient space."""
    n = normals.shape[-2]
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return np.einsum("pn,...na->...pa", Q, normals)


ROTATION_CASES = ([(name, "auto") for name in sorted(CATALOG)]
                  + [("ellipsoid-m3", "theorem3"),
                     ("hypersphere-m3", "theorem3")])


class TestAmbientRotation:
    @pytest.mark.parametrize("name, method", ROTATION_CASES)
    def test_rotation_changes_no_verdict_and_no_residual(self, name, method):
        surf = CATALOG[name]()
        data = generate(surf, surf.default_chart(13 if surf.m == 3 else 33))
        metric = metric_field(data.chart, data.g)
        options = PipelineOptions(method=method)
        base = run_pipeline(metric, data.frame, options)
        for seed in range(3):
            report = run_pipeline(metric, rotated(data.frame, seed), options)
            assert (report.verdict, report.method, report.failed_step) == \
                (base.verdict, base.method, base.failed_step)
            for key, threshold in base.thresholds.items():
                if not math.isnan(threshold):
                    assert abs(report.residuals[key] - base.residuals[key]) \
                        <= 1e-8 * threshold, (seed, key)
