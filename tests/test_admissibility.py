import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isogauss import admissibility, curvature
from isogauss.admissibility import (PipelineOptions, build_U, check_h_squared,
                                    check_isometry, check_parallel,
                                    h_from_theorem2, h_from_theorem3,
                                    hopf_angle_gradient, run_pipeline,
                                    step1_positivity)
from isogauss.codim import _right_singular, build_normal_frame, third_forms
from isogauss.curvature import (metric_field, node_norm, node_product,
                                riemann_tensor, to_orthonormal)
from isogauss.grid import grad_all
from isogauss.errors import (BranchError, ConfigurationError,
                             DegenerateGaussMapError, DomainError,
                             SamplingError)
from isogauss.grid import build_chart, interior_max
from isogauss.surfaces import (CATALOG, Catenoid, Ellipsoid, EllipsoidM3,
                               HypersphereM3, generate,
                               smooth_rotation_of_gauss_map)

import reference_loops
from layout import cf, gf
from reference_loops import codazzi_residual, riemann_low


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
    """``p.pack`` with ``R`` assembled exactly from the oracle ``h`` by the
    Gauss equation, free of finite-difference error."""
    return replace(p.pack,
                   R=reference_loops.gauss_equation_R(p.data.h_alpha, p.metric))


def theorem3_inputs(surface, points):
    """``(chart, pack, k, metric)`` for theorem3 on ``surface``'s chart."""
    chart = surface.default_chart(points)
    data = generate(surface, chart)
    metric = metric_field(chart, data.g)
    return chart, riemann_tensor(metric), third_form(chart, data.frame), metric


def traced_peak_mb(fn, *args):
    """Highest memory ``tracemalloc`` traces during ``fn(*args)``, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


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

    def test_mixed_note_names_the_compared_numbers(self):
        # ellipsoid 13^2: no interior q is negative (step-1 residual 0), but
        # its smallest normalized q lies within tau = 0.5 of zero
        surf = CATALOG["ellipsoid"]()
        data = generate(surf, surf.default_chart(13))
        report = run_pipeline(metric_field(data.chart, data.g), data.frame)
        assert (report.verdict, report.residuals["step1_positivity"]) == \
            ("inapplicable", 0.0)
        assert report.notes == [
            "normalized s + Tr k runs from 0.4071, within tau = 0.5 of 0, to "
            "0.8092 > tau: it is neither zero nor positive beyond noise on "
            "the whole chart, so no branch is selected"]


class TestTheorem2:
    def test_unit_sphere_h_equals_g(self, sphere):
        res = step1_positivity(sphere.pack.s, sphere.forms.k, sphere.metric)
        h = h_from_theorem2(sphere.pack.Ric, sphere.forms.k, res.H)
        err = interior_max(sphere.chart, node_norm(h - sphere.metric.g, 2))
        assert err < 50 * sphere.dx2

    @pytest.mark.parametrize("fixture", ["ellipsoid", "graph_surface"])
    def test_h_matches_oracle(self, fixture, request):
        p = request.getfixturevalue(fixture)
        res = step1_positivity(p.pack.s, p.forms.k, p.metric)
        h = h_from_theorem2(p.pack.Ric, p.forms.k, res.H)
        oracle_h = cf(p.data.h, 2)
        scale = 1.0 + float(np.max(node_norm(oracle_h, 2)))
        err = interior_max(p.chart, node_norm(h - oracle_h, 2)) / scale
        assert err < 50 * p.dx2

    def test_vanishing_H_routed_away(self):
        surf = Catenoid()
        data = generate(surf, surf.default_chart(17))
        metric = metric_field(data.chart, data.g)
        pack = riemann_tensor(metric)
        with pytest.raises(BranchError):
            h_from_theorem2(pack.Ric, cf(data.k, 2), np.zeros(data.chart.shape))


class TestTheorem3:
    def test_m3_ellipsoid_unique_and_accurate(self, ellipsoid_m3):
        p = ellipsoid_m3
        res = h_from_theorem3(p.pack, p.forms.k, p.metric, PipelineOptions())
        assert res.status == "ok"
        assert res.frac_unique >= 0.99
        oracle_h = cf(p.data.h, 2)
        scale = float(np.max(node_norm(oracle_h, 2)))
        err = interior_max(p.chart, node_norm(res.h - oracle_h, 2)) / scale
        assert err < 5e-3

    def test_exact_forms_have_tiny_gap(self, ellipsoid_m3):
        # with curvature assembled exactly from the oracle h, the nullspace
        # certificate reaches machine precision (the uniqueness statement)
        p = ellipsoid_m3
        res = h_from_theorem3(exact_curvature_pack(p), cf(p.data.k, 2),
                              p.metric, PipelineOptions())
        assert res.status == "ok"
        assert interior_max(p.chart, res.gap) < 1e-6
        oracle_h = cf(p.data.h, 2)
        scale = float(np.max(node_norm(oracle_h, 2)))
        err = np.max(node_norm(res.h - oracle_h, 2)) / scale
        assert err < 1e-8

    def test_exact_forms_gap_at_rounding_level(self, ellipsoid_m3):
        # the last singular value is the residual |mat v| of the null vector
        # (2e-15 here); the square root of the Gram's bottom eigenvalue only
        # resolves it to about 1e-8 and must fail this bound
        p = ellipsoid_m3
        res = h_from_theorem3(exact_curvature_pack(p), cf(p.data.k, 2),
                              p.metric, PipelineOptions())
        assert interior_max(p.chart, res.gap) < 1e-12

    def test_traced_peak_within_budget(self):
        # 12.56 MB measured at 21^3, R_low's rows i < j formed inside the
        # call; a copy of a block's system on this path adds 3.8 MB
        chart, pack, k, metric = theorem3_inputs(EllipsoidM3(), 21)
        assert traced_peak_mb(h_from_theorem3, pack, k, metric,
                              PipelineOptions()) < 14.0

    def test_eigensolve_keeps_one_tangent_per_rotation(self, monkeypatch):
        # the first block at 21^3: 3969 nodes, each a (27, 6) system whose
        # Gram takes 4 sweeps of 15 rotations.  3.15 MB measured; keeping
        # (c, s) instead of the tangent adds 1.9 MB, and so would any other
        # second array per rotation
        chart, pack, k, metric = theorem3_inputs(EllipsoidM3(), 21)
        blocks = []

        def keep_block(E):
            blocks.append(E)
            return _right_singular(E)

        monkeypatch.setattr(admissibility, "_right_singular", keep_block)
        h_from_theorem3(pack, k, metric, PipelineOptions())
        assert blocks[0].shape == (9, 21, 21, 27, 6)
        assert traced_peak_mb(_right_singular, blocks[0]) < 3.46

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
        res = h_from_theorem3(pack, cf(data.k, 2), metric, PipelineOptions())
        assert res.status == "ok"
        err = interior_max(data.chart, node_norm(res.h - metric.g, 2))
        assert err < 100 * data.chart.max_spacing ** 2

    def test_flat_curvature_with_unit_k_has_no_solution(self):
        chart = build_chart(3, (9, 9, 9), (0.1,) * 3)
        g = np.broadcast_to(np.eye(3), chart.shape + (3, 3)).copy()
        metric = metric_field(chart, g)
        pack = riemann_tensor(metric)
        res = h_from_theorem3(pack, metric.g.copy(), metric, PipelineOptions())
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
    """The constant-map assembly and Jacobi eigensolve against the
    whole-grid batched SVD and the ``einsum`` assembly with LAPACK ``eigh``
    that it replaced: same certificate, same ``h``."""

    REFERENCES = [reference_loops.h_from_theorem3_svd,
                  reference_loops.h_from_theorem3_eigh]

    def assert_agrees(self, pack, k, metric):
        new = h_from_theorem3(pack, k, metric, PipelineOptions())
        for reference in self.REFERENCES:
            ref = reference(pack, gf(k, 2), metric, PipelineOptions())
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
                assert (np.max(np.abs(gf(new.h, 2) - ref.h))
                        <= 1e-12 * np.max(np.abs(ref.h)))
        return new

    def test_ellipsoid_m3(self, ellipsoid_m3):
        p = ellipsoid_m3
        assert self.assert_agrees(p.pack, p.forms.k, p.metric).status == "ok"

    @pytest.mark.parametrize("points, status", [
        (7, "indeterminate"), (13, "ok"), (21, "ok")])
    def test_ellipsoid_m3_grids(self, points, status):
        _, pack, k, metric = theorem3_inputs(EllipsoidM3(), points)
        assert self.assert_agrees(pack, k, metric).status == status

    def test_hypersphere_m3(self):
        _, pack, k, metric = theorem3_inputs(HypersphereM3(1.0), 13)
        assert self.assert_agrees(pack, k, metric).status == "ok"

    def test_perturbed_gauss_map_indeterminate(self):
        # a mix of nodes with and without a unique nullspace: the masks
        # must agree node by node
        surf = EllipsoidM3()
        chart = surf.default_chart(13)
        data = generate(surf, chart)
        nu = smooth_rotation_of_gauss_map(data.frame[..., 0], chart, 0.1, seed=3)
        metric = metric_field(chart, data.g)
        res = self.assert_agrees(riemann_tensor(metric),
                                 third_form(chart, nu[..., None]), metric)
        assert res.status == "indeterminate"
        assert 0.5 < res.frac_unique < 0.99

    def test_flat_metric_no_solution(self):
        chart = build_chart(3, (9, 9, 9), (0.1,) * 3)
        g = np.broadcast_to(np.eye(3), chart.shape + (3, 3)).copy()
        metric = metric_field(chart, g)
        res = self.assert_agrees(riemann_tensor(metric), metric.g.copy(), metric)
        assert res.status == "no_solution"

    def test_last_block_shorter_than_the_others(self):
        chart, pack, k, metric = theorem3_inputs(EllipsoidM3(), (23, 15, 13))
        slabs = admissibility._THEOREM3_BLOCK_NODES // (15 * 13)
        assert 1 < slabs < chart.shape[0] and chart.shape[0] % slabs != 0
        assert self.assert_agrees(pack, k, metric).status == "ok"

    def test_constant_map_entries(self):
        # the two einsums of the system applied to the identity: 135
        # entries, every one 0, +-1 or +-2
        C = admissibility._theorem3_map(3)
        assert C.shape == (36, 162)
        assert np.count_nonzero(C) == 135
        assert set(np.unique(C)) <= {-2.0, -1.0, 0.0, 1.0, 2.0}


class TestChecks:
    def test_h_squared_on_sphere_h_equals_g(self, sphere):
        res = check_h_squared(sphere.metric.g[None], sphere.forms.k_ab,
                              sphere.metric)
        assert res < 50 * sphere.dx2

    def test_h_squared_theorem2_ellipsoid(self, ellipsoid):
        s1 = step1_positivity(ellipsoid.pack.s, ellipsoid.forms.k, ellipsoid.metric)
        h = h_from_theorem2(ellipsoid.pack.Ric, ellipsoid.forms.k, s1.H)
        res = check_h_squared(h[None], ellipsoid.forms.k_ab, ellipsoid.metric)
        assert res < 50 * ellipsoid.dx2
        # the block-wise check is the hypersurface h g^{-1} h = k, bit for bit
        k, metric = ellipsoid.forms.k, ellipsoid.metric
        single = (node_norm(node_product(node_product(h, metric.g_inv), h) - k, 2)
                  / (1.0 + node_norm(k, 2)))
        assert res == interior_max(ellipsoid.chart, single)

    def test_h_squared_codim2_is_every_block_product(self, clifford):
        # the oracle's forms satisfy h^a g^{-1} h^b = k^{ab} for all (a, b);
        # swapping the two normal directions breaks the diagonal blocks
        h_alpha, k_ab = cf(clifford.data.h_alpha, 3), cf(clifford.data.k_ab, 4)
        assert check_h_squared(h_alpha, k_ab, clifford.metric) < 1e-12
        assert check_h_squared(h_alpha[::-1], k_ab, clifford.metric) > 0.1

    def test_build_U_on_unit_sphere_is_minus_A(self, sphere):
        # with h = g and k = g the solve gives U = -A, the antipodal branch
        A = sphere.frame.A[0]
        U = build_U(A, sphere.forms.k, sphere.metric.g, sphere.frame.frame)
        err = interior_max(sphere.chart, node_norm(U + A, 2))
        assert err < 50 * sphere.dx2
        assert check_isometry(U, sphere.metric) < 50 * sphere.dx2

    def test_build_U_matches_oracle_differential(self, ellipsoid):
        frame = ellipsoid.frame
        U = build_U(frame.A[0], ellipsoid.forms.k, cf(ellipsoid.data.h, 2),
                    frame.frame)
        err = interior_max(ellipsoid.chart,
                           node_norm(U - cf(ellipsoid.data.du, 2), 2))
        assert err < 50 * ellipsoid.dx2

    def test_build_U_agrees_with_a_solve(self, ellipsoid):
        frame, k, h = ellipsoid.frame, ellipsoid.forms.k, ellipsoid.data.h
        U = gf(build_U(frame.A[0], k, cf(h, 2), frame.frame), 2)
        ref = reference_loops.build_U(gf(frame.A[0], 2), gf(k, 2), h,
                                      np.moveaxis(frame.frame, (0, 1), (-1, -2)))
        rel = (reference_loops.node_norm(U - ref, 2)
               / reference_loops.node_norm(ref, 2))
        assert np.max(rel) <= 1e-14

    @pytest.mark.parametrize("bad", [[[1.0, 1.0], [1.0, 1.0]],
                                     [[1.0, 0.2], [0.2, -0.5]]],
                             ids=["singular", "indefinite"])
    def test_build_U_degenerate_third_form_raises(self, ellipsoid, bad):
        k = ellipsoid.forms.k.copy()
        k[..., 10, 20] = bad
        with pytest.raises(DegenerateGaussMapError):
            build_U(ellipsoid.frame.A[0], k, cf(ellipsoid.data.h, 2),
                    ellipsoid.frame.frame)

    def test_zero_h_fails_isometry(self, ellipsoid):
        frame = ellipsoid.frame
        U = build_U(frame.A[0], ellipsoid.forms.k,
                    np.zeros_like(ellipsoid.metric.g), frame.frame)
        assert np.max(np.abs(U)) < 1e-12
        expect = interior_max(
            ellipsoid.chart,
            node_norm(ellipsoid.metric.g, 2) / (1 + node_norm(ellipsoid.metric.g, 2)))
        assert check_isometry(U, ellipsoid.metric) == pytest.approx(expect)

    def test_isometry_detects_scaling(self, ellipsoid):
        res = check_isometry(2.0 * cf(ellipsoid.data.du, 2), ellipsoid.metric)
        assert res > 0.5    # 4g vs g is an O(1) failure

    def test_parallel_on_oracle_data(self, ellipsoid):
        res = check_parallel(cf(ellipsoid.data.du, 2), ellipsoid.pack.Gamma,
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
            vals.append(check_parallel(cf(data.du, 2), Gamma,
                                       cf(nu_bad, 1)[None], chart))
        # the defect is driven by the perturbation, not by discretization
        assert min(vals) > 1e-3
        assert abs(vals[0] - vals[1]) < 0.5 * vals[0]


class TestMinimalCase:
    def test_sphere_routed_to_theorem2_not_minimal(self, sphere):
        report = run_pipeline(sphere.metric, sphere.data.frame)
        assert report.method == "theorem2"


def hopf_angle_error(surf, chart, margin):
    """Max of ``|f - d phi|`` over ``chart.interior_slices(margin)``, with
    ``phi`` the oracle's Hopf angle ``atan2(h_on[0, 1], h_on[0, 0])``
    differentiated without wrapping as ``(a db - b da) / (a^2 + b^2)``."""
    data = generate(surf, chart)
    metric = metric_field(chart, data.g)
    k_on = to_orthonormal(metric, third_form(chart, data.frame))
    kappa = np.sqrt(0.5 * (k_on[0, 0] + k_on[1, 1]))
    f = hopf_angle_gradient(metric, riemann_tensor(metric).Gamma, kappa)
    h_on = to_orthonormal(metric, cf(data.h, 2))
    a, b = h_on[0, 0], h_on[0, 1]
    da, db = grad_all(a, chart), grad_all(b, chart)
    dphi = (a * db - b * da) / (a * a + b * b)
    return float(np.max(np.abs(f - dphi)[(slice(None),)
                                         + chart.interior_slices(margin)]))


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
        h = cf(np.broadcast_to(np.diag([1.0, 2.0]), chart.shape + (2, 2)), 2)
        assert codazzi_residual(h, Gamma, metric) < 1e-13

    def test_conformal_multiple_of_metric_fails_persistently(self):
        surf = Ellipsoid((1.0, 1.5, 2.0))
        vals = []
        for n in (33, 65):
            data = generate(surf, surf.default_chart(n))
            metric = metric_field(data.chart, data.g)
            Gamma = riemann_tensor(metric).Gamma
            f = np.sin(data.chart.mesh()[..., 0] + data.chart.mesh()[..., 1])
            vals.append(codazzi_residual(f * metric.g, Gamma, metric))
        # metric compatibility kills the nabla(g) part; what remains is the
        # df wedge g term, which does not shrink under refinement
        assert min(vals) > 1e-2
        assert vals[1] > 0.5 * vals[0]


class TestPipeline:
    def test_traced_peak_within_budget(self):
        # 32.91 MB measured at 257^2; holding R_low and Ric through steps
        # 3-4 adds 11 MB
        surface = Ellipsoid()
        data = generate(surface, surface.default_chart(257))
        metric = metric_field(data.chart, data.g)
        assert traced_peak_mb(run_pipeline, metric, data.frame) < 34.0

    def test_only_theorem3_forms_the_lowered_tensor(self, monkeypatch,
                                                     ellipsoid, clifford):
        # R_low is formed where it is read: the curvature operator of
        # theorem3, never on the theorem2, minimal_m2 or codim routes
        formed = []
        real = curvature._lowered_pairs

        def record(pack, metric):
            formed.append(metric.chart.m)
            return real(pack, metric)

        monkeypatch.setattr(curvature, "_lowered_pairs", record)
        catenoid = generate(Catenoid(), Catenoid().default_chart(17))
        for metric, frame, method in (
                (ellipsoid.metric, ellipsoid.data.frame, "theorem2"),
                (metric_field(catenoid.chart, catenoid.g), catenoid.frame,
                 "minimal_m2"),
                (clifford.metric, clifford.data.frame, "codim")):
            report = run_pipeline(metric, frame)
            assert (report.verdict, report.method) == ("admissible", method)
        assert formed == []
        data = generate(EllipsoidM3(), EllipsoidM3().default_chart(11))
        report = run_pipeline(metric_field(data.chart, data.g), data.frame,
                              PipelineOptions(method="theorem3"))
        assert (report.verdict, report.method) == ("admissible", "theorem3")
        assert formed == [3]

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
        failing = [key for key in ("h_squared", "isometry", "parallelity",
                                   "curl")
                   if bad.residuals[key] > bad.thresholds[key]]
        assert bad.notes == [f"failing: {', '.join(failing)}"]
        assert (bad.failed_step == "3") == ("h_squared" in failing)

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
        h = report.candidate.h_alpha[0]
        quad = (np.einsum("il...,jk...->ijkl...", h, h)
                - np.einsum("ik...,jl...->ijkl...", h, h))
        scale = 1.0 + float(np.max(node_norm(quad, 4)))
        R_low = riemann_low(ellipsoid.pack, ellipsoid.metric)
        res = interior_max(ellipsoid.chart, node_norm(R_low - quad, 4)) / scale
        assert res < 50 * ellipsoid.dx2

    def test_report_carries_all_residual_keys(self, sphere):
        from isogauss.admissibility import RESIDUAL_KEYS
        report = run_pipeline(sphere.metric, sphere.data.frame)
        assert set(RESIDUAL_KEYS) <= set(report.residuals)
        assert set(RESIDUAL_KEYS) <= set(report.thresholds)

    def test_nan_residual_fails_its_threshold(self, monkeypatch):
        # NaN > tau is False: a NaN judged residual must fail, not pass
        surf = Ellipsoid()
        data = generate(surf, surf.default_chart(17))
        metric = metric_field(data.chart, data.g)
        monkeypatch.setattr(admissibility, "check_h_squared",
                            lambda *args: math.nan)
        report = run_pipeline(metric, data.frame)
        assert report.verdict == "rejected" and report.failed_step == "3"
        assert report.notes[-1] == "failing: h_squared"

    def test_overflowing_normalization_fails_h_squared(self):
        # at spacing 1e-150, |k^{ab}| ~ 1e298 and the 1 + |k^{ab}| norm of
        # h_squared overflows to a NaN residual, which must be named failing
        surf = Ellipsoid()
        data = generate(surf, surf.default_chart(9))
        metric = metric_field(build_chart(2, (9, 9), (1e-150, 1e-150)), data.g)
        with np.errstate(all="ignore"):
            report = run_pipeline(metric, data.frame)
        assert math.isnan(report.residuals["h_squared"])
        assert report.verdict == "rejected" and report.failed_step == "3"
        assert report.notes[-1] == ("failing: h_squared, isometry, "
                                    "parallelity, curl")

    def test_badness_ranks_a_nan_residual_worst(self):
        def report(h_squared):
            residuals = dict.fromkeys(admissibility.RESIDUAL_KEYS, 1.0)
            residuals["h_squared"] = h_squared
            return admissibility.AdmissibilityReport(
                "rejected", "3", residuals, {}, "codim", None, [], {})
        assert admissibility._badness(report(math.nan)) == math.inf
        assert admissibility._badness(report(2.0)) == 2.0


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
            assert report.candidate.h_alpha.shape[0] == 2
        elif report.admissible:
            assert report.candidate.h_alpha.shape[0] == 1

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_nearly_flat_direction_has_one_gauss_map_gate(self, eps):
        # the graph of x^2 + y^2 + eps z^2 in R^4: the singular-value ratio
        # of dnu (about 0.67 eps) passes the invertibility gate, so
        # theorem3 judges the data instead of raising on its own, stricter
        # test of the third form's eigenvalues
        chart = build_chart(3, (13,) * 3, (0.8 / 12,) * 3, (-0.4,) * 3)
        x = chart.mesh()
        grad = np.stack([2 * x[..., 0], 2 * x[..., 1], 2 * eps * x[..., 2]],
                        axis=-1)
        g = np.eye(3) + grad[..., :, None] * grad[..., None, :]
        nu = np.concatenate([-grad, np.ones(chart.shape + (1,))], axis=-1)
        nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
        metric = metric_field(chart, g)
        auto = run_pipeline(metric, nu[..., None])
        forced = run_pipeline(metric, nu[..., None],
                              PipelineOptions(method="theorem3"))
        ratio = auto.extra["dnu_min_singular"] / auto.extra["dnu_max_singular"]
        assert 0.5 * eps < ratio < eps
        assert (auto.verdict, auto.method) == ("admissible", "theorem2")
        assert (forced.verdict, forced.method) == ("inapplicable", "theorem3")

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


def chart_transformed(chart, g, normals, how):
    """The same data on a relabelled chart: ``swap`` exchanges the first two
    axes (grid, spacing and the index pair of ``g`` together), ``reflect``
    runs the first axis backwards (the arrays flipped, and that axis's
    off-diagonal entries of ``g`` negated)."""
    if how == "swap":
        perm = [1, 0] + list(range(2, chart.m))
        new = replace(chart, **{field: tuple(getattr(chart, field)[i]
                                             for i in perm)
                                for field in ("shape", "spacing", "origin")})
        g = np.swapaxes(g, 0, 1)[..., perm, :][..., perm]
        return new, g, np.swapaxes(normals, 0, 1)
    sign = np.ones(chart.m)
    sign[0] = -1.0
    top = chart.origin[0] + (chart.shape[0] - 1) * chart.spacing[0]
    new = replace(chart, origin=(-top,) + chart.origin[1:])
    return new, np.flip(g, 0) * np.outer(sign, sign), np.flip(normals, 0)


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

    @pytest.mark.parametrize("how", ["swap", "reflect"])
    @pytest.mark.parametrize("name, method", ROTATION_CASES)
    def test_chart_symmetry_changes_no_verdict(self, name, method, how):
        # minimal_m2 takes the family member whose Hopf angle is 0 in the
        # Cholesky frame, whose first vector follows the first chart axis:
        # there only the member-independent residuals stay equal
        surf = CATALOG[name]()
        data = generate(surf, surf.default_chart(13 if surf.m == 3 else 33))
        options = PipelineOptions(method=method)
        base = run_pipeline(metric_field(data.chart, data.g), data.frame,
                            options)
        chart, g, normals = chart_transformed(data.chart, data.g, data.frame,
                                              how)
        report = run_pipeline(metric_field(chart, g), normals, options)
        assert (report.verdict, report.method, report.failed_step) == \
            (base.verdict, base.method, base.failed_step)
        exact = (("step1_positivity", "h_squared")
                 if base.method == "minimal_m2" else base.thresholds)
        for key, threshold in base.thresholds.items():
            if math.isnan(threshold):
                continue
            if key in exact:
                assert abs(report.residuals[key] - base.residuals[key]) \
                    <= 1e-8 * threshold, key
            else:
                assert report.residuals[key] <= threshold, key


# the stage outputs the pipeline passes on, and the routes that form them
LAYOUT_CASES = [("ellipsoid", 17, "auto"), ("graph-r4", 33, "auto"),
                ("ellipsoid-m3", 13, "theorem3")]
STAGES = ("build_normal_frame", "third_forms", "weingarten_combination",
          "riemann_tensor")


@pytest.mark.parametrize("name, points, method", LAYOUT_CASES)
def test_every_stage_field_is_components_first(monkeypatch, name, points,
                                               method):
    # one layout throughout: every per-node array a stage hands on ends in
    # the grid axes and is C-contiguous, so each component is one
    # contiguous array over the nodes
    surf = CATALOG[name]()
    data = generate(surf, surf.default_chart(points))
    chart = data.chart
    seen = [metric_field(chart, data.g)]
    for stage in STAGES:
        def record(*args, real=getattr(admissibility, stage)):
            out = real(*args)
            seen.append(out)
            return out
        monkeypatch.setattr(admissibility, stage, record)
    report = run_pipeline(seen[0], data.frame, PipelineOptions(method=method))
    assert report.admissible
    seen.append(report.candidate)
    assert [type(obj).__name__ for obj in seen] == [
        "MetricField", "NormalFrame", "CodimForms", "WeingartenCombination",
        "CurvaturePack", "CandidateSolution"]
    for obj in seen:
        fields = obj._asdict() if hasattr(obj, "_asdict") else vars(obj)
        for key, value in fields.items():
            # the combination's weights w are one vector, not a field
            if isinstance(value, np.ndarray) and key != "w":
                where = f"{type(obj).__name__}.{key}"
                assert value.shape[value.ndim - chart.m:] == chart.shape, where
                assert value.flags.c_contiguous, where


# The verdict depends on the chart's unit (ROADMAP item 9). The chart
# rescaled by x -> lambda x is the same surface: spacing and origin times
# lambda, g / lambda^2, the normals unchanged. The thresholds tau = C dx^2
# are in chart units and the residuals are normalized by 1 + |.|, so a
# small unit rejects and a large one lifts tau past 1, where every chart is
# too coarse to decide. These cells record that dependence as it stands; a
# change that removes it updates them.
CHART_UNIT_CELLS = {
    ("ellipsoid", 33): {0.01: ("rejected", "theorem2", "3"),
                        0.1: ("rejected", "theorem2", "3"),
                        1.0: ("admissible", "theorem2", None),
                        10.0: ("inapplicable", "none", None)},
    ("ellipsoid-m3", 13): {0.01: ("rejected", "theorem2", "3"),
                           0.1: ("rejected", "theorem2", "3"),
                           1.0: ("admissible", "theorem2", None),
                           10.0: ("inapplicable", "none", None)},
    ("catenoid", 33): {0.01: ("rejected", "none", "1"),
                       0.1: ("rejected", "minimal_m2", "4"),
                       1.0: ("admissible", "minimal_m2", None),
                       10.0: ("inapplicable", "none", None)},
    ("clifford-torus", 33): {0.01: ("admissible", "codim", None),
                             0.1: ("admissible", "codim", None),
                             1.0: ("admissible", "codim", None),
                             10.0: ("inapplicable", "none", None)},
}


@pytest.mark.parametrize("name, points", list(CHART_UNIT_CELLS))
def test_verdict_in_a_rescaled_chart_is_pinned(name, points):
    surf = CATALOG[name]()
    data = generate(surf, surf.default_chart(points))
    chart = data.chart
    found = {}
    for lam in CHART_UNIT_CELLS[name, points]:
        scaled = build_chart(chart.m, chart.shape,
                             [lam * dx for dx in chart.spacing],
                             [lam * x0 for x0 in chart.origin])
        report = run_pipeline(metric_field(scaled, data.g / lam ** 2),
                              data.frame)
        found[lam] = (report.verdict, report.method, report.failed_step)
    assert found == CHART_UNIT_CELLS[name, points]
