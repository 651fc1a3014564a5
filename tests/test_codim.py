import itertools
import math

import numpy as np
import pytest

from isogauss import admissibility, codim
from isogauss.admissibility import (PipelineOptions, build_U, check_h_squared,
                                    check_isometry, check_parallel,
                                    curl_residual, h_from_theorem2,
                                    run_pipeline, step1_positivity)
from isogauss.codim import (_resolve_full_fixed_space, _rho_and_B,
                            _right_singular, build_normal_frame,
                            frame_consistency, mean_curvature_vector,
                            second_forms, third_forms, weingarten_combination)
from isogauss.curvature import (metric_field, node_norm, riemann_tensor,
                                symmetric_eig, to_orthonormal)
from isogauss.errors import InvalidGrassmannDataError
from isogauss.grid import build_chart, interior_max
from isogauss.reconstruct import (box_error, integrate,
                                   observed_order, roundtrip)
from isogauss.surfaces import CATALOG, CliffordTorus, generate

import reference_loops
from conftest import Problem
from layout import cf, gf


# the eight signed permutations of two columns, the identity first
SIGNED_PERMUTATIONS_2 = [np.diag(signs) @ P
                         for P in (np.eye(2), np.eye(2)[::-1])
                         for signs in itertools.product((1.0, -1.0), repeat=2)]


def gf_frame(Q):
    """The grid-first ``(*grid, n, d)`` columns of a ``(d, n, *grid)``
    frame."""
    return np.moveaxis(Q, (0, 1), (-1, -2))


def mean_curvature(forms, problem):
    """``mean_curvature_vector`` with the step-1 length and the pipeline's
    unit tolerance."""
    s1 = step1_positivity(problem.pack.s, forms.k, problem.metric)
    return mean_curvature_vector(forms, problem.pack.Ric, s1.H, problem.metric,
                                 PipelineOptions().unit_tol(problem.chart))


def frame_U(frame, h_alpha, metric):
    """``build_U`` through the best-conditioned Weingarten combination."""
    wc = weingarten_combination(frame.A, third_forms(frame).k_ab, metric)
    return build_U(wc.A, wc.k, np.einsum("aij...,a->ij...", h_alpha, wc.w),
                   frame.frame)


@pytest.fixture(scope="module")
def clifford_problem(clifford):
    frame = build_normal_frame(clifford.chart, clifford.data.frame)
    forms = third_forms(frame)
    return clifford, frame, forms


class TestNormalFrame:
    def test_constant_plane_field(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        spans = np.zeros(chart.shape + (4, 2))
        spans[..., 2, 0] = 2.0       # non-orthonormal but constant
        spans[..., 3, 1] = 0.5
        spans[..., 2, 1] = 0.3
        frame = build_normal_frame(chart, spans)
        assert frame.orthonormality_defect < 1e-12
        assert np.max(np.abs(frame.A)) < 1e-12
        assert np.max(np.abs(frame.frame[:, :2])) < 1e-12

    def test_clifford_frame_orthonormal_and_continuous(self, clifford_problem):
        _, frame, _ = clifford_problem
        assert frame.orthonormality_defect < 1e-10
        assert frame.min_overlap_det > 0.9

    def test_scaled_spans_give_same_frame(self, clifford):
        rng = np.random.default_rng(7)
        base = build_normal_frame(clifford.chart, clifford.data.frame)
        scales = 0.5 + rng.random(clifford.chart.shape + (1, 2))
        scaled = build_normal_frame(clifford.chart, clifford.data.frame * scales)
        assert np.max(np.abs(scaled.frame - base.frame)) < 1e-10

    def test_column_sign_flips_repaired(self, clifford):
        rng = np.random.default_rng(11)
        flips = rng.choice([-1.0, 1.0], size=clifford.chart.shape + (1, 2))
        frame = build_normal_frame(clifford.chart, clifford.data.frame * flips)
        base = build_normal_frame(clifford.chart, clifford.data.frame)
        # continuous result, equal to the canonical frame up to one global
        # signed permutation
        overlap = np.einsum("an...,bn...->...ab", frame.frame, base.frame)
        assert np.max(np.abs(overlap - overlap[clifford.chart.center])) < 1e-8

    def test_rank_deficient_spans_rejected(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        spans = np.zeros(chart.shape + (4, 2))
        spans[..., 2, 0] = 1.0
        spans[..., 2, 1] = 1.0       # same direction twice
        with pytest.raises(InvalidGrassmannDataError):
            build_normal_frame(chart, spans)

    @pytest.mark.parametrize("tilt, rejected", [(1e-10, True), (1e-6, False)])
    def test_rank_tolerance_relative_to_largest_singular_value(self, tilt,
                                                               rejected):
        # one node's second column leans off the first by `tilt`: its
        # smallest singular value is about tilt / sqrt(2) of the largest,
        # against RANK_REL_TOL = 1e-8
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        spans = np.zeros(chart.shape + (4, 2))
        spans[..., 2, 0] = 1.0
        spans[..., 3, 1] = 1.0
        spans[4, 4, :, 1] = [0.0, 0.0, 1.0, tilt]
        if rejected:
            with pytest.raises(InvalidGrassmannDataError):
                build_normal_frame(chart, spans)
        else:
            assert build_normal_frame(chart, spans).orthonormality_defect < 1e-8


class TestThirdForms:
    def test_codim1_reduction_matches_gauss_data(self, ellipsoid):
        frame = build_normal_frame(ellipsoid.chart, ellipsoid.data.frame)
        forms = third_forms(frame)
        _, k = reference_loops.gauss_map_differential(
            ellipsoid.chart, ellipsoid.data.frame[..., 0])
        assert np.array_equal(gf(forms.k, 2), k)
        assert np.array_equal(gf(forms.k_ab[0, 0], 2), k)

    def test_clifford_matches_oracle(self, clifford_problem):
        clifford, _, forms = clifford_problem
        err = interior_max(clifford.chart,
                           node_norm(forms.k_ab - cf(clifford.data.k_ab, 4), 4))
        assert err < 50 * clifford.dx2

    def test_flat_plane_in_r4_all_zero(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        spans = np.zeros(chart.shape + (4, 2))
        spans[..., 2, 0] = 1.0
        spans[..., 3, 1] = 1.0
        forms = third_forms(build_normal_frame(chart, spans))
        assert np.max(np.abs(forms.k_ab)) < 1e-12


class TestMeanCurvatureVector:
    def test_codim1_rho_is_unit_on_admissible_data(self, ellipsoid):
        # rho = Tr((Ric+k)^{-1} k) = 1 because Ric + k = h H
        frame = build_normal_frame(ellipsoid.chart, ellipsoid.data.frame)
        forms = third_forms(frame)
        mc = mean_curvature(forms, ellipsoid)
        assert mc.status == "ok"
        rho = mc.rho[..., 0, 0]
        assert interior_max(ellipsoid.chart, np.abs(rho - 1.0)) < 50 * ellipsoid.dx2

    @pytest.mark.parametrize("r2", [1.0, 1.4])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_clifford_recovers_oracle_direction(self, theta, r2):
        # the exact solve against the oracle; a constant frame rotation
        # rotates the components H^a = <H, nu^a> to match
        torus = Problem(CliffordTorus(1.0, r2), 41)
        O = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        spans = np.einsum("...nb,ab->...na", torus.data.frame, O)
        mc = mean_curvature(third_forms(build_normal_frame(torus.chart, spans)),
                            torus)
        assert mc.status == "degenerate"
        assert mc.fixed_dim == 2
        assert mc.unit_tol == max(1e-6, 50 * torus.dx2)
        want = np.einsum("ab,...b->a...", O, torus.data.H_alpha)
        err = interior_max(torus.chart,
                           np.max(np.abs(mc.candidates[0] - want), axis=0))
        assert err < 50 * torus.dx2

    def test_rho_without_unit_eigenvalue_rejected(self, ellipsoid):
        # curved metric paired with an unrelated plane field: both rho
        # eigenvalues land well below 1, so no mean curvature vector exists
        chart = ellipsoid.chart
        torus, x = CliffordTorus(1.0, 1.0), cf(chart.mesh(), 1)
        spans = gf(torus.frame(x, torus.point(x)), 2)
        frame = build_normal_frame(chart, spans)
        forms = third_forms(frame)
        mc = mean_curvature(forms, ellipsoid)
        assert mc.status == "rejected"
        assert mc.unit_eigen_distance > 0.1

    def test_oracle_exact_forms_have_unit_eigenvalue(self, clifford):
        # with analytically exact third forms, rho - I is at machine precision
        from isogauss.codim import CodimForms
        forms = CodimForms(chart=clifford.chart, k_ab=cf(clifford.data.k_ab, 4),
                           k=cf(clifford.data.k, 2))
        mc = mean_curvature(forms, clifford)
        assert mc.unit_eigen_distance < 1e-6


class TestSecondForms:
    def test_codim1_reduction_agrees_with_closed_form(self, ellipsoid):
        frame = build_normal_frame(ellipsoid.chart, ellipsoid.data.frame)
        forms = third_forms(frame)
        mc = mean_curvature(forms, ellipsoid)
        h_alpha = second_forms(mc.candidates[0], mc.B, mc.k_ab_op,
                               ellipsoid.metric)
        res = check_h_squared(h_alpha, forms.k_ab, ellipsoid.metric)
        s1 = step1_positivity(ellipsoid.pack.s, ellipsoid.forms.k, ellipsoid.metric)
        h2 = h_from_theorem2(ellipsoid.pack.Ric, ellipsoid.forms.k, s1.H)
        scale = 1.0 + float(np.max(node_norm(h2, 2)))
        err = interior_max(ellipsoid.chart,
                           node_norm(h_alpha[0] - h2, 2)) / scale
        assert err < 100 * ellipsoid.dx2
        assert res < 50 * ellipsoid.dx2

    def test_clifford_matches_oracle(self, clifford_problem):
        clifford, _, forms = clifford_problem
        mc = mean_curvature(forms, clifford)
        h_alpha = second_forms(mc.candidates[0], mc.B, mc.k_ab_op,
                               clifford.metric)
        res = check_h_squared(h_alpha, forms.k_ab, clifford.metric)
        assert res < 50 * clifford.dx2
        err = interior_max(clifford.chart,
                           node_norm(h_alpha - cf(clifford.data.h_alpha, 3), 3))
        assert err < 50 * clifford.dx2

    def test_flat_fabrication_fails_product_check(self):
        # flat torus forms against a rescaled metric: products cannot match
        surf = CliffordTorus(1.0, 1.0)
        chart = surf.default_chart(25)
        data = generate(surf, chart)
        metric = metric_field(chart, 3.0 * data.g)
        frame = build_normal_frame(chart, data.frame)
        forms = third_forms(frame)
        pack = riemann_tensor(metric)
        H = np.ones((2,) + chart.shape)
        _, B, k_ab_op = _rho_and_B(forms, pack.Ric, metric)
        h_alpha = second_forms(H, B, k_ab_op, metric)
        assert check_h_squared(h_alpha, forms.k_ab, metric) > 0.1


class TestWeingartenCombination:
    def test_codim1_gate_is_the_normal_itself(self, ellipsoid):
        frame, forms = ellipsoid.frame, ellipsoid.forms
        wc = weingarten_combination(frame.A, forms.k_ab, ellipsoid.metric)
        assert wc.invertible and np.array_equal(wc.w, [1.0])
        # one frame direction is taken as views, not copied
        assert np.shares_memory(wc.A, frame.A)
        assert np.shares_memory(wc.k, forms.k_ab)
        eigs = symmetric_eig(gf(to_orthonormal(ellipsoid.metric, forms.k), 2))
        assert wc.min_singular == np.sqrt(np.min(eigs))
        assert wc.max_singular == np.sqrt(np.max(eigs))

    def test_clifford_needs_a_combination(self, clifford_problem):
        # each direction of a product of circles bends along one axis only
        clifford, frame, forms = clifford_problem
        wc = weingarten_combination(frame.A, forms.k_ab, clifford.metric)
        assert wc.invertible and np.count_nonzero(wc.w) == 2
        assert wc.min_singular > 0.1 * wc.max_singular
        k_w = np.einsum("ni...,nj...->ij...", wc.A, wc.A)
        assert np.max(np.abs(wc.k - k_w)) < 1e-12

    def test_constant_planes_are_not_invertible(self):
        chart = build_chart(2, (9, 9), (0.1, 0.1))
        spans = np.zeros(chart.shape + (4, 2))
        spans[..., 2, 0] = 1.0
        spans[..., 3, 1] = 1.0
        frame = build_normal_frame(chart, spans)
        g = np.broadcast_to(np.eye(2), chart.shape + (2, 2))
        wc = weingarten_combination(frame.A, third_forms(frame).k_ab,
                                    metric_field(chart, g))
        assert not wc.invertible
        assert wc.min_singular == wc.max_singular == 0.0


class TestBuildU:
    def test_codim1_reduction_equals_hypersurface_builder(self, ellipsoid):
        # the continued one-column frame against the Gauss map's raw
        # differential
        frame = build_normal_frame(ellipsoid.chart, ellipsoid.data.frame)
        U = frame_U(frame, cf(ellipsoid.data.h_alpha, 3), ellipsoid.metric)
        A, k = reference_loops.gauss_map_differential(
            ellipsoid.chart, ellipsoid.data.frame[..., 0])
        U_hyper = build_U(cf(A, 2), cf(k, 2), cf(ellipsoid.data.h, 2),
                          frame.frame)
        assert np.array_equal(U, U_hyper)

    def test_clifford_residuals_and_roundtrip(self, clifford_problem):
        clifford, frame, forms = clifford_problem
        h_alpha = cf(clifford.data.h_alpha, 3)
        U = frame_U(frame, h_alpha, clifford.metric)
        tol = 50 * clifford.dx2
        assert frame_consistency(frame.A, U, h_alpha, clifford.chart) < tol
        assert check_isometry(U, clifford.metric) < tol
        assert check_parallel(U, clifford.pack.Gamma, frame.frame,
                              clifford.chart) < tol
        assert curl_residual(U, clifford.chart) < tol
        u = integrate(U, clifford.chart)
        assert box_error(u, clifford.data.u, clifford.chart, 0) < tol

    def test_frame_order_independence(self, clifford_problem):
        clifford, frame, _ = clifford_problem
        swapped = build_normal_frame(clifford.chart,
                                     clifford.data.frame[..., ::-1])
        h_alpha = cf(clifford.data.h_alpha, 3)
        U_a = frame_U(frame, h_alpha, clifford.metric)
        U_b = frame_U(swapped, h_alpha[::-1], clifford.metric)
        assert np.max(np.abs(U_a - U_b)) < 1e-9


class TestFrameCovariance:
    def test_constant_rotation_leaves_residuals_and_U_unchanged(self, clifford):
        theta = 0.7
        O = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rotated_spans = np.einsum("...nb,ab->...na", clifford.data.frame, O)
        rep_a = run_pipeline(clifford.metric, clifford.data.frame)
        rep_b = run_pipeline(clifford.metric, rotated_spans)
        assert rep_a.verdict == rep_b.verdict == "admissible"
        for key, val in rep_a.residuals.items():
            other = rep_b.residuals[key]
            if np.isnan(val):
                assert np.isnan(other)
            else:
                assert abs(val - other) < 1e-8
        assert np.max(np.abs(rep_a.candidate.U - rep_b.candidate.U)) < 1e-8
        # h^a transforms covariantly; the length of the H vector is invariant
        na = np.linalg.norm(rep_a.candidate.H_alpha, axis=0)
        nb = np.linalg.norm(rep_b.candidate.H_alpha, axis=0)
        assert np.max(np.abs(na - nb)) < 1e-8

    @pytest.mark.parametrize("surface", [CliffordTorus(1.0, 1.4),
                                         CATALOG["graph-r4"]()],
                             ids=["clifford-torus", "graph-r4"])
    @pytest.mark.parametrize("region", [np.s_[19:, 19:], np.s_[19:]],
                             ids=["quadrant", "half"])
    def test_in_plane_change_of_basis_leaves_the_report_unchanged(
            self, surface, region):
        # normal data is a field of planes: any signed permutation of the
        # spanning columns on part of the chart, the order-4 ones
        # (nu1, nu2) -> (nu2, -nu1) and (-nu2, nu1) included, spans the
        # same planes
        problem = Problem(surface, 33)
        clean = run_pipeline(problem.metric, problem.data.frame)
        for S in SIGNED_PERMUTATIONS_2:
            spans = problem.data.frame.copy()
            spans[region] = spans[region] @ S
            rep = run_pipeline(problem.metric, spans)
            assert ((rep.verdict, rep.method, rep.failed_step)
                    == (clean.verdict, clean.method, clean.failed_step)), S
            np.testing.assert_allclose(
                [rep.residuals[k] for k in sorted(clean.residuals)],
                [clean.residuals[k] for k in sorted(clean.residuals)],
                rtol=1e-10, atol=0.0, equal_nan=True, err_msg=str(S))


class TestGenericCodimTwo:
    """A double graph in R^4: the trace matrix has a simple unit eigenvalue,
    exercising the generic recovery path (no degenerate resolver)."""

    @pytest.fixture(scope="class")
    @staticmethod
    def graph4():
        from conftest import Problem
        from isogauss.surfaces import GraphR4
        return Problem(GraphR4(), 41)

    def test_fixed_space_is_one_dimensional(self, graph4):
        frame = build_normal_frame(graph4.chart, graph4.data.frame)
        forms = third_forms(frame)
        mc = mean_curvature(forms, graph4)
        assert mc.status == "ok"
        assert mc.fixed_dim == 1

    def test_pipeline_recovers_oracle(self, graph4):
        rep = run_pipeline(graph4.metric, graph4.data.frame)
        assert rep.verdict == "admissible"
        tol = 50 * graph4.dx2
        H_err = interior_max(graph4.chart, np.max(np.abs(
            rep.candidate.H_alpha - cf(graph4.data.H_alpha, 1)), axis=0))
        h_err = interior_max(graph4.chart, node_norm(
            rep.candidate.h_alpha - cf(graph4.data.h_alpha, 3), 3))
        assert H_err < tol and h_err < tol
        assert rep.residuals["curl"] < tol
        u = integrate(rep.candidate.U, graph4.chart)
        assert box_error(u, graph4.data.u, graph4.chart, 0) < tol


class TestCodimPipeline:
    def test_clifford_admissible_with_oracle_match(self, clifford):
        rep = run_pipeline(clifford.metric, clifford.data.frame)
        assert rep.verdict == "admissible"
        tol = 50 * clifford.dx2
        assert rep.residuals["h_squared"] < tol
        assert rep.residuals["isometry"] < tol
        assert rep.residuals["parallelity"] < tol
        assert rep.residuals["curl"] < tol
        H_err = interior_max(clifford.chart,
                             np.max(np.abs(rep.candidate.H_alpha
                                           - cf(clifford.data.H_alpha, 1)),
                                    axis=0))
        assert H_err < tol
        # |H| = sqrt(s + Tr k) holds by construction of the scaling step
        tr_k = np.einsum("ij...,...ij->...", clifford.metric.g_inv,
                         clifford.data.k)
        expect = np.sqrt(clifford.pack.s + tr_k)
        got = np.linalg.norm(rep.candidate.H_alpha, axis=0)
        assert interior_max(clifford.chart, np.abs(got - expect)) < tol

    def test_sign_branch_flip(self, clifford):
        plus = run_pipeline(clifford.metric, clifford.data.frame,
                                  PipelineOptions(sign_branch=1))
        minus = run_pipeline(clifford.metric, clifford.data.frame,
                                   PipelineOptions(sign_branch=-1))
        assert plus.verdict == minus.verdict == "admissible"
        assert np.array_equal(minus.candidate.H_alpha, -plus.candidate.H_alpha)
        assert np.max(np.abs(minus.candidate.U + plus.candidate.U)) < 1e-12
        for key, val in plus.residuals.items():
            other = minus.residuals[key]
            assert (np.isnan(val) and np.isnan(other)) or abs(val - other) <= 1e-12

    def test_reconstruction_convergence(self):
        surf = CliffordTorus(1.0, 1.4)
        coarse, fine = roundtrip(surf, surf.default_chart(25), PipelineOptions(), 1)
        assert coarse.verdict == fine.verdict == "admissible"
        assert observed_order(coarse.rec_error, fine.rec_error) >= 1.5


class TestLoopEquivalence:
    """The run-wise frame repair and the exact direction solve give what
    the per-node loop and the per-angle scan give."""

    @staticmethod
    def _assert_same_frame(chart, spans):
        frame = build_normal_frame(chart, spans)
        Q, min_det = reference_loops.normal_frame(chart, spans)
        assert np.array_equal(gf_frame(frame.frame), Q)
        assert frame.min_overlap_det == min_det

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_frames_match_node_loop_on_catalog(self, name):
        surf = CATALOG[name]()
        data = generate(surf, surf.default_chart(9 if surf.m == 3 else 15))
        self._assert_same_frame(data.chart, data.frame)

    @pytest.mark.parametrize("name", ["ellipsoid", "clifford-torus", "graph-r4"])
    def test_frames_match_node_loop_under_column_flips(self, name):
        surf = CATALOG[name]()
        chart = surf.default_chart(21)
        clean = generate(surf, chart).frame
        rng = np.random.default_rng(17)
        signs = rng.choice([-1.0, 1.0], size=chart.shape + (1, clean.shape[-1]))
        swap = rng.random(chart.shape) < 0.3
        spans = np.where(swap[..., None, None], (clean * signs)[..., ::-1],
                         clean * signs)
        self._assert_same_frame(chart, spans)
        # the sign-and-swap steps between neighbors include order-4 ones;
        # the repair undoes them all and keeps the center's columns
        center = np.diag(signs[chart.center][0])
        if swap[chart.center]:
            center = center[:, ::-1]
        frame = gf_frame(build_normal_frame(chart, spans).frame)
        expected = gf_frame(build_normal_frame(chart, clean).frame) @ center
        assert np.max(np.abs(frame - expected)) < 1e-12

    @staticmethod
    def _flipped_spans(name, points, region):
        """Catalog spans with the columns negated on ``region`` (a function
        of the chart giving an index into the grid)."""
        surf = CATALOG[name]()
        chart = surf.default_chart(points)
        spans = generate(surf, chart).frame.copy()
        spans[region(chart)] *= -1.0
        return chart, spans

    @pytest.mark.parametrize("name", ["ellipsoid", "clifford-torus",
                                      "graph-r4"])
    @pytest.mark.parametrize("region", [
        # one node off the center row
        lambda c: (c.center[0] + 3, c.center[1] + 4),
        # a block reached only along the second axis
        lambda c: (slice(2, 9), slice(c.center[1] + 2, c.center[1] + 6)),
        # every face node, so first and last slabs of the runs flip
        lambda c: np.pad(np.zeros(tuple(n - 2 for n in c.shape), bool), 1,
                         constant_values=True),
    ], ids=["node", "block", "faces"])
    def test_partial_flips_match_node_loop(self, name, region):
        # a flipped node repairs the rest of its line, and only a run that
        # held a flip forms its overlaps again
        self._assert_same_frame(*self._flipped_spans(name, 15, region))

    def test_partial_column_swaps_match_node_loop(self):
        surf = CATALOG["graph-r4"]()
        chart = surf.default_chart(21)
        spans = generate(surf, chart).frame
        swap = np.random.default_rng(5).random(chart.shape) < 0.03
        spans = np.where(swap[..., None, None], spans[..., ::-1], spans)
        self._assert_same_frame(chart, spans)

    def test_flips_on_the_last_axis_only_match_node_loop(self):
        # nodes off the center on the last axis lie only in its runs
        def region(c):
            return (slice(None), slice(1, 4), slice(c.center[2] + 1, None, 2))
        self._assert_same_frame(
            *self._flipped_spans("ellipsoid-m3", 9, region))

    @pytest.mark.parametrize("r2", [1.0, 1.4])
    @pytest.mark.parametrize("branch", [1, -1])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_scan_candidates_match_angle_loop(self, r2, branch, theta):
        surf = CliffordTorus(1.0, r2)
        chart = surf.default_chart(25)
        data = generate(surf, chart)
        metric = metric_field(chart, data.g)
        pack = riemann_tensor(metric)
        # a constant rotation of the frame mixes the two operator fields,
        # so the cross products P0 P1 + P1 P0 no longer vanish
        O = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        spans = np.einsum("...nb,ab->...na", data.frame, O)
        forms = third_forms(build_normal_frame(chart, spans))
        _, B, k_ab_op = _rho_and_B(forms, pack.Ric, metric)
        length = np.sqrt(pack.s + np.einsum("ij...,ij...->...", metric.g_inv,
                                            forms.k))
        got = _resolve_full_fixed_space(chart, length, B, k_ab_op, branch)
        want = reference_loops.resolve_full_fixed_space(chart, length, B,
                                                        k_ab_op, branch)
        assert len(got) == len(want) >= 1
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12


class TestLapackAgreement:
    """The gate, the fixed-space solve and the pipeline against the per-node
    LAPACK ``eigvalsh`` / SVD route they replace, on the benchmark's two
    codimension-2 surfaces (the torus with its full fixed space) and on
    hypersurface data."""

    @staticmethod
    def _problem(name):
        surf, n = {"graph-r4": (CATALOG["graph-r4"](), 65),
                   "clifford-torus": (CliffordTorus(1.0, 1.0), 33),
                   "ellipsoid": (CATALOG["ellipsoid"](), 49)}[name]
        return Problem(surf, n)

    @pytest.fixture(scope="class",
                    params=["graph-r4", "clifford-torus", "ellipsoid"])
    def problem(self, request):
        return self._problem(request.param)

    @pytest.fixture(scope="class", params=["graph-r4", "clifford-torus"])
    def codim_problem(self, request):
        return self._problem(request.param)

    def test_gate_matches_per_candidate_eigvalsh(self, problem):
        A, k_ab = problem.frame.A, problem.forms.k_ab
        wc = weingarten_combination(A, k_ab, problem.metric)
        ref = reference_loops.weingarten_combination(A, k_ab, problem.metric)
        assert np.array_equal(wc.w, ref.w)
        assert wc.invertible == ref.invertible
        assert np.array_equal(wc.A, ref.A) and np.array_equal(wc.k, ref.k)
        for got, want in ((wc.min_singular, ref.min_singular),
                          (wc.max_singular, ref.max_singular)):
            assert abs(got - want) <= 1e-14 * want

    def test_singular_values_match_svd(self, codim_problem):
        problem = codim_problem
        rho = _rho_and_B(problem.forms, problem.pack.Ric, problem.metric)[0]
        E = rho.mT - np.eye(2)
        sig, v = _right_singular(E)
        ref_sig, ref_v = reference_loops.right_singular(E)
        assert np.all(np.abs(sig - ref_sig) <= 1e-12 * ref_sig[..., -1:])
        # the smallest one, a residual norm, agrees with the SVD's to
        # rounding of |E| even where it is far below |E|
        assert np.all(np.abs(sig[..., 0] - ref_sig[..., 0])
                      <= 1e-14 * ref_sig[..., -1])
        # the smallest one's vector, where it is defined (the torus' trace
        # matrix is a multiple of the identity at many nodes)
        simple = ref_sig[..., 1] - ref_sig[..., 0] > 1e-3 * ref_sig[..., -1]
        cos = np.abs(np.sum(v * ref_v, axis=-1))
        assert np.all(np.abs(cos[simple] - 1.0) <= 1e-10)

    def test_mean_curvature_matches_lapack_route(self, codim_problem,
                                                 monkeypatch):
        problem = codim_problem
        mc = mean_curvature(problem.forms, problem)
        monkeypatch.setattr(codim, "symmetric_eig",
                            reference_loops.symmetric_eig)
        monkeypatch.setattr(codim, "_right_singular",
                            reference_loops.right_singular)
        ref = mean_curvature(problem.forms, problem)
        assert (mc.status, mc.fixed_dim, mc.notes) == \
            (ref.status, ref.fixed_dim, ref.notes)
        assert abs(mc.unit_eigen_distance - ref.unit_eigen_distance) <= \
            1e-12 * ref.unit_eigen_distance
        assert len(mc.candidates) == len(ref.candidates) >= 1
        for a, b in zip(mc.candidates, ref.candidates):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_pipeline_matches_lapack_route(self, problem, monkeypatch):
        rep = run_pipeline(problem.metric, problem.data.frame)
        for module, name, ref in (
                (codim, "symmetric_eig", reference_loops.symmetric_eig),
                (codim, "_right_singular", reference_loops.right_singular),
                (admissibility, "weingarten_combination",
                 reference_loops.weingarten_combination)):
            monkeypatch.setattr(module, name, ref)
        old = run_pipeline(problem.metric, problem.data.frame)
        assert (rep.verdict, rep.method, rep.failed_step, rep.notes) == \
            (old.verdict, old.method, old.failed_step, old.notes)
        for got, want in ((rep.residuals, old.residuals),
                          (rep.extra, old.extra)):
            assert got.keys() == want.keys()
            for key, value in want.items():
                if math.isnan(value):
                    assert math.isnan(got[key])
                else:
                    assert abs(got[key] - value) <= 1e-10 * abs(value)
