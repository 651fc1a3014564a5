import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogauss.errors import ConfigurationError
from isogauss.grid import (align_signs, build_chart, center_sign,
                           check_mesh_size, grad_all, staircase_runs)
from isogauss.reconstruct import observed_order

import reference_loops


def chart2(n=17, dx=0.05):
    return build_chart(2, (n, n), (dx, dx), (0.0, 0.0))


class TestBuildChart:
    def test_valid_2d(self):
        chart = build_chart(2, (8, 8), (0.1, 0.1), (0.0, 0.0))
        assert chart.num_points == 64
        assert chart.m == 2

    def test_valid_3d(self):
        chart = build_chart(3, (16, 16, 16), (0.05,) * 3, (-0.4,) * 3)
        assert chart.num_points == 16 ** 3

    def test_too_small_grid(self):
        with pytest.raises(ConfigurationError):
            build_chart(2, (3, 8), (0.1, 0.1), (0.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_chart(3, (8, 8), (0.1, 0.1), (0.0, 0.0))

    def test_nonpositive_spacing(self):
        with pytest.raises(ConfigurationError):
            build_chart(2, (8, 8), (0.1, -0.1), (0.0, 0.0))

    @pytest.mark.parametrize("spacing", [(1e200, 0.1), (0.1, 1e300)])
    def test_spacing_whose_square_overflows(self, spacing):
        # the thresholds C * dx^2 must stay finite
        with pytest.raises(ConfigurationError):
            build_chart(2, (8, 8), spacing, (0.0, 0.0))

    def test_node_coordinates_must_be_addressable(self):
        # checked on the shape alone, before any coordinate is allocated;
        # the chart itself may be larger, so that a dataset header can still
        # be checked against its row count
        largest = np.iinfo(np.intp).max // 8
        check_mesh_size((largest,))
        for shape in ((largest + 1,), (2 ** 31, 2 ** 31)):
            with pytest.raises(ConfigurationError, match="grid too large"):
                check_mesh_size(shape)
        huge = build_chart(2, (2 ** 31, 2 ** 31), (0.1, 0.1))
        for method in (huge.axes, huge.mesh, huge.refine):
            with pytest.raises(ConfigurationError, match="grid too large"):
                method()
        # refused before the spacing divides by a factor no float holds
        with pytest.raises(ConfigurationError, match="grid too large"):
            build_chart(2, (9, 9), (0.1, 0.1)).refine(2 ** 2000)

    def test_refine_keeps_box(self):
        chart = build_chart(2, (9, 13), (0.1, 0.05), (1.0, -1.0))
        fine = chart.refine()
        assert fine.shape == (17, 25)
        for a in range(2):
            assert fine.spacing[a] * (fine.shape[a] - 1) == pytest.approx(
                chart.spacing[a] * (chart.shape[a] - 1))


class TestDerivative:
    def test_constant_is_exactly_zero(self):
        chart = chart2()
        f = np.full(chart.shape, 3.7)
        assert np.all(grad_all(f, chart)[0] == 0.0)

    def test_linear_ramp_exact(self):
        chart = chart2()
        f = chart.mesh()[..., 0]
        assert np.allclose(grad_all(f, chart)[0], 1.0, atol=1e-12)
        assert np.allclose(grad_all(f, chart)[1], 0.0, atol=1e-12)

    def test_quadratic_exact_in_interior(self):
        chart = chart2()
        x = chart.mesh()
        d0 = grad_all(x[..., 0] ** 2 + x[..., 0] * x[..., 1], chart)[0]
        expect = 2 * chart.mesh()[..., 0] + chart.mesh()[..., 1]
        assert np.allclose(d0[chart.interior], expect[chart.interior], atol=1e-12)

    def test_sin_second_order_convergence(self):
        # expected-value oracle: the analytic cosine on two grid resolutions
        errs = []
        for n in (17, 33):
            chart = build_chart(2, (n, n), (1.0 / (n - 1),) * 2, (0.0, 0.0))
            d = grad_all(np.sin(3 * chart.mesh()[..., 0]), chart)[0]
            errs.append(np.max(np.abs(d - 3 * np.cos(3 * chart.mesh()[..., 0]))))
        assert observed_order(*errs) >= 1.9

    def test_mixed_partials_commute_and_converge(self):
        # stencils along distinct axes commute exactly; agreement with the
        # analytic mixed derivative improves at 2nd order
        errs = []
        for n in (17, 33):
            chart = build_chart(2, (n, n), (1.0 / (n - 1),) * 2, (0.0, 0.0))
            x = chart.mesh()
            f = np.sin(2 * x[..., 0]) * np.cos(x[..., 1])
            d01 = grad_all(grad_all(f, chart)[0], chart)[1]
            d10 = grad_all(grad_all(f, chart)[1], chart)[0]
            assert np.max(np.abs(d01 - d10)) < 1e-11
            exact = -2 * np.cos(2 * x[..., 0]) * np.sin(x[..., 1])
            errs.append(np.max(np.abs((d01 - exact)[chart.interior])))
        assert observed_order(*errs) >= 1.5

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        chart = build_chart(2, (9, 9), (0.1, 0.1), (0.0, 0.0))
        rng = np.random.default_rng(0)
        f = rng.standard_normal(chart.shape)
        g = rng.standard_normal(chart.shape)
        lhs = grad_all(a * f + b * g, chart)[0]
        rhs = a * grad_all(f, chart)[0] + b * grad_all(g, chart)[0]
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestStaircase:
    @staticmethod
    def run_pairs(chart):
        """(node, previous node) of every run, in walk order."""
        index = np.indices(chart.shape)
        for a, run, prev in staircase_runs(chart):
            nodes, prevs = (np.moveaxis(index[(slice(None),) + s], a + 1, 1)
                            .reshape(chart.m, -1).T for s in (run, prev))
            yield a, [(tuple(map(int, x)), tuple(map(int, y)))
                      for x, y in zip(nodes, prevs)]

    @pytest.mark.parametrize("shape", [(5, 7), (6, 5, 7)])
    def test_visits_every_node_once_with_valid_predecessor(self, shape):
        chart = build_chart(len(shape), shape, (0.1,) * len(shape))
        covered = np.zeros(shape, dtype=int)
        covered[chart.center] = 1
        runs = 0
        for a, pairs in self.run_pairs(chart):
            # walked out from the center, so each previous node is the
            # center, in an earlier run or earlier in this one
            for node, prev in pairs:
                assert covered[prev] == 1
                delta = [abs(i - j) for i, j in zip(node, prev)]
                assert delta == [int(t == a) for t in range(len(shape))]
                covered[node] += 1
            runs += 1
        assert np.all(covered == 1)
        assert runs == 2 * len(shape)

    @pytest.mark.parametrize("shape", [(5, 7), (6, 5, 7)])
    def test_runs_expand_to_node_staircase(self, shape):
        chart = build_chart(len(shape), shape, (0.1,) * len(shape))
        pairs = {pair for _, run in self.run_pairs(chart) for pair in run}
        reference = {(idx, prev) for idx, prev
                     in reference_loops.staircase_orders(chart) if prev is not None}
        assert pairs == reference

    def test_align_signs_recovers_global_consistency(self):
        chart = build_chart(2, (15, 15), (0.05, 0.05))
        x = chart.mesh()
        base = np.stack([np.sin(x[..., 0] + 1) + 1.5, np.cos(x[..., 1])], axis=-1)
        rng = np.random.default_rng(3)
        flips = rng.choice([-1.0, 1.0], size=chart.shape)
        aligned = base * flips[..., None] * \
            align_signs(chart, base * flips[..., None])[..., None]
        dots = np.einsum("...n,...n->...", aligned, base)
        assert np.all(dots > 0) or np.all(dots < 0)

    @pytest.mark.parametrize("shape", [(15, 12), (9, 8, 7)])
    def test_align_signs_matches_node_loop(self, shape):
        chart = build_chart(len(shape), shape, (0.05,) * len(shape))
        x = chart.mesh()
        base = np.stack([np.sin(x[..., 0] + 1) + 1.5, np.cos(x[..., -1]),
                         x[..., 0] * x[..., -1]], axis=-1)
        rng = np.random.default_rng(len(shape))
        for _ in range(3):
            flips = rng.choice([-1.0, 1.0], size=chart.shape)
            vectors = base * flips[..., None]
            assert np.array_equal(align_signs(chart, vectors),
                                  reference_loops.align_signs(chart, vectors))
        # a zero dot product keeps +1 in both
        zero = np.zeros(chart.shape + (3,))
        assert np.array_equal(align_signs(chart, zero), np.ones(chart.shape))

    @pytest.mark.parametrize("shape", [(15, 12), (9, 8, 7)])
    def test_align_signs_restarts_at_planted_ties(self, shape):
        # exact-zero dot products inside flipped regions: the node after a
        # tie takes +1 whatever its neighbor's sign, and the walk goes on
        # from there; a NaN dot product fails ">= 0" and restarts at -1
        chart = build_chart(len(shape), shape, (0.05,) * len(shape))
        rng = np.random.default_rng(7)
        base = np.array([1.0, -2.0, 0.5])
        for _ in range(3):
            flips = np.where(chart.mesh()[..., 0] > 0.15, -1.0, 1.0)
            flips[rng.random(shape) < 0.2] *= -1.0
            vectors = base * flips[..., None]
            vectors[rng.random(shape) < 0.1] = 0.0
            vectors[rng.random(shape) < 0.02] = np.nan
            sign = align_signs(chart, vectors)
            assert np.array_equal(sign, reference_loops.align_signs(chart, vectors))
            # some tie follows a node of sign -1, so a walk that carried
            # the sign across it would differ
            assert any(sign[prev] < 0 and sign[idx] > 0
                       and np.dot(vectors[idx], vectors[prev]) == 0
                       for idx, prev in reference_loops.staircase_orders(chart)
                       if prev is not None)


class TestCenterSign:
    def test_first_component_above_the_relative_floor_decides(self):
        chart = chart2(5)
        v = np.zeros(chart.shape + (3,))
        v[2, 2] = [0.0, -0.5, 2.0]
        assert center_sign(chart, v) == -1
        v[2, 2, 0] = 1e-9            # below 1e-8 * max(1, max|v|): skipped
        assert center_sign(chart, v) == -1
        v[0, 0, 0] = 1e3             # the floor scales with the largest value
        v[2, 2, 0] = 1e-6
        assert center_sign(chart, v) == -1
        v[2, 2, 0] = 1e-4
        assert center_sign(chart, v) == 1

    def test_zero_center_keeps_plus(self):
        chart = chart2(5)
        v = np.zeros(chart.shape + (2, 2))
        v[1, 1] = -1.0
        assert center_sign(chart, v) == 1


def test_grad_all_puts_the_derivative_axis_before_the_grid():
    chart = chart2()
    x = chart.mesh()
    g = grad_all(x[..., 0] + 2 * x[..., 1], chart)
    assert g.shape == (2,) + chart.shape
    assert np.allclose(g[0], 1.0)
    assert np.allclose(g[1], 2.0)


def _grid_first(g, k):
    """A grid-first view of a field with ``k`` leading component axes."""
    return np.moveaxis(g, range(k), range(-k, 0))


class TestGradAll:
    """``grad_all`` is ``np.gradient``'s stencil bit for bit."""

    @pytest.mark.parametrize("shape,index", [((5,), (2,)), ((13,), ()),
                                             ((5, 9), (2, 2, 2)),
                                             ((17, 6), (3,)),
                                             ((7, 5, 6), (3, 3)),
                                             ((5, 5, 5), ())])
    def test_equals_the_gradient_stack(self, shape, index):
        m, k = len(shape), len(index)
        rng = np.random.default_rng(sum(shape))
        chart = build_chart(m, shape, tuple(rng.uniform(0.01, 0.3, m)))
        f = rng.standard_normal(index + shape)
        g = grad_all(f, chart)
        assert g.shape == index + (m,) + shape
        assert np.array_equal(_grid_first(g, k + 1),
                              reference_loops.gradient_stack(
                                  _grid_first(f, k), chart))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_non_contiguous_views(self, m):
        shape = (5, 9, 6)[:m]
        rng = np.random.default_rng(m)
        chart = build_chart(m, shape, (0.1, 0.07, 0.2)[:m])
        big = rng.standard_normal((3, 2) + tuple(n + 4 for n in shape))
        inner = big[(Ellipsis,) + (slice(2, -2),) * m]
        interior = inner[:, 1]
        for f in (interior, np.asfortranarray(interior), inner.swapaxes(0, 1)):
            k = f.ndim - m
            assert np.array_equal(_grid_first(grad_all(f, chart), k + 1),
                                  reference_loops.gradient_stack(
                                      _grid_first(f, k), chart))
