import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogauss.errors import ConfigurationError
from isogauss.grid import (align_signs, build_chart, center_sign, deriv,
                           grad_all, staircase_slabs)
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
        assert np.all(deriv(f, chart, 0) == 0.0)

    def test_linear_ramp_exact(self):
        chart = chart2()
        f = chart.mesh()[..., 0]
        assert np.allclose(deriv(f, chart, 0), 1.0, atol=1e-12)
        assert np.allclose(deriv(f, chart, 1), 0.0, atol=1e-12)

    def test_quadratic_exact_in_interior(self):
        chart = chart2()
        x = chart.mesh()
        d0 = deriv(x[..., 0] ** 2 + x[..., 0] * x[..., 1], chart, 0)
        expect = 2 * chart.mesh()[..., 0] + chart.mesh()[..., 1]
        assert np.allclose(d0[chart.interior], expect[chart.interior], atol=1e-12)

    def test_sin_second_order_convergence(self):
        # expected-value oracle: the analytic cosine on two grid resolutions
        errs = []
        for n in (17, 33):
            chart = build_chart(2, (n, n), (1.0 / (n - 1),) * 2, (0.0, 0.0))
            d = deriv(np.sin(3 * chart.mesh()[..., 0]), chart, 0)
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
            d01 = deriv(deriv(f, chart, 0), chart, 1)
            d10 = deriv(deriv(f, chart, 1), chart, 0)
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
        lhs = deriv(a * f + b * g, chart, 0)
        rhs = a * deriv(f, chart, 0) + b * deriv(g, chart, 0)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestStaircase:
    @pytest.mark.parametrize("shape", [(5, 7), (6, 5, 7)])
    def test_visits_every_node_once_with_valid_predecessor(self, shape):
        chart = build_chart(len(shape), shape, (0.1,) * len(shape))
        index = np.indices(shape)
        covered = np.zeros(shape, dtype=int)
        steps = 0
        for slab, prev in staircase_slabs(chart):
            if prev is None:
                assert steps == 0
                assert covered[slab].size == 1
                assert tuple(int(i[slab].item()) for i in index) == chart.center
            else:
                assert np.all(covered[prev] == 1)
                # every node of the slab is one step from its partner in
                # the previous slab, along the same single axis
                delta = np.abs(index[(slice(None),) + slab]
                               - index[(slice(None),) + prev])
                moved = [a for a in range(len(shape)) if np.any(delta[a])]
                assert len(moved) == 1 and np.all(delta[moved[0]] == 1)
            covered[slab] += 1
            steps += 1
        assert np.all(covered == 1)
        assert steps == sum(shape) - len(shape) + 1

    @pytest.mark.parametrize("shape", [(5, 7), (6, 5, 7)])
    def test_slabs_expand_to_node_staircase(self, shape):
        chart = build_chart(len(shape), shape, (0.1,) * len(shape))
        index = np.indices(shape)
        pairs = set()
        for slab, prev in staircase_slabs(chart):
            if prev is None:
                continue
            nodes = index[(slice(None),) + slab].reshape(len(shape), -1).T
            prevs = index[(slice(None),) + prev].reshape(len(shape), -1).T
            pairs.update((tuple(map(int, a)), tuple(map(int, b)))
                         for a, b in zip(nodes, prevs))
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


def test_grad_all_stacks_derivative_axis_last():
    chart = chart2()
    x = chart.mesh()
    g = grad_all(x[..., 0] + 2 * x[..., 1], chart)
    assert g.shape == chart.shape + (2,)
    assert np.allclose(g[..., 0], 1.0)
    assert np.allclose(g[..., 1], 2.0)


class TestGradAll:
    """``grad_all`` and ``deriv`` are ``np.gradient``'s stencil bit for bit."""

    @pytest.mark.parametrize("shape,index", [((5,), (2,)), ((13,), ()),
                                             ((5, 9), (2, 2, 2)),
                                             ((17, 6), (3,)),
                                             ((7, 5, 6), (3, 3)),
                                             ((5, 5, 5), ())])
    def test_equals_the_gradient_stack(self, shape, index):
        m = len(shape)
        rng = np.random.default_rng(sum(shape))
        chart = build_chart(m, shape, tuple(rng.uniform(0.01, 0.3, m)))
        f = rng.standard_normal(shape + index)
        g = grad_all(f, chart)
        assert g.shape == shape + index + (m,)
        assert np.array_equal(g, reference_loops.gradient_stack(f, chart))
        for a in range(m):
            assert np.array_equal(deriv(f, chart, a), g[..., a])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_non_contiguous_views(self, m):
        shape = (5, 9, 6)[:m]
        rng = np.random.default_rng(m)
        chart = build_chart(m, shape, (0.1, 0.07, 0.2)[:m])
        big = rng.standard_normal(tuple(n + 4 for n in shape) + (3, 2))
        interior = big[(slice(2, -2),) * m + (Ellipsis, 1)]
        for f in (interior, np.asfortranarray(interior),
                  big[(slice(2, -2),) * m].mT):
            assert np.array_equal(grad_all(f, chart),
                                  reference_loops.gradient_stack(f, chart))
