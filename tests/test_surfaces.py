import inspect
import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from isogauss import surfaces
from isogauss.curvature import metric_field, raise_index, riemann_tensor
from isogauss.errors import DomainError, SingularMetricError
from isogauss.grid import build_chart, interior_max
from isogauss.reconstruct import compare_up_to_translation, observed_order
from isogauss.surfaces import (CATALOG, AssociatedFamily, Catenoid,
                               Ellipsoid, Graph, Helicoid, HypersphereM3,
                               Plane, RoundSphere, generate,
                               smooth_rotation_of_gauss_map)

import reference_loops
from layout import cf, gf
from reference_loops import node_norm as trailing_norm

ALL_HYPERSURFACES = [
    (RoundSphere(1.0), 33),
    (Ellipsoid((1.0, 1.5, 2.0)), 33),
    (Catenoid(), 33),
    (Helicoid(), 33),
    (HypersphereM3(1.0), 17),
]


class TestSphereIdentities:
    def test_unit_sphere_fields(self, sphere):
        data = sphere.data
        # stored branch satisfies h = g, k = g, H = m on the unit sphere
        assert np.max(np.abs(data.h - data.g)) < 1e-9
        assert np.max(np.abs(data.k - data.g)) < 1e-12
        assert np.max(np.abs(data.H - 2.0)) < 1e-9
        assert np.max(np.abs(np.linalg.norm(data.nu, axis=-1) - 1.0)) < 1e-12

    def test_tangency(self, sphere):
        ip = np.einsum("...ni,...n->...i", sphere.data.du, sphere.data.nu)
        assert np.max(np.abs(ip)) < 1e-10


class TestPlane:
    def test_flat_fields(self):
        data = generate(Plane(), Plane().default_chart(17))
        assert np.max(np.abs(data.h)) < 1e-12
        assert np.max(np.abs(data.k)) < 1e-12
        assert np.max(np.abs(data.nu - np.array([0, 0, 1.0]))) < 1e-15


class TestMinimalFamily:
    def test_catenoid_is_minimal(self):
        data = generate(Catenoid(), Catenoid().default_chart(33))
        assert np.max(np.abs(data.H)) < 1e-13

    def test_helicoid_is_minimal(self):
        data = generate(Helicoid(), Helicoid().default_chart(33))
        assert np.max(np.abs(data.H)) < 1e-13

    def test_family_shares_metric_and_gauss_map(self):
        chart = Catenoid().default_chart(33)
        cat = generate(Catenoid(), chart)
        hel = generate(Helicoid(), chart)
        assert np.max(np.abs(cat.g - hel.g)) < 1e-10
        assert np.max(np.abs(cat.frame - hel.frame)) < 1e-10

    def test_family_members_not_congruent_up_to_translation(self):
        chart = Catenoid().default_chart(33)
        cat = generate(Catenoid(), chart)
        hel = generate(Helicoid(), chart)
        assert compare_up_to_translation(cat.u, hel.u) > 0.1

    def test_theta_pi_is_antipodal_catenoid(self):
        chart = Catenoid().default_chart(17)
        cat = generate(AssociatedFamily(1.0, 0.0), chart)
        anti = generate(AssociatedFamily(1.0, math.pi), chart)
        assert np.max(np.abs(anti.u + cat.u)) < 1e-12
        assert compare_up_to_translation(anti.u, cat.u) > 0.1

    def test_conformal_metric(self):
        data = generate(Catenoid(), Catenoid().default_chart(17))
        x = data.chart.mesh()
        lam2 = np.cosh(x[..., 0]) ** 2
        assert np.max(np.abs(data.g[..., 0, 0] - lam2)) < 1e-10
        assert np.max(np.abs(data.g[..., 0, 1])) < 1e-10


class TestOracleSelfConsistency:
    @pytest.mark.parametrize("surf,n", ALL_HYPERSURFACES,
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_hsquared_and_trace_identities(self, surf, n):
        data = generate(surf, surf.default_chart(n))
        metric = metric_field(data.chart, data.g)
        hop = gf(raise_index(metric, cf(data.h, 2)), 2)
        kop = gf(raise_index(metric, cf(data.k, 2)), 2)
        # h^2 = k as operators (forward direction)
        scale = 1.0 + np.max(trailing_norm(kop, 2))
        res = np.max(trailing_norm(np.einsum("...ik,...kj->...ij", hop, hop) - kop, 2))
        assert res / scale < 1e-8

    @pytest.mark.parametrize("surf,n", ALL_HYPERSURFACES,
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_ric_and_scalar_identities(self, surf, n):
        data = generate(surf, surf.default_chart(n))
        metric = metric_field(data.chart, data.g)
        pack = riemann_tensor(metric)
        chart = data.chart
        tol = 50 * chart.max_spacing ** 2
        # Ric = h H - k
        expect = data.h * data.H[..., None, None] - data.k
        scale = 1.0 + float(np.max(trailing_norm(expect, 2)))
        assert interior_max(chart, trailing_norm(gf(pack.Ric, 2) - expect, 2)) / scale < tol
        # s = H^2 - Tr k
        tr_k = np.einsum("ij...,...ij->...", metric.g_inv, data.k)
        expect_s = data.H ** 2 - tr_k
        scale_s = 1.0 + float(np.max(np.abs(expect_s)))
        assert interior_max(chart, np.abs(pack.s - expect_s)) / scale_s < tol

    def test_clifford_trace_identity(self, clifford):
        # sum_a H^a h^a = Ric + k on the flat torus
        data, pack = clifford.data, clifford.pack
        lhs = np.einsum("...a,...aij->...ij", data.H_alpha, data.h_alpha)
        rhs = gf(pack.Ric, 2) + data.k
        assert interior_max(clifford.chart, trailing_norm(lhs - rhs, 2)) < \
            50 * clifford.dx2


def catalog_chart(surf):
    return surf.default_chart(17 if surf.m == 2 else 9)


class TestWeingartenOracle:
    """``h^a_ij = -<d_i u, d_j nu^a>`` from complex-step first derivatives."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_h_matches_second_derivative_reference(self, name):
        surf = CATALOG[name]()
        data = generate(surf, catalog_chart(surf))
        x = data.chart.mesh()
        grid_first = reference_loops.GridFirst(surf)
        point = np.real(grid_first.point(x))
        u2 = reference_loops.second_derivatives(grid_first.point, x)
        ref = np.einsum("...na,...nij->...aij",
                        np.real(grid_first.frame(x, point)), u2)
        if np.array_equal(data.u, -point):      # the stored branch
            ref = -ref
        assert np.max(trailing_norm(data.h_alpha - ref, 3)) <= \
            1e-9 * np.max(trailing_norm(ref, 3))

    @pytest.mark.parametrize("surf", [RoundSphere(2.0), HypersphereM3(2.0)],
                             ids=lambda v: v.name)
    def test_sphere_h_is_g_over_radius(self, surf):
        data = generate(surf, catalog_chart(surf))
        assert np.max(np.abs(np.abs(data.h) - np.abs(data.g) / 2.0)) < 1e-13

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_frame_is_the_normal_of_point(self, name):
        # du^T frame = 0, and -du^T dframe is symmetric before the
        # symmetrization in generate: a frame that is not the normal of
        # its point fails one of the two
        surf = CATALOG[name]()
        chart = catalog_chart(surf)
        _, du, frame, dframe = surfaces._cstep_sample(surf,
                                                      cf(chart.mesh(), 1))
        d, m = frame.shape[-1], chart.m
        assert np.max(np.abs(du.mT @ frame)) <= 1e-13 * np.max(np.abs(du))
        w = -(du.mT @ dframe.reshape(chart.shape + (-1, d * m))).reshape(
            chart.shape + (m, d, m))
        asym = w - np.swapaxes(w, -1, -3)
        assert np.max(np.abs(asym)) <= 1e-13 * np.max(np.abs(w))


class TestComponentsFirstSampling:
    """The catalog evaluates components first; the oracle it feeds stays
    grid first and equals the grid-first sampler bit for bit."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_point_and_frame_shapes(self, name):
        surf = CATALOG[name]()
        # unequal axes, so that a swapped axis shows
        chart = build_chart(surf.m, (5, 6, 7)[:surf.m], (0.05,) * surf.m,
                            surf.window[0])
        x = cf(chart.mesh(), 1)
        for xs in (x, x.astype(complex)):
            u = surf.point(xs)
            frame = surf.frame(xs, u)
            assert u.shape == (surf.n,) + chart.shape
            assert frame.shape == (surf.n, surf.codim) + chart.shape
            assert u.dtype == frame.dtype == xs.dtype

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_generate_is_the_grid_first_reference(self, name):
        surf = CATALOG[name]()
        for points in ((17, 18) if surf.m == 2 else (9, 10)):
            chart = surf.default_chart(points)
            data = generate(surf, chart)
            ref = reference_loops.generate_grid_first(surf, chart)
            for key, want in ref.items():
                got = getattr(data, key)
                if isinstance(want, np.ndarray):
                    assert got.shape == want.shape, key
                    assert np.array_equal(got, want), key
                else:
                    assert got == want, key

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [3, 4])
    def test_dot_adds_as_a_trailing_axis_sum(self, n, dtype):
        # the frames keep the bits of np.sum along a contiguous trailing axis
        rng = np.random.default_rng(n)

        def field():
            a = rng.standard_normal((n, 60, 50)) * np.exp(
                8 * rng.standard_normal((n, 60, 50)))
            return a + 1j * rng.standard_normal(a.shape) if dtype is complex \
                else a

        a, b = field(), field()
        grid_first = [np.ascontiguousarray(np.moveaxis(v, 0, -1))
                      for v in (a, b)]
        want = np.sum(grid_first[0] * grid_first[1], axis=-1)
        assert np.array_equal(surfaces._dot(a, b), want)

    def test_generate_traced_peak(self):
        # 30.81 MiB traced at 257^2 when generate sampled grid first and
        # formed k_ab and k eagerly; the components-first sampler stays
        # under it
        surf = Ellipsoid()
        chart = surf.default_chart(257)
        tracemalloc.start()
        try:
            generate(surf, chart)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30.81 * 2 ** 20


class TestGaussCodazziResiduals:
    @pytest.mark.parametrize("surf", [RoundSphere(1.0), Ellipsoid((1.0, 1.5, 2.0)),
                                      Catenoid()],
                             ids=lambda v: v.name)
    def test_small_and_converging(self, surf):
        results = []
        for lvl, n in enumerate((25, 49)):
            data = generate(surf, surf.default_chart(n))
            metric = metric_field(data.chart, data.g)
            pack = riemann_tensor(metric)
            results.append(reference_loops.gauss_codazzi_residuals(
                data, pack, metric))
        (g0, c0), (g1, c1) = results
        assert g1 < 50 * (1.2 / 48) ** 2 and c1 < 50 * (1.2 / 48) ** 2
        assert observed_order(g0, g1) >= 1.5
        # symmetric h in these coordinates can make the discrete Codazzi
        # defect vanish identically; the order is only visible above roundoff
        if c0 > 1e-9:
            assert observed_order(c0, c1) >= 1.5

    def test_plane_residuals_vanish(self):
        data = generate(Plane(), Plane().default_chart(17))
        metric = metric_field(data.chart, data.g)
        pack = riemann_tensor(metric)
        gauss, codazzi = reference_loops.gauss_codazzi_residuals(data, pack,
                                                                 metric)
        assert gauss < 1e-12 and codazzi < 1e-12

    def test_codazzi_linear_response_to_fabricated_h(self, ellipsoid):
        # a non-Codazzi perturbation of size eps moves the residual by ~eps
        codazzi_residual = reference_loops.codazzi_residual
        eps = 1e-3
        x = ellipsoid.chart.mesh()
        bump = eps * np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1])
        h_bad = ellipsoid.data.h.copy()
        h_bad[..., 0, 0] += bump
        base = codazzi_residual(cf(ellipsoid.data.h, 2), ellipsoid.pack.Gamma,
                                ellipsoid.metric)
        pert = codazzi_residual(cf(h_bad, 2), ellipsoid.pack.Gamma,
                                ellipsoid.metric)
        assert pert - base > 0.1 * eps
        assert pert - base < 50 * eps


class TestWindows:
    def test_sphere_chart_must_avoid_poles(self):
        surf = RoundSphere(1.0)
        from isogauss.grid import build_chart
        bad = build_chart(2, (9, 9), (0.5, 0.2), (-0.5, 0.0))
        with pytest.raises(DomainError):
            generate(surf, bad)

    def test_wrong_dimension_rejected(self):
        surf = HypersphereM3(1.0)
        with pytest.raises(DomainError):
            generate(surf, RoundSphere(1.0).default_chart(9))

    def test_chart_that_is_not_immersed_rejected(self):
        # d_2 u = 3 x_2^2 vanishes on the chart's middle row, x_2 = 0
        @dataclass(frozen=True)
        class Cusp(Plane):
            name = "cusp"

            def point(self, x):
                return np.stack([x[0], x[1] ** 3, np.zeros_like(x[0])])

        with pytest.raises(SingularMetricError, match="not immersed"):
            generate(Cusp(), Cusp().default_chart(9))


class TestDeclaredData:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_a_surface_defines_only_point_and_frame(self, name):
        cls = type(CATALOG[name]())
        # dataclass-generated methods are compiled from strings
        own = {key for key, value in vars(cls).items()
               if isinstance(value, property) or (
                   inspect.isfunction(value)
                   and value.__code__.co_filename == surfaces.__file__)}
        assert own == {"point", "frame"} | (
            {"name"} if cls is AssociatedFamily else set())
        assert 1 <= cls.m < cls.n and len(cls.window[0]) == len(cls.window[1]) \
            == cls.m
        assert set(cls.polar_axes) <= set(range(cls.m))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_default_chart_spans_the_window(self, name):
        surf = CATALOG[name]()
        chart = surf.default_chart(5)
        origin, extent = surf.window
        assert chart.shape == (5,) * surf.m and chart.origin == origin
        assert np.allclose([4 * dx for dx in chart.spacing], extent)
        surf.validate_window(chart)

    @pytest.mark.parametrize("name", ["round-sphere", "hypersphere-m3"])
    def test_every_polar_axis_is_guarded(self, name):
        surf = CATALOG[name]()
        for a in surf.polar_axes:
            chart = surf.default_chart(5)
            origin = list(chart.origin)
            origin[a] = 0.01
            with pytest.raises(DomainError, match=f"axis {a} range"):
                surf.validate_window(replace(chart, origin=tuple(origin)))


@pytest.mark.parametrize("name,kwargs", [
    ("round-sphere", {"radius": 0.0}), ("cylinder", {"radius": math.nan}),
    ("hypersphere-m3", {"radius": 0.0}), ("ellipsoid", {"axes": (1.0, 2.0)}),
    ("ellipsoid", {"axes": (1.0, 0.0, 2.0)}),
    ("ellipsoid-m3", {"axes": (1.0, 1.0, 1.0)}),
    ("graph", {"coeffs": (1.0, math.inf, 0.0)}),
    ("graph-r4", {"coeffs": (1.0, 2.0)}), ("catenoid", {"scale": 0.0}),
    ("associated-family", {"theta": math.nan}),
    ("clifford-torus", {"r1": 0.0}), ("clifford-torus", {"r2": 0.0}),
])
def test_malformed_parameters_rejected(name, kwargs):
    with pytest.raises(DomainError):
        CATALOG[name](**kwargs)


def test_zero_coefficients_and_negative_lengths_allowed():
    assert Graph((0.0, 0.0, 0.0)).coeffs == (0.0, 0.0, 0.0)
    assert RoundSphere(-1.0).radius == -1.0


def assert_same_oracle(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.flags.c_contiguous and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


class TestRestriction:
    """Generation is pointwise and a refined chart holds the coarse node
    coordinates bit for bit, so a restricted oracle is a coarse one."""

    @pytest.mark.parametrize("refinements", [1, 2])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_restricted_oracle_is_the_coarse_oracle(self, name, refinements):
        surf = CATALOG[name]()
        # an even node count moves the center node under refinement
        for points in ((9, 10) if surf.m == 2 else (5, 6)):
            chart = surf.default_chart(points)
            fine = generate(surf, chart.refine(2 ** refinements))
            assert_same_oracle(fine.restrict(chart), generate(surf, chart))

    def test_branch_is_chosen_again_at_the_coarse_center(self):
        # a saddle whose mean curvature is negative at the fine center and
        # vanishes at the coarse one, where the branch rule keeps +1
        surf = Graph((1.0, 0.0, -1.0))
        chart = build_chart(2, (6, 6), (0.2, 0.4), (-0.3, -0.9))
        fine = generate(surf, chart.refine())
        coarse = generate(surf, chart)
        assert (fine.branch, coarse.branch) == (-1, 1)
        assert_same_oracle(fine.restrict(chart), coarse)

    def test_restriction_keeps_an_equal_chart_and_needs_shared_nodes(self):
        surf = Ellipsoid()
        data = generate(surf, surf.default_chart(9))
        assert data.restrict(surf.default_chart(9)) is data
        for chart in (surf.default_chart(17), surf.default_chart(6),
                      replace(surf.default_chart(5), origin=(0.7, 0.3))):
            with pytest.raises(DomainError):
                data.restrict(chart)

    @pytest.mark.parametrize("name", ["ellipsoid", "catenoid",
                                      "hypersphere-m3"])
    def test_gauss_map_rotation_commutes_with_restriction(self, name):
        surf = CATALOG[name]()
        chart = surf.default_chart(9 if surf.m == 2 else 5)
        fine = generate(surf, chart.refine().refine())
        every = tuple(slice(None, None, 4) for _ in range(surf.m))
        rotated = smooth_rotation_of_gauss_map(fine.nu, fine.chart, 1e-2,
                                               seed=3)[every]
        assert np.array_equal(rotated, smooth_rotation_of_gauss_map(
            generate(surf, chart).nu, chart, 1e-2, seed=3))


@pytest.mark.parametrize("name", ["ellipsoid", "round-sphere", "ellipsoid-m3"])
def test_generate_evaluates_point_and_frame_once_per_direction(name):
    # the value and each complex-step direction run point once and hand it
    # to frame: m + 1 evaluations of each
    calls = Counter()

    @dataclass(frozen=True)
    class Counting(type(CATALOG[name]())):
        def point(self, x):
            calls["point"] += 1
            return super().point(x)

        def frame(self, x, u):
            calls["frame"] += 1
            return super().frame(x, u)

    surf = Counting()
    generate(surf, surf.default_chart(9 if surf.m == 2 else 5))
    assert calls == {"point": surf.m + 1, "frame": surf.m + 1}


class TestPerturbation:
    def test_rotation_keeps_unit_norm_but_changes_field(self, ellipsoid):
        nu = ellipsoid.data.frame[..., 0]
        out = smooth_rotation_of_gauss_map(nu, ellipsoid.chart, 1e-2, seed=4)
        assert np.max(np.abs(np.linalg.norm(out, axis=-1) - 1.0)) < 1e-12
        diff = np.max(np.linalg.norm(out - nu, axis=-1))
        assert 1e-4 < diff < 5e-2
