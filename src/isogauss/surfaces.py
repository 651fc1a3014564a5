"""Closed-form immersion catalog and the forward ground-truth generator.

Every derived expectation in the test suite comes from here: a surface is
sampled analytically and differentiated once, by complex step, in both its
immersion ``u`` and its normal frame ``nu``; the step leaves no truncation
error, so the derivatives are exact to rounding.  No second derivative is
taken: the second fundamental forms come from the Weingarten identity
``h^a_ij = -<d_i u, d_j nu^a>`` (differentiate ``<d_i u, nu^a> = 0``), and
the third forms from the tangential part of ``d nu``.  Nothing in this
module uses the grid stencils that the rest of the package is built on.

A catalog surface is declared data plus two functions.  The class data is
``name``, the dimensions ``m`` and ``n``, the default chart ``window`` as
``(origin, extent)`` and the ``polar_axes`` whose polar angle must stay off
the poles; the dataclass fields are the surface's parameters, and
``CATALOG`` maps each name to its factory, whose keywords are the
parameters the command line offers.  A subclass defines only ``point(x)``
(the immersion) and ``frame(x, u)`` (its orthonormal normal frame, handed
the point ``u = point(x)`` so that a frame built from the point does not
evaluate it again), both complex-safe; :meth:`Surface.default_chart` and
:meth:`Surface.validate_window` read the data.

Both functions work components first, as the pipeline does: ``x`` is
``(m, *grid)``, so ``x[i]`` is one contiguous array over the nodes, and
the components are written along axis 0, ``point`` returning
``(n, *grid)`` and ``frame`` ``(n, d, *grid)``.  :func:`generate` writes
what it samples straight into the grid-first :class:`OracleData` fields;
the third forms ``k_ab`` and ``k`` are formed from the stored frame
derivative only when they are read.

Orientation conventions: normals follow the stated geometric convention per
surface (outward for closed surfaces, upward for graphs).  The stored
immersion branch is flipped, when necessary, so that the mean curvature
vector passes :func:`isogauss.grid.center_sign` at the chart center -- the
sign freedom of the problem makes ``-u`` a solution whenever ``u`` is, and
the admissibility pipeline selects its branch by the same rule.  Minimal
surfaces (mean curvature zero) are stored as parametrized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .curvature import cholesky_factors, components_first, grid_first
from .errors import DomainError, SingularMetricError
from .grid import Chart, build_chart, center_sign, check_shape

_CSTEP = 1e-100
_POLAR_MARGIN = 0.05    # closest a polar angle may come to a pole


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i a_i b_i`` over axis 0, complex-safe (no conjugate).  Four
    complex terms add as ``(0 + 1) + (2 + 3)``, the order ``np.sum`` takes
    along a contiguous trailing axis, so that a frame has the bits it has in
    the grid-first layout; other sums add in index order, as it does."""
    p = a * b
    if len(p) == 4 and np.iscomplexobj(p):
        return (p[0] + p[1]) + (p[2] + p[3])
    return np.sum(p, axis=0)


def _unit(v: np.ndarray) -> np.ndarray:
    # complex-safe normalization (sum of squares, not |.|^2)
    return v / np.sqrt(_dot(v, v))


@dataclass(frozen=True)
class Surface:
    """Base class: a parametrized piece of a submanifold of R^n."""

    name = "surface"
    m: ClassVar[int]
    n: ClassVar[int]
    window: ClassVar[tuple[tuple[float, ...], tuple[float, ...]]]
    polar_axes: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self):
        """Reject malformed parameters: a tuple holds as many values as its
        default, every value is finite, and lengths (all parameters but
        ``coeffs`` and ``theta``) are nonzero."""
        for f in fields(self):
            value = getattr(self, f.name)
            size = len(f.default) if isinstance(f.default, tuple) else None
            values = (value,) if size is None else tuple(value)
            if size is not None and len(values) != size:
                raise DomainError(f"{self.name}: {f.name} needs {size} "
                                  f"values, got {len(values)}")
            length = f.name not in ("coeffs", "theta")
            if not all(math.isfinite(v) and (v != 0.0 or not length)
                       for v in values):
                kind = "finite and nonzero" if length else "finite"
                raise DomainError(f"{self.name}: {f.name} must be {kind}, "
                                  f"got {value}")

    @property
    def codim(self) -> int:
        return self.n - self.m

    def point(self, x: np.ndarray) -> np.ndarray:
        """Immersion value ``(n, *grid)`` at the chart coordinates ``x``,
        given components first as ``(m, *grid)`` (complex-safe)."""
        raise NotImplementedError

    def frame(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Orthonormal normal frame ``(n, n-m, *grid)`` at ``x``, where the
        immersion takes the value ``u = point(x)`` (complex-safe)."""
        raise NotImplementedError

    def default_chart(self, shape) -> Chart:
        """``shape`` nodes (an int means the same count on every axis)
        spanning the declared ``window``."""
        if isinstance(shape, int):
            shape = (shape,) * self.m
        # the spacing divides by shape - 1: the shape is checked first
        check_shape(shape)
        origin, extent = self.window
        spacing = tuple(extent[i] / (shape[i] - 1) for i in range(self.m))
        return build_chart(self.m, shape, spacing, origin)

    def validate_window(self, chart: Chart) -> None:
        """Raise DomainError if a polar angle axis of the chart reaches a
        pole, where the chart degenerates."""
        lo, hi = _POLAR_MARGIN, math.pi - _POLAR_MARGIN
        for a in self.polar_axes:
            start = chart.origin[a]
            stop = chart.origin[a] + chart.spacing[a] * (chart.shape[a] - 1)
            if start <= lo or stop >= hi:
                raise DomainError(
                    f"{self.name}: axis {a} range [{start:.3f}, {stop:.3f}] "
                    f"leaves the validity window ({lo:.3f}, {hi:.3f})")


@dataclass(frozen=True)
class Plane(Surface):
    name = "plane"
    m, n = 2, 3
    window = (-0.5, -0.5), (1.0, 1.0)

    def point(self, x):
        return np.stack([x[0], x[1], np.zeros_like(x[0])])

    def frame(self, x, u):
        nu = np.zeros((3, 1) + x.shape[1:], dtype=x.dtype)
        nu[2] = 1.0
        return nu


@dataclass(frozen=True)
class RoundSphere(Surface):
    """Unit-speed colatitude/longitude chart of a round 2-sphere."""

    name = "round-sphere"
    m, n = 2, 3
    window = (0.65, 0.3), (0.9, 1.2)
    polar_axes = (0,)
    radius: float = 1.0

    def point(self, x):
        th, ph = x
        s = np.sin(th)
        return self.radius * np.stack([s * np.cos(ph), s * np.sin(ph),
                                       np.cos(th)])

    def frame(self, x, u):
        return (u / self.radius)[:, None]   # outward


@dataclass(frozen=True)
class Ellipsoid(Surface):
    name = "ellipsoid"
    m, n = 2, 3
    window = (0.65, 0.3), (0.9, 1.2)
    polar_axes = (0,)
    axes: tuple[float, float, float] = (1.0, 1.5, 2.0)

    def point(self, x):
        th, ph = x
        a, b, c = self.axes
        s = np.sin(th)
        return np.stack([a * s * np.cos(ph), b * s * np.sin(ph),
                         c * np.cos(th)])

    def frame(self, x, u):
        a, b, c = self.axes
        w = np.stack([u[0] / a**2, u[1] / b**2, u[2] / c**2])
        return _unit(w)[:, None]   # outward


@dataclass(frozen=True)
class Graph(Surface):
    """Graph z = cxx x^2 + cxy x y + cyy y^2 over the plane, upward normal."""

    name = "graph"
    m, n = 2, 3
    window = (-0.55, -0.45), (1.0, 1.0)
    coeffs: tuple[float, float, float] = (1.0, 0.0, 2.0)

    def point(self, x):
        cxx, cxy, cyy = self.coeffs
        p, q = x
        return np.stack([p, q, cxx * p * p + cxy * p * q + cyy * q * q])

    def frame(self, x, u):
        cxx, cxy, cyy = self.coeffs
        p, q = x
        fx = 2 * cxx * p + cxy * q
        fy = cxy * p + 2 * cyy * q
        return _unit(np.stack([-fx, -fy, np.ones_like(p)]))[:, None]


@dataclass(frozen=True)
class Cylinder(Surface):
    """Circular cylinder; its Gauss map kills the axis direction."""

    name = "cylinder"
    m, n = 2, 3
    window = (0.2, -0.5), (1.2, 1.2)
    radius: float = 1.0

    def point(self, x):
        th, z = x
        r = self.radius
        return np.stack([r * np.cos(th), r * np.sin(th), z])

    def frame(self, x, u):
        th = x[0]
        return np.stack([np.cos(th), np.sin(th), np.zeros_like(th)])[:, None]


@dataclass(frozen=True)
class AssociatedFamily(Surface):
    """Associated family of the catenoid in conformal coordinates.

    theta = 0 is the catenoid, theta = pi/2 the helicoid; every member shares
    the first fundamental form and the Gauss map of the catenoid.  The
    default is the member theta = pi/4, between the two; :func:`Catenoid`
    and :func:`Helicoid` give theta = 0 and pi/2.
    """

    m, n = 2, 3
    window = (-0.85, 0.25), (1.8, 1.2)
    scale: float = 1.0
    theta: float = math.pi / 4

    @property
    def name(self):
        if self.theta == 0.0:
            return "catenoid"
        if self.theta == math.pi / 2:
            return "helicoid"
        return "associated-family"

    def point(self, x):
        s, t = x
        ch, sh, ct, st = np.cosh(s), np.sinh(s), np.cos(t), np.sin(t)
        cat = np.stack([ch * ct, ch * st, s])
        conj = np.stack([sh * st, -sh * ct, t])
        return self.scale * (math.cos(self.theta) * cat + math.sin(self.theta) * conj)

    def frame(self, x, u):
        s, t = x
        ch = np.cosh(s)
        return np.stack([-np.cos(t) / ch, -np.sin(t) / ch,
                         np.sinh(s) / ch])[:, None]


def Catenoid(scale: float = 1.0) -> AssociatedFamily:
    return AssociatedFamily(scale=scale, theta=0.0)


def Helicoid(scale: float = 1.0) -> AssociatedFamily:
    return AssociatedFamily(scale=scale, theta=math.pi / 2)


@dataclass(frozen=True)
class CliffordTorus(Surface):
    """Product of two circles in R^4 (flat metric, codimension 2)."""

    name = "clifford-torus"
    m, n = 2, 4
    window = (0.2, 0.35), (1.2, 1.2)
    r1: float = 1.0
    r2: float = 1.0

    def point(self, x):
        t1, t2 = x
        return np.stack([self.r1 * np.cos(t1), self.r1 * np.sin(t1),
                         self.r2 * np.cos(t2), self.r2 * np.sin(t2)])

    def frame(self, x, u):
        t1, t2 = x
        nu = np.zeros((4, 2) + t1.shape, dtype=x.dtype)
        nu[0, 0], nu[1, 0] = np.cos(t1), np.sin(t1)
        nu[2, 1], nu[3, 1] = np.cos(t2), np.sin(t2)
        return nu


@dataclass(frozen=True)
class GraphR4(Surface):
    """Graph (x, y, f(x, y), g(x, y)) of two quadratics: a generic
    codimension-2 surface whose trace matrix has a simple unit eigenvalue."""

    name = "graph-r4"
    m, n = 2, 4
    window = (-0.55, -0.45), (1.0, 1.0)
    coeffs: tuple[float, ...] = (0.3, 0.1, 0.2, 0.25, 0.2, -0.15)

    def point(self, x):
        a1, b1, c1, a2, b2, c2 = self.coeffs
        p, q = x
        return np.stack([p, q, a1 * p * p + b1 * p * q + c1 * q * q,
                         a2 * p * p + b2 * p * q + c2 * q * q])

    def frame(self, x, u):
        a1, b1, c1, a2, b2, c2 = self.coeffs
        p, q = x
        one = np.ones_like(p)
        zero = np.zeros_like(p)
        # raw normals of a double graph, then complex-safe Gram-Schmidt
        n1 = np.stack([-(2 * a1 * p + b1 * q), -(b1 * p + 2 * c1 * q),
                       one, zero])
        n2 = np.stack([-(2 * a2 * p + b2 * q), -(b2 * p + 2 * c2 * q),
                       zero, one])
        q1 = _unit(n1)
        n2 = n2 - _dot(n2, q1) * q1
        return np.stack([q1, _unit(n2)], axis=1)


def _sphere3(x: np.ndarray) -> np.ndarray:
    t1, t2, t3 = x
    s1 = np.sin(t1)
    s12 = s1 * np.sin(t2)
    return np.stack([np.cos(t1), s1 * np.cos(t2), s12 * np.cos(t3),
                     s12 * np.sin(t3)])


@dataclass(frozen=True)
class HypersphereM3(Surface):
    name = "hypersphere-m3"
    m, n = 3, 4
    window = (0.7, 0.65, 0.3), (0.7, 0.7, 0.8)
    polar_axes = (0, 1)
    radius: float = 1.0

    def point(self, x):
        return self.radius * _sphere3(x)

    def frame(self, x, u):
        return _sphere3(x)[:, None]   # outward


@dataclass(frozen=True)
class EllipsoidM3(Surface):
    name = "ellipsoid-m3"
    m, n = 3, 4
    window = (0.7, 0.65, 0.3), (0.7, 0.7, 0.8)
    polar_axes = (0, 1)
    axes: tuple[float, float, float, float] = (1.0, 1.1, 1.2, 1.3)

    def point(self, x):
        return _sphere3(x) * np.reshape(self.axes, (4, 1, 1, 1))

    def frame(self, x, u):
        w = u / np.reshape(self.axes, (4, 1, 1, 1)) ** 2
        return _unit(w)[:, None]   # outward


CATALOG = {
    "plane": Plane,
    "round-sphere": RoundSphere,
    "ellipsoid": Ellipsoid,
    "graph": Graph,
    "cylinder": Cylinder,
    "catenoid": Catenoid,
    "helicoid": Helicoid,
    "associated-family": AssociatedFamily,
    "clifford-torus": CliffordTorus,
    "graph-r4": GraphR4,
    "hypersphere-m3": HypersphereM3,
    "ellipsoid-m3": EllipsoidM3,
}


# ---------------------------------------------------------------------------
# forward generation


@dataclass(frozen=True)
class OracleData:
    """Ground-truth fields of one sampled immersion, grid first.

    The normal frame is stored as columns ``frame[..., :, alpha]``; for
    hypersurfaces it has a single column, exposed as ``nu``/``h``/``H`` for
    convenience.  ``dframe[..., :, a, j]`` is ``d_j nu^a``, and
    ``h_alpha[..., a, i, j] = -<d_i u, d_j nu^a>``, symmetrized.  The mixed
    third forms ``k_ab[..., a, b, i, j] = <A^a e_i, A^b e_j>``, built from
    the tangential parts of ``dframe``, and their trace ``k`` are
    properties, formed from ``dframe`` on each read.  Every field comes from
    complex-step first derivatives and is exact to rounding.  ``branch`` is
    the sign (+1 or -1) that ``u``, ``du``, ``h_alpha`` and ``H_alpha``
    carry relative to the parametrization; the frame and ``dframe`` carry
    none.
    """

    surface: Surface
    chart: Chart
    u: np.ndarray          # (*grid, n)
    du: np.ndarray         # (*grid, n, m)
    frame: np.ndarray      # (*grid, n, d)
    dframe: np.ndarray     # (*grid, n, d, m)
    g: np.ndarray          # (*grid, m, m)
    h_alpha: np.ndarray    # (*grid, d, m, m)
    H_alpha: np.ndarray    # (*grid, d)
    branch: int

    @property
    def m(self) -> int:
        return self.chart.m

    @property
    def n(self) -> int:
        return self.u.shape[-1]

    @property
    def d(self) -> int:
        return self.frame.shape[-1]

    @property
    def k_ab(self) -> np.ndarray:
        """``(*grid, d, d, m, m)``: the mixed third forms."""
        d, m = self.d, self.m
        flat = self.dframe.reshape(self.u.shape + (d * m,))
        # [..., b, (a, j)] = <nu^b, d_j nu^a>; removing it leaves the
        # tangential differentials [..., n, (a, j)]
        A_frame = flat - self.frame @ (np.ascontiguousarray(self.frame.mT)
                                       @ flat)
        # [..., (a, i), (b, j)] = <A^a e_i, A^b e_j>
        return np.einsum("...aibj->...abij", (
            np.ascontiguousarray(A_frame.mT) @ A_frame).reshape(
                self.chart.shape + (d, m) * 2))

    @property
    def k(self) -> np.ndarray:
        """``(*grid, m, m)``: the third form ``sum_a k_aa``."""
        k = np.einsum("...aaij->...ij", self.k_ab)
        return 0.5 * (k + np.swapaxes(k, -1, -2))

    def _hyper(self):
        if self.d != 1:
            raise DomainError("hypersurface field requested from codim >= 2 data")

    @property
    def nu(self) -> np.ndarray:
        self._hyper()
        return self.frame[..., 0]

    @property
    def h(self) -> np.ndarray:
        self._hyper()
        return self.h_alpha[..., 0, :, :]

    @property
    def H(self) -> np.ndarray:
        self._hyper()
        return self.H_alpha[..., 0]

    def restrict(self, chart: Chart) -> "OracleData":
        """The oracle of ``chart``, whose nodes are every ``s``-th node of
        this chart on each axis (``self`` when the charts are equal).

        The fields are contiguous copies, and the branch is chosen again by
        :func:`isogauss.grid.center_sign` at ``chart``'s center.  Every field
        of :func:`generate` is computed node by node, so the result equals
        ``generate(self.surface, chart)`` bit for bit.  The node coordinates
        must agree bit for bit, as those of a chart refined by a power of
        two do.
        """
        if chart == self.chart:
            return self
        steps = [(fine - 1) // (coarse - 1)
                 for fine, coarse in zip(self.chart.shape, chart.shape)]
        if chart.m != self.m or not all(
                s >= 1 and np.array_equal(a, b[::s])
                for s, a, b in zip(steps, chart.axes(), self.chart.axes())):
            raise DomainError("the chart's nodes are not nodes of the "
                              "oracle's chart")
        index = tuple(slice(None, None, s) for s in steps)
        copies = {f.name: getattr(self, f.name)[index].copy()
                  for f in fields(self)
                  if isinstance(getattr(self, f.name), np.ndarray)}
        out = replace(self, chart=chart, **copies)
        if center_sign(chart, self.branch * out.H_alpha) != self.branch:
            out._flip_branch()
        return out

    def _flip_branch(self) -> None:
        """Negate, in place, the fields that carry the branch."""
        for arr in (self.u, self.du, self.h_alpha, self.H_alpha):
            np.negative(arr, out=arr)
        object.__setattr__(self, "branch", -self.branch)


def _cstep_sample(surface: Surface, x: np.ndarray):
    """``(u, du, frame, dframe)`` grid first: the point and the frame at the
    components-first coordinates ``x`` and their derivatives by complex
    step, on a trailing axis.  Each of the ``m + 1`` evaluations runs
    ``point`` once, components first, and hands its value to ``frame``; what
    it gives is written once, straight into the grid-first fields."""
    m = len(x)
    # allocated before any temporary, so that the fields, which outlive the
    # call, do not sit above the freed temporaries in the heap
    u = np.empty(x.shape[1:] + (surface.n,))
    frame = np.empty(u.shape + (surface.codim,))
    du = np.empty(u.shape + (m,))
    dframe = np.empty(frame.shape + (m,))
    value = surface.point(x)
    np.copyto(np.moveaxis(u, -1, 0), value)
    np.copyto(np.moveaxis(frame, (-2, -1), (0, 1)), surface.frame(x, value))
    del value
    xc = x.astype(complex)
    for j in range(m):
        xc[j] += 1j * _CSTEP
        uc = surface.point(xc)
        fc = surface.frame(xc, uc)
        np.divide(uc.imag, _CSTEP, out=np.moveaxis(du[..., j], -1, 0))
        np.divide(fc.imag, _CSTEP,
                  out=np.moveaxis(dframe[..., j], (-2, -1), (0, 1)))
        del uc, fc   # no complex field outlives its direction
        xc[j] = x[j]
    return u, du, frame, dframe


def generate(surface: Surface, chart: Chart) -> OracleData:
    """Sample one catalog surface and differentiate it analytically."""
    if chart.m != surface.m:
        raise DomainError(
            f"{surface.name} expects m = {surface.m}, chart has m = {chart.m}")
    surface.validate_window(chart)
    u, du, frame, dframe = _cstep_sample(surface,
                                          components_first(chart.mesh(), 1))
    d = frame.shape[-1]                          # dframe: (..., n, a, j)

    m = chart.m
    duT = np.ascontiguousarray(du.mT)
    g = duT @ du
    # Weingarten: <d_i u, nu^a> = 0 gives h^a_ij = -<d_i u, d_j nu^a>;
    # [..., i, (a, j)] -> [..., a, i, j]
    h_alpha = -np.swapaxes((duT @ dframe.reshape(u.shape + (d * m,))).reshape(
        chart.shape + (m, d, m)), -3, -2)
    del duT
    h_alpha = 0.5 * (h_alpha + np.swapaxes(h_alpha, -1, -2))
    factors = cholesky_factors(np.moveaxis(g, (-2, -1), (0, 1)))
    if factors is None:
        raise SingularMetricError(
            f"{surface.name} is not immersed on this chart: the induced "
            "metric is not positive definite")
    L_inv = grid_first(factors[1], 2)
    g_inv = np.ascontiguousarray(L_inv.mT) @ L_inv
    H_alpha = (h_alpha.reshape(chart.shape + (d, m * m))
               @ g_inv.reshape(chart.shape + (m * m, 1)))[..., 0]

    data = OracleData(surface=surface, chart=chart, u=u, du=du, frame=frame,
                      dframe=dframe, g=g, h_alpha=h_alpha, H_alpha=H_alpha,
                      branch=1)
    # the branch the decision pipeline selects by default
    if center_sign(chart, H_alpha) < 0:
        data._flip_branch()
    return data


def smooth_rotation_of_gauss_map(nu: np.ndarray, chart: Chart, magnitude: float,
                                 seed: int = 0) -> np.ndarray:
    """Rotate a unit field by a smooth, non-constant ambient rotation.

    The rotation acts in a random fixed 2-plane with an angle that varies
    sinusoidally across the chart with amplitude ``magnitude``.  Useful for
    fabricating inadmissible data: the result is still an exactly-unit smooth
    field but is no longer the Gauss map of any immersion with the same g.
    """
    rng = np.random.default_rng(seed)
    n = nu.shape[-1]
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(n)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    x = chart.mesh()
    extent = np.array([chart.spacing[i] * (chart.shape[i] - 1)
                       for i in range(chart.m)])
    omega = 2.0 * math.pi / extent * (1.0 + 0.3 * rng.random(chart.m))
    phase = rng.random() * 2.0 * math.pi
    alpha = magnitude * np.sin(x @ omega + phase)
    ca = np.cos(alpha)[..., None]
    sa = np.sin(alpha)[..., None]
    pa = (nu @ a)[..., None]
    pb = (nu @ b)[..., None]
    return nu + sa * (pa * b - pb * a) + (ca - 1.0) * (pa * a + pb * b)
