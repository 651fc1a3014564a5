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
parameters the command line offers.  A subclass defines only ``point``
(the immersion) and ``frame`` (its orthonormal normal frame), both
complex-safe; :meth:`Surface.default_chart` and
:meth:`Surface.validate_window` read the data.

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
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .curvature import CurvaturePack, MetricField, node_norm, spd_solve
from .errors import DomainError, SingularMetricError
from .grid import Chart, build_chart, center_sign, check_shape

_CSTEP = 1e-100
_POLAR_MARGIN = 0.05    # closest a polar angle may come to a pole


def _unit(v: np.ndarray) -> np.ndarray:
    # complex-safe normalization (sum of squares, not |.|^2)
    return v / np.sqrt(np.sum(v * v, axis=-1))[..., None]


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
        """Immersion value at chart coordinates ``x[..., m]`` (complex-safe)."""
        raise NotImplementedError

    def frame(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal normal frame ``(..., n, n-m)`` (complex-safe)."""
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
        z = np.zeros_like(x[..., 0])
        return np.stack([x[..., 0], x[..., 1], z], axis=-1)

    def frame(self, x):
        nu = np.zeros(x.shape[:-1] + (3,), dtype=x.dtype)
        nu[..., 2] = 1.0
        return nu[..., None]


@dataclass(frozen=True)
class RoundSphere(Surface):
    """Unit-speed colatitude/longitude chart of a round 2-sphere."""

    name = "round-sphere"
    m, n = 2, 3
    window = (0.65, 0.3), (0.9, 1.2)
    polar_axes = (0,)
    radius: float = 1.0

    def point(self, x):
        th, ph = x[..., 0], x[..., 1]
        return self.radius * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)

    def frame(self, x):
        return (self.point(x) / self.radius)[..., None]   # outward


@dataclass(frozen=True)
class Ellipsoid(Surface):
    name = "ellipsoid"
    m, n = 2, 3
    window = (0.65, 0.3), (0.9, 1.2)
    polar_axes = (0,)
    axes: tuple[float, float, float] = (1.0, 1.5, 2.0)

    def point(self, x):
        th, ph = x[..., 0], x[..., 1]
        a, b, c = self.axes
        return np.stack([a * np.sin(th) * np.cos(ph),
                         b * np.sin(th) * np.sin(ph),
                         c * np.cos(th)], axis=-1)

    def frame(self, x):
        u = self.point(x)
        a, b, c = self.axes
        w = np.stack([u[..., 0] / a**2, u[..., 1] / b**2, u[..., 2] / c**2], axis=-1)
        return _unit(w)[..., None]   # outward


@dataclass(frozen=True)
class Graph(Surface):
    """Graph z = cxx x^2 + cxy x y + cyy y^2 over the plane, upward normal."""

    name = "graph"
    m, n = 2, 3
    window = (-0.55, -0.45), (1.0, 1.0)
    coeffs: tuple[float, float, float] = (1.0, 0.0, 2.0)

    def point(self, x):
        cxx, cxy, cyy = self.coeffs
        p, q = x[..., 0], x[..., 1]
        return np.stack([p, q, cxx * p * p + cxy * p * q + cyy * q * q], axis=-1)

    def frame(self, x):
        cxx, cxy, cyy = self.coeffs
        p, q = x[..., 0], x[..., 1]
        fx = 2 * cxx * p + cxy * q
        fy = cxy * p + 2 * cyy * q
        w = np.stack([-fx, -fy, np.ones_like(p)], axis=-1)
        return _unit(w)[..., None]


@dataclass(frozen=True)
class Cylinder(Surface):
    """Circular cylinder; its Gauss map kills the axis direction."""

    name = "cylinder"
    m, n = 2, 3
    window = (0.2, -0.5), (1.2, 1.2)
    radius: float = 1.0

    def point(self, x):
        th, z = x[..., 0], x[..., 1]
        r = self.radius
        return np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)

    def frame(self, x):
        th = x[..., 0]
        return np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)[..., None]


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
        s, t = x[..., 0], x[..., 1]
        cat = np.stack([np.cosh(s) * np.cos(t), np.cosh(s) * np.sin(t), s], axis=-1)
        conj = np.stack([np.sinh(s) * np.sin(t), -np.sinh(s) * np.cos(t), t], axis=-1)
        return self.scale * (math.cos(self.theta) * cat + math.sin(self.theta) * conj)

    def frame(self, x):
        s, t = x[..., 0], x[..., 1]
        nu = np.stack([-np.cos(t) / np.cosh(s), -np.sin(t) / np.cosh(s),
                       np.sinh(s) / np.cosh(s)], axis=-1)
        return nu[..., None]


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
        t1, t2 = x[..., 0], x[..., 1]
        return np.stack([self.r1 * np.cos(t1), self.r1 * np.sin(t1),
                         self.r2 * np.cos(t2), self.r2 * np.sin(t2)], axis=-1)

    def frame(self, x):
        t1, t2 = x[..., 0], x[..., 1]
        z = np.zeros_like(t1)
        n1 = np.stack([np.cos(t1), np.sin(t1), z, z], axis=-1)
        n2 = np.stack([z, z, np.cos(t2), np.sin(t2)], axis=-1)
        return np.stack([n1, n2], axis=-1)


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
        p, q = x[..., 0], x[..., 1]
        return np.stack([p, q, a1 * p * p + b1 * p * q + c1 * q * q,
                         a2 * p * p + b2 * p * q + c2 * q * q], axis=-1)

    def frame(self, x):
        a1, b1, c1, a2, b2, c2 = self.coeffs
        p, q = x[..., 0], x[..., 1]
        one = np.ones_like(p)
        zero = np.zeros_like(p)
        # raw normals of a double graph, then complex-safe Gram-Schmidt
        n1 = np.stack([-(2 * a1 * p + b1 * q), -(b1 * p + 2 * c1 * q),
                       one, zero], axis=-1)
        n2 = np.stack([-(2 * a2 * p + b2 * q), -(b2 * p + 2 * c2 * q),
                       zero, one], axis=-1)
        q1 = _unit(n1)
        n2 = n2 - np.sum(n2 * q1, axis=-1)[..., None] * q1
        return np.stack([q1, _unit(n2)], axis=-1)


def _sphere3(x: np.ndarray) -> np.ndarray:
    t1, t2, t3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([np.cos(t1),
                     np.sin(t1) * np.cos(t2),
                     np.sin(t1) * np.sin(t2) * np.cos(t3),
                     np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=-1)


@dataclass(frozen=True)
class HypersphereM3(Surface):
    name = "hypersphere-m3"
    m, n = 3, 4
    window = (0.7, 0.65, 0.3), (0.7, 0.7, 0.8)
    polar_axes = (0, 1)
    radius: float = 1.0

    def point(self, x):
        return self.radius * _sphere3(x)

    def frame(self, x):
        return _sphere3(x)[..., None]   # outward


@dataclass(frozen=True)
class EllipsoidM3(Surface):
    name = "ellipsoid-m3"
    m, n = 3, 4
    window = (0.7, 0.65, 0.3), (0.7, 0.7, 0.8)
    polar_axes = (0, 1)
    axes: tuple[float, float, float, float] = (1.0, 1.1, 1.2, 1.3)

    def point(self, x):
        w = _sphere3(x)
        return w * np.asarray(self.axes)

    def frame(self, x):
        u = self.point(x)
        w = u / np.asarray(self.axes) ** 2
        return _unit(w)[..., None]   # outward


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
    """Ground-truth fields of one sampled immersion.

    The normal frame is stored as columns ``frame[..., :, alpha]``; for
    hypersurfaces it has a single column, exposed as ``nu``/``h``/``H`` for
    convenience.  ``h_alpha[..., a, i, j] = -<d_i u, d_j nu^a>``, symmetrized,
    and ``k_ab[..., a, b, i, j]`` holds the mixed third forms
    ``<A^a e_i, A^b e_j>`` built from the tangential parts of ``d frame``;
    both come from complex-step first derivatives and are exact to rounding.
    """

    surface: Surface
    chart: Chart
    u: np.ndarray          # (*grid, n)
    du: np.ndarray         # (*grid, n, m)
    frame: np.ndarray      # (*grid, n, d)
    g: np.ndarray          # (*grid, m, m)
    h_alpha: np.ndarray    # (*grid, d, m, m)
    H_alpha: np.ndarray    # (*grid, d)
    k_ab: np.ndarray       # (*grid, d, d, m, m)
    k: np.ndarray          # (*grid, m, m) = sum_a k_aa

    @property
    def m(self) -> int:
        return self.chart.m

    @property
    def n(self) -> int:
        return self.u.shape[-1]

    @property
    def d(self) -> int:
        return self.frame.shape[-1]

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


def _cstep_jacobian(fn, x: np.ndarray) -> np.ndarray:
    """d fn / d x_j by complex step; appends the derivative axis last."""
    m = x.shape[-1]
    cols = []
    for j in range(m):
        xc = x.astype(complex)
        xc[..., j] += 1j * _CSTEP
        cols.append(np.imag(fn(xc)) / _CSTEP)
    return np.stack(cols, axis=-1)


def generate(surface: Surface, chart: Chart) -> OracleData:
    """Sample one catalog surface and differentiate it analytically."""
    if chart.m != surface.m:
        raise DomainError(
            f"{surface.name} expects m = {surface.m}, chart has m = {chart.m}")
    surface.validate_window(chart)
    x = chart.mesh()
    u = np.real(surface.point(x))
    du = _cstep_jacobian(surface.point, x)
    frame = np.real(surface.frame(x))
    dframe = _cstep_jacobian(surface.frame, x)   # (..., n, a, j)
    d = frame.shape[-1]

    m = chart.m
    g = du.mT @ du
    flat = dframe.reshape(u.shape + (d * m,))
    # Weingarten: <d_i u, nu^a> = 0 gives h^a_ij = -<d_i u, d_j nu^a>;
    # [..., i, (a, j)] -> [..., a, i, j]
    h_alpha = -np.swapaxes((du.mT @ flat).reshape(chart.shape + (m, d, m)),
                           -3, -2)
    h_alpha = 0.5 * (h_alpha + np.swapaxes(h_alpha, -1, -2))
    g_inv = spd_solve(g, np.eye(m))
    if g_inv is None:
        raise SingularMetricError(
            f"{surface.name} is not immersed on this chart: the induced "
            "metric is not positive definite")
    H_alpha = (h_alpha.reshape(chart.shape + (d, m * m))
               @ g_inv.reshape(chart.shape + (m * m, 1)))[..., 0]

    # [..., (a, j), b] = <d_j nu^a, nu^b>; removing it leaves the
    # tangential differentials [..., n, (a, j)]
    normal_part = flat.mT @ frame
    A_frame = flat - frame @ normal_part.mT
    # [..., (a, i), (b, j)] = <A^a e_i, A^b e_j>
    k_ab = np.einsum("...aibj->...abij", (A_frame.mT @ A_frame).reshape(
        chart.shape + (d, m) * 2))
    k = np.einsum("...aaij->...ij", k_ab)
    k = 0.5 * (k + np.swapaxes(k, -1, -2))

    # the branch the decision pipeline selects by default
    if center_sign(chart, H_alpha) < 0:
        u, du, h_alpha, H_alpha = -u, -du, -h_alpha, -H_alpha

    return OracleData(surface=surface, chart=chart, u=u, du=du, frame=frame,
                      g=g, h_alpha=h_alpha, H_alpha=H_alpha, k_ab=k_ab, k=k)


def gauss_codazzi_residuals(data: OracleData, pack: CurvaturePack,
                            metric: MetricField) -> tuple[float, float]:
    """Interior maxima of the Gauss and Codazzi defects of oracle data.

    Gauss: ``R_ijkl - sum_a (h^a_il h^a_jk - h^a_ik h^a_jl)``.  Codazzi is the
    symmetrized-covariant-derivative defect of each ``h^a``; for codimension
    >= 2 this is the flat-normal-connection form, valid for the catalog
    frames (which are parallel in the normal bundle).
    """
    from .admissibility import codazzi_residual   # cycle-free at call time

    h = data.h_alpha
    quad = (np.einsum("...ail,...ajk->...ijkl", h, h, optimize=True)
            - np.einsum("...aik,...ajl->...ijkl", h, h, optimize=True))
    scale = 1.0 + float(np.max(node_norm(quad, 4)))
    gauss = float(np.max(node_norm((pack.R_low - quad)[data.chart.interior], 4))) / scale
    codazzi = max(codazzi_residual(h[..., a, :, :], pack.Gamma, metric)
                  for a in range(data.d))
    return gauss, codazzi


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
