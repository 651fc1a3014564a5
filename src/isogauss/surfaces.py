"""Closed-form immersion catalog and the forward ground-truth generator.

Every derived expectation in the test suite comes from here: a surface is
sampled analytically, its first derivatives are computed by complex-step
differentiation (exact to machine precision) and second derivatives by a
tiny-step central difference of the complex-step gradient (error ~ 1e-10,
independent of the chart resolution).  Nothing in this module uses the grid
stencils that the rest of the package is built on.

Orientation conventions: normals follow the stated geometric convention per
surface (outward for closed surfaces, upward for graphs).  The stored
immersion branch is flipped, when necessary, so that the mean curvature
trace is >= 0 at the chart center -- the sign freedom of the problem makes
``-u`` a solution whenever ``u`` is, and this choice matches the branch the
admissibility pipeline selects.  Minimal surfaces (mean curvature zero) are
stored as parametrized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvaturePack, MetricField, node_norm
from .errors import DomainError
from .grid import Chart, build_chart

_CSTEP = 1e-100
_FD2_STEP = 1e-5


def _unit(v: np.ndarray) -> np.ndarray:
    # complex-safe normalization (sum of squares, not |.|^2)
    return v / np.sqrt(np.sum(v * v, axis=-1))[..., None]


@dataclass(frozen=True)
class Surface:
    """Base class: a parametrized piece of a submanifold of R^n."""

    name = "surface"

    @property
    def m(self) -> int:
        raise NotImplementedError

    @property
    def n(self) -> int:
        raise NotImplementedError

    @property
    def codim(self) -> int:
        return self.n - self.m

    def point(self, x: np.ndarray) -> np.ndarray:
        """Immersion value at chart coordinates ``x[..., m]`` (complex-safe)."""
        raise NotImplementedError

    def frame(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal normal frame ``(..., n, n-m)`` (complex-safe)."""
        raise NotImplementedError

    def default_window(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(origin, extent) of the default coordinate box."""
        raise NotImplementedError

    def validate_window(self, chart: Chart) -> None:
        """Raise DomainError if the chart leaves the validity region."""

    def default_chart(self, shape) -> Chart:
        if isinstance(shape, int):
            shape = (shape,) * self.m
        origin, extent = self.default_window()
        spacing = tuple(extent[i] / (shape[i] - 1) for i in range(self.m))
        return build_chart(self.m, shape, spacing, origin)


def _angle_window_guard(chart: Chart, axes: tuple[int, ...], lo: float, hi: float,
                        what: str) -> None:
    for a in axes:
        start = chart.origin[a]
        stop = chart.origin[a] + chart.spacing[a] * (chart.shape[a] - 1)
        if start <= lo or stop >= hi:
            raise DomainError(
                f"{what}: axis {a} range [{start:.3f}, {stop:.3f}] leaves the "
                f"validity window ({lo:.3f}, {hi:.3f})")


@dataclass(frozen=True)
class Plane(Surface):
    name = "plane"

    @property
    def m(self): return 2

    @property
    def n(self): return 3

    def point(self, x):
        z = np.zeros_like(x[..., 0])
        return np.stack([x[..., 0], x[..., 1], z], axis=-1)

    def frame(self, x):
        nu = np.zeros(x.shape[:-1] + (3,), dtype=x.dtype)
        nu[..., 2] = 1.0
        return nu[..., None]

    def default_window(self):
        return (-0.5, -0.5), (1.0, 1.0)


@dataclass(frozen=True)
class RoundSphere(Surface):
    """Unit-speed colatitude/longitude chart of a round 2-sphere."""

    name = "round-sphere"
    radius: float = 1.0

    @property
    def m(self): return 2

    @property
    def n(self): return 3

    def point(self, x):
        th, ph = x[..., 0], x[..., 1]
        return self.radius * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)

    def frame(self, x):
        return (self.point(x) / self.radius)[..., None]   # outward

    def default_window(self):
        return (0.65, 0.3), (0.9, 1.2)

    def validate_window(self, chart):
        _angle_window_guard(chart, (0,), 0.05, math.pi - 0.05, self.name)


@dataclass(frozen=True)
class Ellipsoid(Surface):
    name = "ellipsoid"
    axes: tuple[float, float, float] = (1.0, 1.5, 2.0)

    @property
    def m(self): return 2

    @property
    def n(self): return 3

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

    def default_window(self):
        return (0.65, 0.3), (0.9, 1.2)

    def validate_window(self, chart):
        _angle_window_guard(chart, (0,), 0.05, math.pi - 0.05, self.name)


@dataclass(frozen=True)
class Graph(Surface):
    """Graph z = cxx x^2 + cxy x y + cyy y^2 over the plane, upward normal."""

    name = "graph"
    coeffs: tuple[float, float, float] = (1.0, 0.0, 2.0)

    @property
    def m(self): return 2

    @property
    def n(self): return 3

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

    def default_window(self):
        return (-0.55, -0.45), (1.0, 1.0)


@dataclass(frozen=True)
class Cylinder(Surface):
    """Circular cylinder; its Gauss map kills the axis direction."""

    name = "cylinder"
    radius: float = 1.0

    @property
    def m(self): return 2

    @property
    def n(self): return 3

    def point(self, x):
        th, z = x[..., 0], x[..., 1]
        r = self.radius
        return np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)

    def frame(self, x):
        th = x[..., 0]
        return np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)[..., None]

    def default_window(self):
        return (0.2, -0.5), (1.2, 1.2)


@dataclass(frozen=True)
class AssociatedFamily(Surface):
    """Associated family of the catenoid in conformal coordinates.

    theta = 0 is the catenoid, theta = pi/2 the helicoid; every member shares
    the first fundamental form and the Gauss map of the catenoid.
    """

    scale: float = 1.0
    theta: float = 0.0

    @property
    def name(self):
        if self.theta == 0.0:
            return "catenoid"
        if self.theta == math.pi / 2:
            return "helicoid"
        return "associated-family"

    @property
    def m(self): return 2

    @property
    def n(self): return 3

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

    def default_window(self):
        return (-0.85, 0.25), (1.8, 1.2)


def Catenoid(scale: float = 1.0) -> AssociatedFamily:
    return AssociatedFamily(scale=scale, theta=0.0)


def Helicoid(scale: float = 1.0) -> AssociatedFamily:
    return AssociatedFamily(scale=scale, theta=math.pi / 2)


@dataclass(frozen=True)
class CliffordTorus(Surface):
    """Product of two circles in R^4 (flat metric, codimension 2)."""

    name = "clifford-torus"
    r1: float = 1.0
    r2: float = 1.0

    @property
    def m(self): return 2

    @property
    def n(self): return 4

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

    def default_window(self):
        return (0.2, 0.35), (1.2, 1.2)


@dataclass(frozen=True)
class GraphR4(Surface):
    """Graph (x, y, f(x, y), g(x, y)) of two quadratics: a generic
    codimension-2 surface whose trace matrix has a simple unit eigenvalue."""

    name = "graph-r4"
    coeffs: tuple[float, ...] = (0.3, 0.1, 0.2, 0.25, 0.2, -0.15)

    @property
    def m(self): return 2

    @property
    def n(self): return 4

    def _heights(self, p, q):
        a1, b1, c1, a2, b2, c2 = self.coeffs
        return (a1 * p * p + b1 * p * q + c1 * q * q,
                a2 * p * p + b2 * p * q + c2 * q * q)

    def point(self, x):
        p, q = x[..., 0], x[..., 1]
        f, g = self._heights(p, q)
        return np.stack([p, q, f, g], axis=-1)

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

    def default_window(self):
        return (-0.55, -0.45), (1.0, 1.0)


def _sphere3(x: np.ndarray) -> np.ndarray:
    t1, t2, t3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([np.cos(t1),
                     np.sin(t1) * np.cos(t2),
                     np.sin(t1) * np.sin(t2) * np.cos(t3),
                     np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=-1)


@dataclass(frozen=True)
class HypersphereM3(Surface):
    name = "hypersphere-m3"
    radius: float = 1.0

    @property
    def m(self): return 3

    @property
    def n(self): return 4

    def point(self, x):
        return self.radius * _sphere3(x)

    def frame(self, x):
        return _sphere3(x)[..., None]   # outward

    def default_window(self):
        return (0.7, 0.65, 0.3), (0.7, 0.7, 0.8)

    def validate_window(self, chart):
        _angle_window_guard(chart, (0, 1), 0.05, math.pi - 0.05, self.name)


@dataclass(frozen=True)
class EllipsoidM3(Surface):
    name = "ellipsoid-m3"
    axes: tuple[float, float, float, float] = (1.0, 1.1, 1.2, 1.3)

    @property
    def m(self): return 3

    @property
    def n(self): return 4

    def point(self, x):
        w = _sphere3(x)
        return w * np.asarray(self.axes)

    def frame(self, x):
        u = self.point(x)
        w = u / np.asarray(self.axes) ** 2
        return _unit(w)[..., None]   # outward

    def default_window(self):
        return (0.7, 0.65, 0.3), (0.7, 0.7, 0.8)

    def validate_window(self, chart):
        _angle_window_guard(chart, (0, 1), 0.05, math.pi - 0.05, self.name)


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
    convenience.  ``k_ab[..., a, b, i, j]`` holds the mixed third forms
    ``<A^a e_i, A^b e_j>`` built from the tangential parts of ``d frame``.
    """

    surface: Surface
    chart: Chart
    u: np.ndarray          # (*grid, n)
    du: np.ndarray         # (*grid, n, m)
    frame: np.ndarray      # (*grid, n, d)
    A_frame: np.ndarray    # (*grid, n, m, d) tangential parts of d nu^a
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


def _second_derivatives(fn, x: np.ndarray) -> np.ndarray:
    """u_ij = d_j d_i u, shape (..., n, m, m), via FD of the exact gradient."""
    m = x.shape[-1]
    cols = []
    for j in range(m):
        xp = x.copy()
        xm = x.copy()
        xp[..., j] += _FD2_STEP
        xm[..., j] -= _FD2_STEP
        dp = _cstep_jacobian(fn, xp)
        dm = _cstep_jacobian(fn, xm)
        cols.append((dp - dm) / (2 * _FD2_STEP))
    u2 = np.stack(cols, axis=-1)                 # (..., n, i, j)
    return 0.5 * (u2 + np.swapaxes(u2, -1, -2))  # kill the ~1e-11 FD asymmetry


def generate(surface: Surface, chart: Chart) -> OracleData:
    """Sample one catalog surface and differentiate it analytically."""
    if chart.m != surface.m:
        raise DomainError(
            f"{surface.name} expects m = {surface.m}, chart has m = {chart.m}")
    surface.validate_window(chart)
    x = chart.mesh()
    u = np.real(surface.point(x))
    du = _cstep_jacobian(surface.point, x)
    u2 = _second_derivatives(surface.point, x)
    frame = np.real(surface.frame(x))
    d = frame.shape[-1]

    g = np.einsum("...ni,...nj->...ij", du, du)
    h_alpha = np.einsum("...nij,...na->...aij", u2, frame)
    g_inv = np.linalg.inv(g)
    H_alpha = np.einsum("...ij,...aij->...a", g_inv, h_alpha)

    dframe = _cstep_jacobian(surface.frame, x)   # (..., n, a, j)
    A_raw = np.einsum("...naj->...nja", dframe)
    normal_part = np.einsum("...nja,...nb->...jab", A_raw, frame)
    A_frame = A_raw - np.einsum("...jab,...nb->...nja", normal_part, frame)
    k_ab = np.einsum("...nia,...njb->...abij", A_frame, A_frame)
    k = np.einsum("...aaij->...ij", k_ab)
    k = 0.5 * (k + np.swapaxes(k, -1, -2))

    # pick the mean-curvature-positive branch at the chart center so that the
    # stored immersion matches the sign the decision pipeline selects
    Hc = H_alpha[chart.center]
    scale = float(np.max(np.abs(H_alpha))) if H_alpha.size else 0.0
    lead = 0.0
    for comp in np.atleast_1d(Hc):
        if abs(comp) > 1e-8 * max(scale, 1.0):
            lead = comp
            break
    if lead < 0:
        u, du, h_alpha, H_alpha = -u, -du, -h_alpha, -H_alpha

    return OracleData(surface=surface, chart=chart, u=u, du=du, frame=frame,
                      A_frame=A_frame, g=g, h_alpha=h_alpha, H_alpha=H_alpha,
                      k_ab=k_ab, k=k)


def associated_family(scale: float, theta: float, chart: Chart) -> OracleData:
    """Member of the catenoid-helicoid family; all share (g, nu)."""
    return generate(AssociatedFamily(scale=scale, theta=theta), chart)


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
    quad = (np.einsum("...ail,...ajk->...ijkl", h, h)
            - np.einsum("...aik,...ajl->...ijkl", h, h))
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
    alpha = magnitude * np.sin(np.einsum("...i,i->...", x, omega) + phase)
    ca = np.cos(alpha)[..., None]
    sa = np.sin(alpha)[..., None]
    pa = np.einsum("...n,n->...", nu, a)[..., None]
    pb = np.einsum("...n,n->...", nu, b)[..., None]
    return nu + sa * (pa * b - pb * a) + (ca - 1.0) * (pa * a + pb * b)
