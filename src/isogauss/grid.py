"""Rectangular coordinate charts and finite-difference calculus on sampled fields.

Array layout convention used throughout the package: a field sampled on a
chart with grid shape ``(N_1, ..., N_m)`` is stored as a C-contiguous
ndarray of shape ``(*index_shape, N_1, ..., N_m)`` -- component indices
first, grid axes after -- so each component is one contiguous array over
the nodes, and per-node algebra is a few elementwise operations on those
arrays (:func:`isogauss.curvature.node_product`).  Finite differencing
puts the differentiation index just before the grid axes, so
``grad_all(f)[..., i, :, :] == d f / d x_i`` for ``m = 2``.  Datasets and
the oracle of :mod:`isogauss.surfaces` keep the grid-first layout
``(N_1, ..., N_m, *index_shape)`` of the text format; the pipeline's entry
points convert them once.

Stencils are 3-point second order everywhere: central in the interior,
one-sided on the two boundary layers (this is exactly ``np.gradient`` with
``edge_order=2``).  Residual maxima elsewhere in the package are taken over
``chart.interior`` only, which strips two layers per side so that quantities
built from two successive derivatives are free of one-sided-stencil noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DomainError

MIN_POINTS_PER_AXIS = 5


def check_shape(shape: tuple[int, ...]) -> None:
    """Raise :class:`ConfigurationError` unless every axis has at least
    ``MIN_POINTS_PER_AXIS`` points, the fewest the stencils need."""
    if any(n < MIN_POINTS_PER_AXIS for n in shape):
        raise ConfigurationError(
            f"grid too small for 2nd-order stencils: every axis needs "
            f">= {MIN_POINTS_PER_AXIS} points, got {tuple(shape)}")


def check_mesh_size(shape: tuple[int, ...]) -> None:
    """Raise :class:`ConfigurationError` unless the node coordinates of a
    grid of ``shape`` (``m`` doubles a node) fit in one addressable array.
    Checked on the shape alone, before anything is allocated."""
    if math.prod(shape) * len(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"grid too large: its node coordinates need more than "
            f"{np.iinfo(np.intp).max} bytes")


@dataclass(frozen=True)
class Chart:
    """A uniform rectangular grid over an open box in R^m."""

    m: int
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError(f"chart dimension must be >= 1, got {self.m}")
        for name, tup in (("shape", self.shape), ("spacing", self.spacing),
                          ("origin", self.origin)):
            if len(tup) != self.m:
                raise ConfigurationError(
                    f"chart {name} has length {len(tup)}, expected m = {self.m}")
        check_shape(self.shape)
        # the thresholds square the spacing: the square must stay finite
        # (then so does the far corner origin + spacing * (n - 1))
        if any(not (0 < dx and math.isfinite(dx * dx)) for dx in self.spacing):
            raise ConfigurationError(
                f"spacings must be positive with a finite square, got "
                f"{self.spacing}")
        if any(not math.isfinite(x) for x in self.origin):
            raise ConfigurationError(f"origin must be finite, got {self.origin}")

    @property
    def num_points(self) -> int:
        return math.prod(self.shape)

    @property
    def interior(self) -> tuple[slice, ...]:
        """Slices selecting the region two layers away from every face."""
        return self.interior_slices(2)

    def interior_slices(self, margin: int) -> tuple[slice, ...]:
        """Interior with a chosen margin, clamped so the region is nonempty.

        A field produced by k successive finite differences carries one-sided
        truncation error on its outermost k layers, and differentiating it
        once more leaks that error one layer further in; checks pick their
        margin accordingly (2 for directly differentiated data, 4 for checks
        that differentiate derived fields).
        """
        return tuple(slice(min(margin, (n - 1) // 2), n - min(margin, (n - 1) // 2))
                     for n in self.shape)

    @property
    def center(self) -> tuple[int, ...]:
        return tuple(n // 2 for n in self.shape)

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    def axes(self) -> list[np.ndarray]:
        """The node coordinates on each axis: every coordinate array of the
        chart is built from these."""
        check_mesh_size(self.shape)
        return [self.origin[i] + self.spacing[i] * np.arange(self.shape[i])
                for i in range(self.m)]

    def mesh(self) -> np.ndarray:
        """Coordinates of every node, shape ``(*shape, m)``."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)

    def refine(self, factor: int = 2) -> "Chart":
        """Same coordinate box with ``factor``-times finer spacing."""
        shape = tuple(factor * (n - 1) + 1 for n in self.shape)
        # before a factor too large for a float divides the spacing
        check_mesh_size(shape)
        spacing = tuple(dx / factor for dx in self.spacing)
        return replace(self, shape=shape, spacing=spacing)


def build_chart(m: int, shape, spacing, origin=None) -> Chart:
    """Validated chart constructor (origin defaults to zero)."""
    if origin is None:
        origin = (0.0,) * m
    return Chart(m=m, shape=tuple(int(n) for n in shape),
                 spacing=tuple(float(dx) for dx in spacing),
                 origin=tuple(float(x) for x in origin))


def _deriv_into(f: np.ndarray, dx: float, axis: int, out: np.ndarray) -> None:
    """Write the derivative of ``f`` along ``axis`` into ``out``.

    ``np.gradient``'s ``edge_order=2`` stencil on a uniform grid, operation
    for operation, so the result is bitwise equal to it: ``(f[2:] - f[:-2])
    / (2 dx)`` inside, and the one-sided weights ``(-1.5, 2, -0.5) / dx`` and
    ``(0.5, -2, 1.5) / dx`` on the two end layers.  ``out`` may be any view
    of ``f``'s shape, such as one slot of a trailing derivative axis.
    """
    f = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * dx
    # one-layer slices, not indices, so that a 1-D field stays an array
    first, last = o[:1], o[-1:]
    np.multiply(f[:1], -1.5 / dx, out=first)
    first += f[1:2] * (2.0 / dx)
    first += f[2:3] * (-0.5 / dx)
    np.multiply(f[-3:-2], 0.5 / dx, out=last)
    last += f[-2:-1] * (-2.0 / dx)
    last += f[-1:] * (1.5 / dx)


def grad_all(values: np.ndarray, chart: Chart) -> np.ndarray:
    """All first derivatives of a components-first field, on a new axis
    just before the grid axes.

    ``values`` is ``(*components, *grid)``; the ``(*components, m, *grid)``
    result is allocated once and each axis's derivative is written into its
    slot, with no stacking copy.
    """
    values = np.asarray(values, dtype=float)
    lead = values.ndim - chart.m
    out = np.empty(values.shape[:lead] + (chart.m,) + chart.shape)
    slots = np.moveaxis(out, lead, 0)
    for a in range(chart.m):
        _deriv_into(values, chart.spacing[a], lead + a, slots[a])
    return out


def integrate(U: np.ndarray, chart: Chart) -> np.ndarray:
    """Trapezoidal integration of du = U along axis-ordered staircase paths.

    ``U`` is ``(n, m, *grid)`` and ``u`` is ``(n, *grid)``.  The path runs
    from the chart center, where ``u = 0``, first along axis 0, then axis
    1, and so on: along each :func:`staircase_runs` run, ``u`` is its value
    one step before the run plus one cumulative sum of trapezoid
    increments.  Path independence is not checked here: the pipeline judges
    it as the step-4 ``curl`` residual
    (:func:`isogauss.admissibility.curl_residual`), so the ``U`` of an
    admissible report integrates.
    """
    n = U.shape[0] if U.ndim >= 2 else 0
    if U.shape != (n, chart.m) + chart.shape:
        raise DomainError(
            f"U has shape {U.shape}, expected {(n, chart.m) + chart.shape}")
    u = np.zeros((n,) + chart.shape)
    each = (slice(None),)
    for a, run, prev in staircase_runs(chart):
        # a downward run steps by -dx
        h = 0.5 * chart.spacing[a] * (run[a].step or 1)
        inc = h * (U[each + (a,) + run] + U[each + (a,) + prev])
        first = each * (a + 1) + (slice(0, 1),)
        u[each + run] = u[each + prev][first] + np.cumsum(inc, axis=a + 1)
    return u


def interior_max(chart: Chart, pointwise: np.ndarray, margin: int = 2) -> float:
    """Max of a per-node scalar over the interior region."""
    return float(np.max(pointwise[chart.interior_slices(margin)]))


def align_signs(chart: Chart, vectors: np.ndarray) -> np.ndarray:
    """Per-node +-1 factors making a sign-ambiguous vector field continuous.

    ``vectors`` is grid first, one flat vector per node on the trailing
    axes, as the eigenvectors of the trace-matrix and theorem3 routes come
    out of their batched internals.  The center
    keeps sign +1; every other node takes the sign that makes its dot product
    with its already-aligned staircase neighbor nonnegative (a zero dot
    product keeps +1).  Along a :func:`staircase_runs` run each node's sign
    is its neighbor's times the sign of their dot product, so a run is
    settled by one einsum and one cumulative product; a zero dot product
    restarts the product at +1.  Meaningful when the underlying field is
    continuous and nonvanishing, so adjacent raw vectors are near-parallel.
    """
    sign = np.ones(chart.shape)
    flat = vectors.reshape(chart.shape + (-1,))
    for a, run, prev in staircase_runs(chart):
        d = np.einsum("...k,...k->...", flat[run], flat[prev])
        step = np.where(d >= 0, 1.0, -1.0)
        # a node with no sign to continue (a zero dot product, or NaN, which
        # the >= 0 rule sends to -1) starts over from its own step
        restart = ~((d > 0) | (d < 0))
        walked = np.cumprod(step, axis=a)
        # the product up to the node before the last restart: the factor
        # that sets the restarted node to its own step
        pos = np.arange(d.shape[a]).reshape((-1,) + (1,) * (d.ndim - a - 1))
        last = np.maximum.accumulate(np.where(restart, pos, -1), axis=a)
        before = np.take_along_axis(walked * step, np.maximum(last, 0), axis=a)
        first = (slice(None),) * a + (slice(0, 1),)
        sign[run] = walked * np.where(last >= 0, before, sign[prev][first])
    return sign


def center_sign(chart: Chart, vectors: np.ndarray) -> int:
    """The sign branch rule: +-1 making a vector field point "up" at the
    chart center.

    ``vectors`` is grid first, one vector per node on the trailing axes, as
    the oracle holds its mean curvature.  The result is the
    sign of the first center component whose size exceeds
    ``1e-8 * max(1, max |vectors|)``, or +1 when none does.  The oracle
    catalog stores, and the pipeline selects by default, the branch on which
    this is +1 for the mean curvature (vector).
    """
    tol = 1e-8 * max(1.0, float(np.max(np.abs(vectors))))
    for comp in np.ravel(vectors[chart.center]):
        if abs(comp) > tol:
            return 1 if comp > 0 else -1
    return 1


Slab = tuple[slice, ...]


def _pin(i: int) -> slice:
    return slice(i, i + 1)


def staircase_runs(chart: Chart) -> Iterator[tuple[int, Slab, Slab]]:
    """Deterministic center-out, axis-ordered traversal of the chart in
    ``2 m`` runs: ``(axis, run, previous)`` for each axis ``a`` in turn and
    each side of the center on it, upwards first.

    ``run`` selects the nodes that are free on the axes before ``a``, on the
    side of the center on axis ``a`` and at the center on the axes after it;
    its slice on axis ``a`` walks out from the center, so that position
    ``j`` along the axis of ``array[run]`` is the ``j``-th step of the side.
    ``previous`` is the same selection one step back towards the center, so
    ``array[previous]`` matches ``array[run]`` node for node.  Both are
    tuples of slices (length-1 slices on the pinned axes), so the views keep
    every grid axis.  Every node but the center lies in exactly one run,
    and each node's previous node is the center or lies in an earlier run
    or earlier on its own run, so a per-node sign, frame or integral can be
    continued across the chart without seams.
    """
    base = chart.center
    for a in range(chart.m):
        lead = (slice(None),) * a
        tail = tuple(_pin(c) for c in base[a + 1:])
        b = base[a]
        for run, prev in ((slice(b + 1, None), slice(b, -1)),
                          (slice(b - 1, None, -1), slice(b, 0, -1))):
            yield a, lead + (run,) + tail, lead + (prev,) + tail
