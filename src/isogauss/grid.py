"""Rectangular coordinate charts and finite-difference calculus on sampled fields.

Array layout convention used throughout the package: a field sampled on a
chart with grid shape ``(N_1, ..., N_m)`` is stored as an ndarray of shape
``(N_1, ..., N_m, *index_shape)`` -- grid axes first, component indices
after.  Finite differencing appends the differentiation index as the *last*
axis, so ``grad_all(f)[..., i] == d f / d x_i``.

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

from .errors import ConfigurationError

MIN_POINTS_PER_AXIS = 5


def check_shape(shape: tuple[int, ...]) -> None:
    """Raise :class:`ConfigurationError` unless every axis has at least
    ``MIN_POINTS_PER_AXIS`` points, the fewest the stencils need."""
    if any(n < MIN_POINTS_PER_AXIS for n in shape):
        raise ConfigurationError(
            f"grid too small for 2nd-order stencils: every axis needs "
            f">= {MIN_POINTS_PER_AXIS} points, got {tuple(shape)}")


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
        if any(not np.isfinite(dx) or dx <= 0 for dx in self.spacing):
            raise ConfigurationError(f"spacings must be positive, got {self.spacing}")
        if any(not np.isfinite(x) for x in self.origin):
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
        return [self.origin[i] + self.spacing[i] * np.arange(self.shape[i])
                for i in range(self.m)]

    def mesh(self) -> np.ndarray:
        """Coordinates of every node, shape ``(*shape, m)``."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)

    def node_coords(self, index: tuple[int, ...]) -> np.ndarray:
        return np.array([self.origin[i] + self.spacing[i] * index[i]
                         for i in range(self.m)])

    def refine(self, factor: int = 2) -> "Chart":
        """Same coordinate box with ``factor``-times finer spacing."""
        shape = tuple(factor * (n - 1) + 1 for n in self.shape)
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


def deriv(values: np.ndarray, chart: Chart, axis: int) -> np.ndarray:
    """Second-order finite difference along grid axis ``axis``."""
    if not 0 <= axis < chart.m:
        raise ConfigurationError(f"axis {axis} out of range for m = {chart.m}")
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape)
    _deriv_into(values, chart.spacing[axis], axis, out)
    return out


def grad_all(values: np.ndarray, chart: Chart) -> np.ndarray:
    """All first derivatives, on a new trailing axis.

    The ``(*values.shape, m)`` result is allocated once and each axis's
    derivative is written into its slot, with no stacking copy.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape + (chart.m,))
    for a in range(chart.m):
        _deriv_into(values, chart.spacing[a], a, out[..., a])
    return out


def interior_max(chart: Chart, pointwise: np.ndarray, margin: int = 2) -> float:
    """Max of a per-node scalar over the interior region."""
    return float(np.max(pointwise[chart.interior_slices(margin)]))


def align_signs(chart: Chart, vectors: np.ndarray) -> np.ndarray:
    """Per-node +-1 factors making a sign-ambiguous vector field continuous.

    ``vectors`` holds one flat vector per node (trailing axis).  The center
    keeps sign +1; every other node takes the sign that makes its dot product
    with its already-aligned staircase neighbor nonnegative (a zero dot
    product keeps +1).  The neighbors of a whole slab lie in the previous
    slab, so each slab is settled by one einsum and one ``where``.
    Meaningful when the underlying field is continuous and nonvanishing, so
    adjacent raw vectors are near-parallel.
    """
    sign = np.ones(chart.shape)
    flat = vectors.reshape(chart.shape + (-1,))
    for slab, prev in staircase_slabs(chart):
        if prev is None:
            continue
        d = np.einsum("...k,...k->...", flat[slab], flat[prev]) * sign[prev]
        sign[slab] = np.where(d >= 0, 1.0, -1.0)
    return sign


def center_sign(chart: Chart, vectors: np.ndarray) -> int:
    """The sign branch rule: +-1 making a vector field point "up" at the
    chart center.

    ``vectors`` holds one vector per node (trailing axes).  The result is the
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


def staircase_slabs(chart: Chart) -> Iterator[tuple[Slab, Slab | None]]:
    """Deterministic center-out, axis-ordered traversal, one slab at a time.

    The first item is ``(center, None)``.  After it, for each axis ``a`` in
    turn and each position ``i`` on that axis walking out from the center
    (upwards first, then downwards), the item is ``(slab, previous)``: the
    nodes that are free on the axes before ``a``, at ``i`` on axis ``a`` and
    at the center on the axes after it, and the same nodes one step back
    towards the center on axis ``a``.  Both are tuples of slices (length-1
    slices on the pinned axes), so ``array[slab]`` and ``array[previous]``
    are matching views that keep every grid axis.  Every node lies in
    exactly one yielded slab, and each previous slab is covered by the items
    before it, so a per-node sign or frame can be continued across the chart
    without seams in ``sum(shape) - m + 1`` steps.
    """
    def pin(i):
        return slice(i, i + 1)

    base = chart.center
    yield tuple(pin(c) for c in base), None
    for a in range(chart.m):
        lead = (slice(None),) * a
        tail = tuple(pin(c) for c in base[a + 1:])
        b = base[a]
        for side, step in ((range(b + 1, chart.shape[a]), 1),
                           (range(b - 1, -1, -1), -1)):
            for i in side:
                yield lead + (pin(i),) + tail, lead + (pin(i - step),) + tail
