"""Per-node, per-angle and per-value reference implementations.

These are the straightforward loops that ``grid.align_signs``,
``codim.build_normal_frame``, ``codim._resolve_full_fixed_space`` and the
text I/O (``datafiles.read_dataset``, ``datafiles.write_dataset``,
``cli._write_plot_data``) vectorize; the equivalence tests compare the
package against them.  ``gauss_map_differential`` is the hypersurface
formula that the one-column normal frame reproduces.
"""

from __future__ import annotations

import math

import numpy as np

from isogauss.codim import (_FLIP_THRESHOLD, _center_sign, _golden_min,
                            _halpha_ops, _product_defect,
                            _signed_permutation_fit)
from isogauss.datafiles import (_BLOCK_ORDER, FORMAT_VERSION, KINDS, Dataset,
                                _validate_blocks)
from isogauss.errors import DatasetFormatError
from isogauss.grid import build_chart, grad_all


def staircase_orders(chart):
    """Center-out, axis-ordered traversal yielding ``(node, previous node)``.

    The chart center comes first with ``previous = None``; every later
    previous node was yielded earlier and is one step away along one axis.
    """
    base = chart.center
    yield base, None
    filled_ranges = [range(b, b + 1) for b in base]
    for a in range(chart.m):
        n = chart.shape[a]
        b = base[a]
        prefix_iter = list(np.ndindex(*[len(r) for r in filled_ranges[:a]]))
        for side in (range(b + 1, n), range(b - 1, -1, -1)):
            for i in side:
                step = -1 if i < b else 1
                for pre in prefix_iter:
                    lead = tuple(filled_ranges[t][pre[t]] for t in range(a))
                    yield (lead + (i,) + base[a + 1:],
                           lead + (i - step,) + base[a + 1:])
        filled_ranges[a] = range(n)


def align_signs(chart, vectors):
    """Node-by-node sign continuation with the ``>= 0`` tie rule."""
    sign = np.ones(chart.shape)
    flat = vectors.reshape(chart.shape + (-1,))
    for idx, prev in staircase_orders(chart):
        if prev is None:
            continue
        d = float(np.dot(flat[idx], flat[prev])) * sign[prev]
        sign[idx] = 1.0 if d >= 0 else -1.0
    return sign


def normal_frame(chart, spans):
    """Gram-Schmidt frame repaired node by node; returns
    ``(frame, min_overlap_det)``."""
    d = spans.shape[-1]
    Q = np.empty_like(spans, dtype=float)
    for idx in np.ndindex(*chart.shape):
        for a in range(d):
            v = spans[idx][:, a]
            for b in range(a):
                v = v - np.sum(Q[idx][:, b] * v) * Q[idx][:, b]
            Q[idx][:, a] = v / np.sqrt(np.sum(v * v))
    min_det = math.inf
    for idx, prev in staircase_orders(chart):
        if prev is None:
            continue
        D = Q[prev].T @ Q[idx]
        if np.linalg.norm(D - np.eye(d)) > _FLIP_THRESHOLD:
            G = _signed_permutation_fit(D.T)
            Q[idx] = Q[idx] @ G.T
            D = Q[prev].T @ Q[idx]
        min_det = min(min_det, float(np.linalg.det(D)))
    return Q, min_det


def gauss_map_differential(chart, nu):
    """``A = d nu`` and ``k = A^T A`` of the normalized field ``nu``,
    straight from the differences: what the one-column frame reduces to."""
    A = grad_all(nu / np.sqrt(np.sum(nu * nu, axis=-1))[..., None], chart)
    k = np.einsum("...ni,...nj->...ij", A, A)
    return A, 0.5 * (k + np.swapaxes(k, -1, -2))


def resolve_full_fixed_space(chart, length, B, k_ab_op, sign_branch):
    """Direction scan that rebuilds ``h`` and its products at every angle."""
    inter = chart.interior

    def score(psi):
        H = length[..., None] * np.array([math.cos(psi), math.sin(psi)])
        h_ops = _halpha_ops(H, B, k_ab_op)
        return float(np.mean(_product_defect(h_ops, k_ab_op)[inter]))

    npts = 180
    angles = np.linspace(0.0, math.pi, npts, endpoint=False)
    scores = np.array([score(psi) for psi in angles])
    best = float(np.min(scores))
    margin = best + 0.05 * (float(np.max(scores)) - best) + 1e-14
    step = math.pi / npts
    minima = []
    for i, sc in enumerate(scores):
        if sc <= scores[i - 1] and sc <= scores[(i + 1) % npts] and sc <= margin:
            psi = _golden_min(score, angles[i] - step, angles[i] + step)
            minima.append((score(psi), psi % math.pi))
    candidates = []
    for _, psi in sorted(minima):
        H = length[..., None] * np.array([math.cos(psi), math.sin(psi)])
        candidates.append(_center_sign(chart, H, sign_branch))
    sign = 1 if sign_branch >= 0 else -1
    candidates.sort(key=lambda H: -sign * float(np.sum(H[chart.center])))
    return candidates


def _fmt(x):
    return f"{x:.17g}"


def write_dataset(path, dataset):
    """Dataset writer that formats one value at a time."""
    chart = dataset.chart
    lines = ["# isogauss dataset",
             f"format_version = {FORMAT_VERSION}",
             f"kind = {dataset.kind}",
             f"m = {chart.m}",
             f"n = {dataset.n}",
             "grid_shape = " + " ".join(str(s) for s in chart.shape),
             "spacing = " + " ".join(_fmt(dx) for dx in chart.spacing),
             "origin = " + " ".join(_fmt(x) for x in chart.origin)]
    for name in _BLOCK_ORDER:
        if name not in dataset.blocks:
            continue
        rows = dataset.blocks[name].reshape(chart.num_points, -1)
        lines.append(f"begin {name}")
        lines.extend(" ".join(_fmt(v) for v in row) for row in rows)
        lines.append(f"end {name}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path):
    """Dataset reader that parses one token at a time with ``float()``."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read dataset: {exc}") from exc
    header = {}
    blocks = {}
    current = None
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("begin "):
            if current is not None:
                raise DatasetFormatError(f"line {ln}: nested block")
            current = line[6:].strip()
            blocks[current] = []
            continue
        if line.startswith("end "):
            if current != line[4:].strip():
                raise DatasetFormatError(f"line {ln}: mismatched block end")
            current = None
            continue
        if current is not None:
            try:
                blocks[current].append([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise DatasetFormatError(f"line {ln}: bad number: {exc}") from exc
        else:
            if "=" not in line:
                raise DatasetFormatError(f"line {ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    if current is not None:
        raise DatasetFormatError(f"unterminated block '{current}'")

    try:
        version = int(header["format_version"])
        kind = header["kind"]
        m = int(header["m"])
        n = int(header["n"])
        shape = tuple(int(t) for t in header["grid_shape"].split())
        spacing = tuple(float(t) for t in header["spacing"].split())
        origin = tuple(float(t) for t in header["origin"].split())
    except KeyError as exc:
        raise DatasetFormatError(f"missing header key {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError(f"bad header value: {exc}") from exc
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unrecognized format_version {version}")
    if kind not in KINDS:
        raise DatasetFormatError(f"unrecognized kind '{kind}'")
    chart = build_chart(m, shape, spacing, origin)

    arrays = {}
    for name, rows in blocks.items():
        if not rows:
            raise DatasetFormatError(f"block '{name}' is empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DatasetFormatError(f"block '{name}' has ragged rows")
        arr = np.array(rows, dtype=float)
        if arr.shape[0] != chart.num_points:
            raise DatasetFormatError(
                f"block '{name}' has {arr.shape[0]} rows, expected "
                f"{chart.num_points}")
        if not np.all(np.isfinite(arr)):
            raise DatasetFormatError(f"block '{name}' contains non-finite values")
        arrays[name] = arr.reshape(chart.shape + (width,))

    _validate_blocks(kind, chart, n, arrays)
    return Dataset(kind=kind, chart=chart, n=n, blocks=arrays)


def write_plot_data(path, chart, u):
    """``.xyz.txt`` writer with one Python line per node."""
    coords = chart.mesh().reshape(chart.num_points, chart.m)
    pts = u.reshape(chart.num_points, -1)
    header = " ".join([f"x{i+1}" for i in range(chart.m)]
                      + [f"u{i+1}" for i in range(pts.shape[1])])
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + header + "\n")
        for c, p in zip(coords, pts):
            fh.write(" ".join(f"{v:.17g}" for v in np.concatenate([c, p])) + "\n")
