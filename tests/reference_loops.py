"""Per-node and per-angle reference implementations of the continuation
and direction-scan loops.

These are the straightforward loops that ``grid.align_signs``,
``codim.build_normal_frame`` and ``codim._resolve_full_fixed_space``
vectorize; the equivalence tests compare the package against them.
"""

from __future__ import annotations

import math

import numpy as np

from isogauss.codim import (_FLIP_THRESHOLD, _center_sign, _golden_min,
                            _halpha_ops, _product_defect,
                            _signed_permutation_fit)


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
    """QR frame repaired node by node; returns ``(frame, min_overlap_det)``."""
    d = spans.shape[-1]
    Q, R = np.linalg.qr(np.asarray(spans, dtype=float))
    diag_sign = np.sign(np.einsum("...aa->...a", R))
    Q = Q * np.where(diag_sign == 0, 1.0, diag_sign)[..., None, :]
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


def resolve_full_fixed_space(chart, length, B, k_ab_op, options):
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
        candidates.append(_center_sign(chart, H, options.sign_branch))
    sign = 1 if options.sign_branch >= 0 else -1
    candidates.sort(key=lambda H: -sign * float(np.sum(H[chart.center])))
    return candidates
