"""Sparse vector kernels over string-keyed dicts.

Iteration is in sorted key order, so that summation order never depends
on dict insertion history and trained weights are reproducible bit for
bit. The trainer calls :func:`adagrad_update`. :func:`dot` and
:func:`add_scaled` have no caller in the package: they are the
references that tests and the benchmark harness check against. The
parser's :class:`~nlinstruct.features.ChartScorer` sums ``weight *
value`` in the same sorted key order, so its scores equal ``dot`` over the
feature dict bit for bit, and the gradient adds each candidate's features
from its score key (``UtteranceContext.add_features``) in the order and
with the float operations of ``add_scaled`` over that dict; change each
pair together or not at all.
"""

from __future__ import annotations

import math

# the only backend; run records of the benchmark harness name it
BACKEND = "python"


def dot(weights: dict, feats: dict) -> float:
    """Sparse dot product; absent keys count as weight 0."""
    total = 0.0
    get = weights.get
    for k in sorted(feats):
        w = get(k)
        if w is not None:
            total += w * feats[k]
    return total


def add_scaled(acc: dict, feats: dict, scale: float) -> None:
    """acc += scale * feats, in place."""
    get = acc.get
    for k in sorted(feats):
        acc[k] = get(k, 0.0) + feats[k] * scale


def adagrad_update(
    weights: dict,
    sumsq: dict,
    grad: dict,
    step_size: float,
    l1: float,
    eps: float,
) -> None:
    """One ascent step with per-coordinate AdaGrad rates and an L1
    proximal truncation; exact zeros are removed from the weight map."""
    for k in sorted(grad):
        g = grad[k]
        if g == 0.0:
            continue
        s = sumsq.get(k, 0.0) + g * g
        sumsq[k] = s
        lr = step_size / math.sqrt(s + eps)
        w = weights.get(k, 0.0) + lr * g
        shrink = l1 * lr
        if w > shrink:
            w -= shrink
        elif w < -shrink:
            w += shrink
        else:
            w = 0.0
        if w == 0.0:
            weights.pop(k, None)
        else:
            weights[k] = w
