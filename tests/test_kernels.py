"""Semantics of the sparse kernels. Trained weights are compared exactly,
so the kernels must be deterministic down to summation order."""

from __future__ import annotations

import math

from nlinstruct import kernels


def test_dot_ignores_missing_keys():
    assert kernels.dot({"a": 2.0}, {"b": 10.0}) == 0.0
    assert kernels.dot({"a": 2.0}, {"a": 1.5, "b": 10.0}) == 3.0


def test_dot_is_order_independent():
    feats_fwd = {"a": 1.0, "b": 2.0, "c": 3.0}
    feats_rev = dict(reversed(list(feats_fwd.items())))
    weights = {"a": 0.1234567, "b": -9.87, "c": 3.1415}
    assert kernels.dot(weights, feats_fwd) == kernels.dot(weights, feats_rev)


def test_adagrad_update_truncates_small_weights_to_exact_zero():
    weights, sumsq = {}, {}
    kernels.adagrad_update(weights, sumsq, {"w": 1e-6}, 0.1, 10.0, 1e-8)
    assert weights == {}
    assert sumsq["w"] == 1e-6 * 1e-6


def test_adagrad_update_applies_per_coordinate_rates():
    weights, sumsq = {}, {}
    kernels.adagrad_update(weights, sumsq, {"w": 2.0}, 0.5, 0.0, 0.0)
    # first step: lr = 0.5 / sqrt(4) = 0.25; ascent by lr * 2
    assert math.isclose(weights["w"], 0.5)
    kernels.adagrad_update(weights, sumsq, {"w": 2.0}, 0.5, 0.0, 0.0)
    assert math.isclose(weights["w"], 0.5 + 0.5 / math.sqrt(8.0) * 2.0)
