from __future__ import annotations

import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from nlinstruct import kernels
from nlinstruct.errors import NlinstructError
from nlinstruct.training import (
    DomainPartition,
    PrefixStore,
    TrainConfig,
    adagrad,
    build_grid,
    example_log_likelihood,
    final_partition,
    gmdp,
    load_model,
    partition_for_fold,
    save_model,
    tune_hyperparameters,
)

from conftest import leave_one_out, make_toy_world


class FakeCandidate:
    """A candidate as the trainer reads it: its feature dict, its
    denotation, and its derivation's score, which the parser computes
    under the current weights ``theta`` and equals ``kernels.dot``."""

    def __init__(self, theta, features, denotation):
        self.features = features
        self.denotation = denotation
        self.deriv = SimpleNamespace(score=kernels.dot(theta, features))


def test_score_is_a_sparse_dot_product():
    assert kernels.dot({}, {}) == 0.0
    assert kernels.dot({"a": 2.0}, {"a": 1.0, "b": 5.0}) == 2.0


def test_score_is_linear():
    theta = {"a": 1.5, "b": -0.5}
    f1, f2 = {"a": 2.0}, {"a": 1.0, "b": 4.0}
    merged = {"a": 3.0, "b": 4.0}
    assert math.isclose(kernels.dot(theta, merged), kernels.dot(theta, f1) + kernels.dot(theta, f2))


def _probability(theta, feature_dicts, correct: int) -> float:
    """The model probability of candidate ``correct``, as the trainer's
    softmax gives it under ``theta``: the likelihood of a denotation only
    it has."""
    denots = [i == correct for i in range(len(feature_dicts))]
    cands = [FakeCandidate(theta, f, d) for f, d in zip(feature_dicts, denots)]
    logp, _ = example_log_likelihood(cands, denots, True)
    return math.exp(logp)


def test_distribution_single_candidate():
    assert _probability({}, [{}], 0) == 1.0


def test_distribution_equal_scores():
    feature_dicts = [{"a": 1.0}, {"a": 1.0}]
    for correct in (0, 1):
        assert math.isclose(_probability({"a": 3.0}, feature_dicts, correct), 0.5, rel_tol=1e-12)


def test_distribution_log_two_gap():
    feature_dicts = [{"a": 1.0}, {}]
    theta = {"a": math.log(2.0)}
    assert math.isclose(_probability(theta, feature_dicts, 0), 2 / 3, rel_tol=1e-12)
    assert math.isclose(_probability(theta, feature_dicts, 1), 1 / 3, rel_tol=1e-12)


def test_distribution_sums_to_one():
    rng = random.Random(0)
    for _ in range(50):
        feature_dicts = [
            {f"f{i}": rng.uniform(-2, 2) for i in range(rng.randint(1, 6))}
            for _ in range(rng.randint(1, 9))
        ]
        theta = {f"f{i}": rng.uniform(-3, 3) for i in range(6)}
        total = sum(_probability(theta, feature_dicts, i) for i in range(len(feature_dicts)))
        assert abs(total - 1.0) < 1e-9


def test_loglik_degenerate_single_correct():
    logp, grad = example_log_likelihood([FakeCandidate({}, {"x": 1.0}, "goal")], ["goal"], "goal")
    assert logp == 0.0
    assert all(abs(v) < 1e-15 for v in grad.values())


def test_loglik_two_identical_candidates_one_correct():
    theta = {"x": 0.7}
    cands = [FakeCandidate(theta, {"x": 1.0}, "goal"), FakeCandidate(theta, {"x": 1.0}, "other")]
    logp, grad = example_log_likelihood(cands, ["goal", "other"], "goal")
    assert math.isclose(logp, math.log(0.5), rel_tol=1e-12)
    assert all(abs(v) < 1e-12 for v in grad.values())


def test_no_correct_candidate_is_skipped():
    assert example_log_likelihood([FakeCandidate({}, {}, "a")], ["a"], "goal") is None


def _random_instance(rng):
    features = [f"f{i}" for i in range(rng.randint(2, 8))]
    feature_dicts = []
    denots = []
    n = rng.randint(2, 7)
    correct_at = rng.randrange(n)
    for i in range(n):
        feats = {k: round(rng.uniform(-2, 2), 3) for k in rng.sample(features, rng.randint(1, len(features)))}
        denot = "goal" if (i == correct_at or rng.random() < 0.3) else f"other{i}"
        feature_dicts.append(feats)
        denots.append(denot)
    theta = {k: round(rng.uniform(-1, 1), 3) for k in features}
    return theta, feature_dicts, denots


def _log_likelihood(theta, feature_dicts, denots):
    """The trainer's output for candidates scored under ``theta``."""
    cands = [FakeCandidate(theta, f, d) for f, d in zip(feature_dicts, denots)]
    return example_log_likelihood(cands, denots, "goal")


def gradient_matches_finite_differences(rng, instances: int) -> int:
    """Shared oracle: central finite differences of the log-likelihood,
    the candidates scored again under each perturbed theta."""
    checked = 0
    for _ in range(instances):
        theta, feature_dicts, denots = _random_instance(rng)
        out = _log_likelihood(theta, feature_dicts, denots)
        assert out is not None
        _, grad = out
        keys = set(grad) | {k for f in feature_dicts for k in f}
        h = 1e-5
        for k in keys:
            up = dict(theta)
            up[k] = up.get(k, 0.0) + h
            down = dict(theta)
            down[k] = down.get(k, 0.0) - h
            f_up = _log_likelihood(up, feature_dicts, denots)[0]
            f_down = _log_likelihood(down, feature_dicts, denots)[0]
            fd = (f_up - f_down) / (2 * h)
            analytic = grad.get(k, 0.0)
            assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd), abs(analytic)), (
                k, analytic, fd,
            )
        checked += 1
    return checked


def test_gradient_matches_finite_differences():
    assert gradient_matches_finite_differences(random.Random(17), 30) == 30


# ---------------------------------------------------------------------------
# Training over the toy domain
# ---------------------------------------------------------------------------


_toy_world = make_toy_world


def test_adagrad_zero_iterations_returns_init():
    _, examples, pipeline = _toy_world()
    init = {"w": 1.25}
    out = adagrad(examples["toya"], init, TrainConfig(iterations=0), pipeline, iterations=0)
    assert out == init and out is not init


def test_huge_l1_forces_exact_zeros():
    _, examples, pipeline = _toy_world()
    cfg = TrainConfig(l1=10.0, step_size=0.01, iterations=2)
    out = adagrad(examples["toya"], {}, cfg, pipeline)
    assert out == {}


def test_adagrad_learns_the_separable_toy_problem():
    from nlinstruct.evaluation import mean_credit

    _, examples, pipeline = _toy_world(per_domain=16)
    cfg = TrainConfig(l1=0.001, step_size=0.1, iterations=3)
    weights = adagrad(examples["toya"], {}, cfg, pipeline)
    assert mean_credit(pipeline, weights, examples["toya"]) >= 0.95


def test_one_unregularized_pass_increases_example_likelihood():
    feature_dicts = [{"a": 1.0, "b": 0.5}, {"a": 0.2, "c": 1.0}, {"b": 1.5}]
    denots = ["goal", "other", "other"]
    theta = {"a": 0.1, "b": -0.2, "c": 0.3}
    before, grad = _log_likelihood(theta, feature_dicts, denots)
    kernels.adagrad_update(theta, {}, grad, 1e-3, 0.0, 1e-8)
    after, _ = _log_likelihood(theta, feature_dicts, denots)
    assert after > before


def test_training_is_deterministic():
    _, examples, pipeline = _toy_world()
    cfg = TrainConfig(l1=0.01, step_size=0.1, iterations=2, seed=5)
    a = adagrad(examples["toya"], {}, cfg, pipeline)
    b = adagrad(examples["toya"], {}, cfg, pipeline)
    assert a == b


def test_gmdp_zero_second_step_returns_first_step_weights():
    _, examples, pipeline = _toy_world()
    cfg = TrainConfig(iterations=0, iterations_step1=2)
    part = DomainPartition(("toya",), ("toyb",))
    two_step = gmdp(part, examples, cfg, pipeline)
    direct = adagrad(examples["toya"], {}, cfg, pipeline, iterations=2)
    assert two_step == direct


def test_gmdp_zero_first_step_is_bitwise_plain_adagrad():
    _, examples, pipeline = _toy_world()
    cfg = TrainConfig(iterations=2, iterations_step1=0, seed=9)
    part = DomainPartition(("toya",), ("toyb",))
    two_step = gmdp(part, examples, cfg, pipeline)
    plain = adagrad(examples["toyb"], {}, cfg, pipeline, iterations=2)
    assert two_step == plain  # dict equality on floats, i.e. bit-for-bit
    # no partition at all: the AdaGrad baseline over every example, in domain order
    baseline = gmdp(None, examples, cfg, pipeline)
    pool = examples["toya"] + examples["toyb"]
    assert _bits(baseline) == _bits(adagrad(pool, {}, cfg, pipeline)) and baseline != plain


def test_gmdp_swapped_partitions_is_still_deterministic():
    _, examples, pipeline = _toy_world()
    cfg = TrainConfig(iterations=1, iterations_step1=1, seed=3)
    ab = gmdp(DomainPartition(("toya",), ("toyb",)), examples, cfg, pipeline)
    ba = gmdp(DomainPartition(("toyb",), ("toya",)), examples, cfg, pipeline)
    ab2 = gmdp(DomainPartition(("toya",), ("toyb",)), examples, cfg, pipeline)
    assert ab == ab2
    assert isinstance(ba, dict)


def _bits(d: dict) -> list:
    """A dict's items in insertion order, floats as their exact hex."""
    return [(k, v.hex()) for k, v in d.items()]


def test_epoch_k_of_an_n_epoch_run_is_a_k_epoch_run():
    _, examples, pipeline = _toy_world(per_domain=6)
    toya = examples["toya"]
    cfg = TrainConfig(l1=0.01, step_size=0.1, seed=4)
    sumsq: dict = {}
    at_epoch = []  # (weights, sums) as each epoch of the 3-epoch run starts
    calls = 0

    class Spy:
        def analyze(self, example, weights, parses=None):
            nonlocal calls
            if calls % len(toya) == 0:
                at_epoch.append((_bits(weights), _bits(sumsq)))
            calls += 1
            return pipeline.analyze(example, weights, parses)

    full = adagrad(toya, {}, cfg, Spy(), iterations=3, sumsq=sumsq)
    at_epoch.append((_bits(full), _bits(sumsq)))
    assert len({repr(x) for x in at_epoch}) == 4  # every epoch moved the weights
    for k in range(4):
        sums: dict = {}
        weights = adagrad(toya, {}, cfg, pipeline, iterations=k, sumsq=sums)
        assert (_bits(weights), _bits(sums)) == at_epoch[k]
        # and a run resumed from the k-epoch state ends where the 3-epoch run does
        resumed = adagrad(toya, weights, cfg, pipeline, iterations=3, sumsq=sums, start=k)
        assert (_bits(resumed), _bits(sums)) == at_epoch[3]


def test_second_step_reads_the_first_steps_sums_unchanged():
    _, examples, pipeline = _toy_world(("toya", "toyb", "toyc"), per_domain=6)
    cfg = TrainConfig(iterations=2, iterations_step1=2, seed=3, reset_accumulators=False)
    first: dict = {}
    theta1 = adagrad(examples["toya"], {}, cfg, pipeline, iterations=2, sumsq=first)
    store = PrefixStore()
    for second in ("toyb", "toyc"):
        # the second partition's step 1 comes from the store, after the
        # first partition's step 2 trained on from the same sums
        sums = dict(first)
        want = adagrad(examples[second], theta1, cfg, pipeline, iterations=2, sumsq=sums)
        part = DomainPartition(("toya",), (second,))
        assert _bits(gmdp(part, examples, cfg, pipeline, store)) == _bits(want)
        assert _bits(gmdp(part, examples, cfg, pipeline)) == _bits(want)
        reset = replace(cfg, reset_accumulators=True)
        assert gmdp(part, examples, reset, pipeline, store) != want
    # no pipeline: the first step must come from the store, untrained
    assert [_bits(d) for d in store.train(examples["toya"], cfg, None, 2)] == [
        _bits(theta1), _bits(first)]


def test_partition_validation():
    with pytest.raises(NlinstructError):
        DomainPartition((), ("a",))
    with pytest.raises(NlinstructError):
        DomainPartition(("a",), ("a", "b"))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_gmdp_grid_has_144_points():
    grid = build_grid("gmdp", ["d1", "d2", "d3", "d4", "d5", "d6"], seed=0)
    assert len(grid) == 144
    orderings = {g.domain_ordering for g in grid}
    assert len(orderings) == 3
    assert all(sorted(o) == ["d1", "d2", "d3", "d4", "d5", "d6"] for o in orderings)


def test_adagrad_grid_has_12_points():
    assert len(build_grid("adagrad", ["a", "b", "c"], seed=0)) == 12


def test_grid_overrides_shrink_the_search():
    grid = build_grid(
        "gmdp", ["a", "b", "c", "d"], seed=1,
        overrides={"l1": [0.01], "step_size": [0.1], "iterations": [2],
                   "partition_sizes": [2], "iterations_step1": [1], "num_orderings": 1},
    )
    assert len(grid) == 1


def test_singleton_grid_is_selected_without_training():
    cfg = TrainConfig(l1=0.5)
    calls = {"n": 0}

    def accuracy_fn(weights, examples):
        calls["n"] += 1
        return 0.0

    folds = leave_one_out({"a": [], "b": [], "c": []})
    chosen = tune_hyperparameters([cfg], folds, "adagrad", None, accuracy_fn)
    assert chosen is cfg and calls["n"] == 0


def test_tuning_ties_break_toward_earliest_grid_entry():
    _, examples, pipeline = _toy_world(("toya", "toyb", "toyc"), per_domain=4)
    grid = [TrainConfig(iterations=0, seed=1), TrainConfig(iterations=0, seed=2)]
    chosen = tune_hyperparameters(
        grid, leave_one_out(examples), "adagrad", pipeline,
        lambda w, ex: 0.5,
    )
    assert chosen is grid[0]


def test_partition_for_fold_excludes_held_out_domain():
    cfg = TrainConfig(partition_size=2, domain_ordering=("a", "b", "c", "d"))
    part = partition_for_fold(cfg, ["a", "c", "d"])
    assert part == DomainPartition(("a", "c"), ("d",))
    assert partition_for_fold(replace(cfg, partition_size=3), ["a", "c", "d"]) is None


def test_final_partition_grows_the_larger_side():
    # tuned over 5-domain folds with M=3: (3,2) -> final (4,2) over 6
    cfg = TrainConfig(partition_size=3, domain_ordering=("a", "b", "c", "d", "e", "f"))
    part = final_partition(cfg, ["a", "b", "c", "d", "e", "f"])
    assert part.d1 == ("a", "b", "c", "d") and part.d2 == ("e", "f")
    # tuned (2,3) -> final (2,4)
    cfg = TrainConfig(partition_size=2, domain_ordering=("a", "b", "c", "d", "e", "f"))
    part = final_partition(cfg, ["a", "b", "c", "d", "e", "f"])
    assert part.d1 == ("a", "b") and part.d2 == ("c", "d", "e", "f")
    # equal fold sides grow the first
    cfg = TrainConfig(partition_size=2, domain_ordering=("a", "b", "c", "d", "e"))
    part = final_partition(cfg, ["a", "b", "c", "d", "e"])
    assert part.d1 == ("a", "b", "c") and part.d2 == ("d", "e")


def test_model_round_trip(tmp_path):
    cfg = TrainConfig(l1=0.01, step_size=0.1, iterations=2, domain_ordering=("a", "b"))
    weights = {"cooc|x|y": 1.5, "size>2": -0.25}
    path = tmp_path / "model.json"
    save_model(path, weights, cfg, DomainPartition(("a",), ("b",)))
    w2, cfg2, part2, new_features, logic_filter = load_model(path)
    assert w2 == weights
    assert cfg2 == cfg
    assert part2 == DomainPartition(("a",), ("b",))
    assert new_features is True and logic_filter is True  # a model without an ablation block
    save_model(path, weights, cfg, extra={"ablation": {"use_new_features": False}})
    assert load_model(path)[2:] == (None, False, True)
    save_model(path, weights, cfg, extra={"ablation": {"use_logic_filter": False}})
    assert load_model(path)[2:] == (None, True, False)
