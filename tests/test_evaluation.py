from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from nlinstruct import evaluation, training
from nlinstruct.domains.base import Example
from nlinstruct.errors import ConfigError, NlinstructError
from nlinstruct.evaluation import (
    ExampleScore,
    ExperimentSpec,
    InstrumentedRegistry,
    ablation_table,
    credit_candidates,
    mean_credit,
    paired_bootstrap,
    run_experiment,
    score_example,
    training_examples,
)
from nlinstruct.kb import TextVal
from nlinstruct.logic import Call, ReverseJoin, ValueLit, execute_to_call
from nlinstruct.parser import Candidate, Derivation, ParserConfig, Pipeline

from conftest import make_toy_domain


def _fake_candidate(score: float, denotation) -> Candidate:
    deriv = Derivation(ValueLit(TextVal("x")), "Root", 3, (), ())
    deriv.score = score
    return Candidate(deriv, denotation)


def test_unique_correct_candidate_scores_full_credit():
    cands = [_fake_candidate(2.0, "goal"), _fake_candidate(1.0, "other")]
    assert credit_candidates(cands, "goal") == (1.0, 1, 1)


def test_four_way_tie_with_two_correct_scores_half():
    cands = [
        _fake_candidate(3.0, "goal"),
        _fake_candidate(3.0, "goal"),
        _fake_candidate(3.0, "a"),
        _fake_candidate(3.0, "b"),
        _fake_candidate(1.0, "goal"),
    ]
    credit, ties, correct = credit_candidates(cands, "goal")
    assert (credit, ties, correct) == (0.5, 4, 2)


def _toy_example(domain, seed=3):
    rng = random.Random(seed)
    state = domain.generate_state(rng, {"things": (2, 3)})
    tag = sorted({t.object.value for t in state.triples if t.relation == "tag"})[0]
    lf = Call(domain.method("zap"), (ReverseJoin("tag", ValueLit(TextVal(tag))),))
    desired = domain.logic(state, execute_to_call(lf, state))
    return Example(f"{domain.id}-{seed}", domain.id, state, f"zap {tag}", desired)


def test_parse_failure_scores_zero():
    domain = make_toy_domain()
    ex = _toy_example(domain)
    empty_pipeline = Pipeline(lambda _d: domain, ParserConfig(beam_size=1, max_rules=1))
    got = score_example(empty_pipeline, {}, ex)
    assert got.parse_failed and got.credit == 0.0 and got.tie_count == 0


def test_score_example_over_real_inference():
    domain = make_toy_domain()
    ex = _toy_example(domain)
    pipeline = Pipeline(lambda _d: domain, ParserConfig(beam_size=30, max_rules=7))
    got = score_example(pipeline, {"anchored|text": 2.0}, ex)
    assert not got.parse_failed
    assert 0.0 <= got.credit <= 1.0
    assert got.tie_count >= 1


def test_aggregate_accuracy_ignores_example_order():
    domain = make_toy_domain()
    pipeline = Pipeline(lambda _d: domain, ParserConfig(beam_size=25, max_rules=7))
    examples = [_toy_example(domain, seed) for seed in range(6)]
    weights = {"rule|anchor-text": 1.0}
    forward = mean_credit(pipeline, weights, examples)
    backward = mean_credit(pipeline, weights, list(reversed(examples)))
    assert forward == backward


def test_mean_credit_refuses_empty_lists():
    domain = make_toy_domain()
    pipeline = Pipeline(lambda _d: domain, ParserConfig())
    with pytest.raises(NlinstructError):
        mean_credit(pipeline, {}, [])


# ---------------------------------------------------------------------------
# Paired bootstrap
# ---------------------------------------------------------------------------


def _scores(values, prefix="e"):
    return [ExampleScore(f"{prefix}{i}", v, 1, int(v), False) for i, v in enumerate(values)]


def test_identical_scores_are_not_significant():
    a = _scores([1.0, 0.0, 0.5, 1.0])
    p, significant = paired_bootstrap(a, _scores([1.0, 0.0, 0.5, 1.0]), iterations=500)
    assert p == 1.0 and not significant


def test_clear_gap_is_significant():
    a = _scores([1.0] * 100)
    b = _scores([0.0] * 100)
    p, significant = paired_bootstrap(a, b, iterations=2000)
    assert significant and p < 0.05


def test_bootstrap_is_seeded_and_reproducible():
    rng = random.Random(1)
    a = _scores([rng.random() for _ in range(50)])
    b = _scores([rng.random() * 0.8 for _ in range(50)])
    first = paired_bootstrap(a, b, iterations=3000, seed=7)
    second = paired_bootstrap(a, b, iterations=3000, seed=7)
    assert first == second


@pytest.mark.parametrize("block", [7, evaluation.BOOTSTRAP_BLOCK])
def test_blocked_bootstrap_equals_the_one_shot_draw(monkeypatch, block):
    # resamples drawn a block of rows at a time are the rows of a single
    # (iterations, n) draw, and a count over iterations is their mean
    monkeypatch.setattr(evaluation, "BOOTSTRAP_BLOCK", block)
    rng = random.Random(5)
    p_values = []
    for n, seed, iterations in ((1, 0, 1), (3, 2, 20), (9, 1, 13), (50, 7, 2500),
                                (51, 11, 1001), (200, 3, 1999)):
        credits_a = [rng.random() for _ in range(n)]
        credits_b = [min(1.0, c + rng.uniform(-0.5, 0.45)) for c in credits_a]
        if sum(credits_b) >= sum(credits_a):  # the first system must be ahead
            credits_b = [c * 0.5 for c in credits_b]
        a, b = np.array(credits_a), np.array(credits_b)
        idx = np.random.default_rng(seed).integers(0, n, size=(iterations, n))
        want = float(np.mean(a[idx].mean(axis=1) <= b[idx].mean(axis=1)))
        got = paired_bootstrap(_scores(credits_a), _scores(credits_b), iterations, 0.05, seed)
        assert got == (want, want < 0.05), (n, seed, iterations)
        p_values.append(want)
    assert any(0 < p < 1 for p in p_values), p_values


def test_misaligned_ids_are_rejected():
    a = _scores([1.0, 0.0])
    b = _scores([1.0, 0.0], prefix="x")
    with pytest.raises(NlinstructError):
        paired_bootstrap(a, b)


# ---------------------------------------------------------------------------
# Experiment protocol
# ---------------------------------------------------------------------------


def _toy_registry(domain_ids=("toya", "toyb", "toyc"), per_domain=6, with_test=False):
    domains = {}
    dataset = {}
    for did in domain_ids:
        domain = make_toy_domain(did)
        domains[did] = domain
        examples = [_toy_example(domain, seed) for seed in range(per_domain)]
        splits = {"train": examples}
        if with_test:
            splits["test"] = [_toy_example(domain, seed) for seed in range(100, 100 + per_domain)]
        dataset[did] = splits
    return InstrumentedRegistry(domains, dataset)


_FAST_GRID = {
    "l1": [0.001], "step_size": [0.1], "iterations": [1],
    "partition_sizes": [1], "iterations_step1": [1], "num_orderings": 1,
}


def test_zero_shot_experiment_isolates_the_target_domain():
    registry = _toy_registry(("toya", "toyb", "toyc", "toyd"))
    spec = ExperimentSpec(target_domain="toyd", use_gmdp=True)
    report = run_experiment(spec, registry, ParserConfig(beam_size=20, max_rules=7), _FAST_GRID)
    assert report["isolation"]["clean"]
    assert report["isolation"]["target_accesses_outside_evaluation"] == 0
    assert report["accuracy"] is not None
    assert report["test_split"] == "train"
    assert len(report["per_example"]) == 6
    assert report["partition"] is not None
    # the registry did see the target, but only while evaluating
    eval_hits = [e for e in registry.accesses if e[2] == "toyd"]
    assert eval_hits and all(e[0] == "evaluation" for e in eval_hits)


def test_isolation_is_checked_on_each_experiments_own_accesses(monkeypatch):
    registry = _toy_registry(("toya", "toyb", "toyc", "toyd"))
    config = ParserConfig(beam_size=20, max_rules=7)
    # the first experiment tunes and trains on toya; the second targets it
    run_experiment(ExperimentSpec("toyd"), registry, config, _FAST_GRID)
    assert any(e[0] == "tuning" and e[2] == "toya" for e in registry.accesses)
    report = run_experiment(ExperimentSpec("toya"), registry, config, _FAST_GRID)
    assert report["isolation"] == {"target_accesses_outside_evaluation": 0, "clean": True}
    # a real read of the target while tuning is still flagged, and only it
    original = evaluation.tune_config

    def leaky(spec, examples_by_domain, pipeline, grid_overrides=None, store=None):
        registry.examples(spec.target_domain, "train")
        return original(spec, examples_by_domain, pipeline, grid_overrides, store)

    monkeypatch.setattr(evaluation, "tune_config", leaky)
    report = run_experiment(ExperimentSpec("toyb"), registry, config, _FAST_GRID)
    assert report["isolation"] == {"target_accesses_outside_evaluation": 1, "clean": False}


def test_ablation_table_records_isolation_per_cell(monkeypatch):
    registry = _toy_registry(("toya", "toyb", "toyc", "toyd"), per_domain=2)
    monkeypatch.setattr(evaluation, "ABLATION_ROWS", evaluation.ABLATION_ROWS[:2])
    table = evaluation.ablation_table(registry, ParserConfig(beam_size=10, max_rules=5), _FAST_GRID)
    assert [row["isolation_clean"] for row in table["rows"]] == [
        {d: True for d in table["domains"]}] * 2


@pytest.mark.parametrize("spec, label", [
    (ExperimentSpec("list"), "gmdp"),
    (ExperimentSpec("list", use_gmdp=False, use_new_features=False), "adagrad-F"),
    # in-domain there is one domain to partition, so both train by AdaGrad
    (ExperimentSpec("list", in_domain=True), "adagrad (in-domain)"),
    (ExperimentSpec("list", use_logic_filter=False, in_domain=True), "adagrad-A (in-domain)"),
    (ExperimentSpec("list", use_gmdp=False, in_domain=True), "adagrad (in-domain)"),
])
def test_a_label_names_the_trainer_the_experiment_runs(spec, label):
    assert spec.label() == label and label.startswith(spec.algorithm)


def test_experiment_uses_test_split_when_present():
    registry = _toy_registry(with_test=True)
    spec = ExperimentSpec(target_domain="toya", use_gmdp=False)
    report = run_experiment(spec, registry, ParserConfig(beam_size=20, max_rules=7), _FAST_GRID)
    assert report["test_split"] == "test"


def test_empty_test_split_reports_no_data_not_zero():
    registry = _toy_registry(with_test=True)
    registry._dataset["toya"]["test"] = []
    spec = ExperimentSpec(target_domain="toya", use_gmdp=False)
    report = run_experiment(spec, registry, ParserConfig(beam_size=20, max_rules=7), _FAST_GRID)
    assert report["no_data"] and report["accuracy"] is None


def test_in_domain_experiment_trains_on_the_target():
    registry = _toy_registry(with_test=True)
    spec = ExperimentSpec(target_domain="toya", use_gmdp=False, in_domain=True)
    report = run_experiment(spec, registry, ParserConfig(beam_size=20, max_rules=7), _FAST_GRID)
    assert report["accuracy"] is not None
    assert report["experiment"]["in_domain"]


@pytest.mark.parametrize("spec, words", [
    (ExperimentSpec(target_domain="toya", use_gmdp=False, in_domain=True),
     "in-domain experiments need a test split"),
    (ExperimentSpec(target_domain=None, use_gmdp=False), "an experiment needs a target_domain"),
], ids=["in-domain-without-test-split", "no-target"])
def test_experiment_that_cannot_be_scored_refuses_before_any_read(spec, words):
    registry = _toy_registry()
    with pytest.raises(NlinstructError, match=words):
        run_experiment(spec, registry, ParserConfig(beam_size=20, max_rules=7), _FAST_GRID)
    assert registry.accesses == []


def test_training_examples_refuse_a_target_the_dataset_lacks():
    registry = _toy_registry()
    for in_domain in (False, True):
        spec = ExperimentSpec(target_domain="nosuch", in_domain=in_domain)
        with pytest.raises(ConfigError, match="dataset domains: toya, toyb, toyc"):
            training_examples(spec, registry)
    assert registry.accesses == []
    # zero-shot training without a target learns from every domain
    assert list(training_examples(ExperimentSpec(target_domain=None), registry)) == [
        "toya", "toyb", "toyc"]


def _compensated_sum(values, start=0):
    """Neumaier summation, which Python 3.12's builtin ``sum`` does for floats."""
    total, low = float(start), 0.0
    for v in values:
        t = total + v
        low += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + low


def test_float_sums_do_not_follow_a_compensated_builtin_sum(monkeypatch):
    # 1 + 1e-16 rounds to 1 left to right, but not compensated; ten 0.1s
    # add up to 0.9999999999999999 left to right, but to 1.0 compensated
    scores = [0.0] + [math.log(1e-16)] * 10
    registry = _toy_registry(("toya", "toyb"), with_test=True, per_domain=10)
    examples = registry.examples("toya", "test")
    monkeypatch.setattr(evaluation, "score_example",
                        lambda pipeline, weights, ex: ExampleScore(ex.id, 0.1, 10, 1, False))
    monkeypatch.setattr(evaluation, "tune_config", lambda *args: training.TrainConfig())
    monkeypatch.setattr(evaluation, "train_model", lambda *args, **kwargs: ({}, None))
    spec = ExperimentSpec("toya", use_gmdp=False, in_domain=True)

    def sums():
        return (training._logsumexp(scores), evaluation.mean_credit(None, {}, examples),
                run_experiment(spec, registry)["accuracy"],
                ablation_table(SimpleNamespace(domain_ids=[f"d{i}" for i in range(10)]))["rows"])

    # the table's rows, not the experiment above, which runs through this module's import
    monkeypatch.setattr(evaluation, "run_experiment", lambda *args: {"accuracy": 0.1})
    want = sums()
    assert want[:3] == (0.0, 0.09999999999999999, 9.999999999999998)
    assert {row["average"] for row in want[3]} == {0.09999999999999999}
    monkeypatch.setattr(training, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(evaluation, "sum", _compensated_sum, raising=False)
    assert sums() == want
