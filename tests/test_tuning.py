"""Grid search that trains each shared prefix once and stops a
configuration once it provably cannot win, against the reference tuner in
``oracles`` that trains and scores every (fold, configuration) afresh.

The two must pick the same grid entry and so train the same final model.
Every (fold, configuration) pair the tuner scores, the reference scores on
the same weights, bit for bit; the pairs it skips are exactly those the
reference bound proves cannot win. The work counts hold the sharing and
the bound to the figures the grid's shape gives. Runs that start from
weights of the same content share the parses they make before their
first update; the parse counts show which parses are shared and which
are not. An experiment's final model trains through the store its tuning
filled, and gets the weights a fresh store gives it.
"""

from __future__ import annotations

import logging
import math
import zlib
from dataclasses import dataclass, replace

import pytest

from nlinstruct import evaluation, parser, training
from nlinstruct.errors import NlinstructError
from nlinstruct.evaluation import ExperimentSpec, _cv_folds, mean_credit, tune_config
from nlinstruct.parser import ParserConfig, Pipeline
from nlinstruct.training import (
    TrainConfig,
    adagrad,
    build_grid,
    final_partition,
    gmdp,
    partition_for_fold,
    tune_hyperparameters,
)

from conftest import leave_one_out, make_toy_world
from oracles import reference_cv_tune, reference_skipped, reference_tune, reference_two_step

DOMAINS = ("toya", "toyb", "toyc", "toyd")


@pytest.fixture(scope="module")
def world():
    _, examples, pipeline = make_toy_world(DOMAINS, per_domain=3)
    return examples, pipeline


def _bits(weights: dict) -> tuple:
    return tuple((k, v.hex()) for k, v in weights.items())


def _credit(pipeline):
    return lambda weights, held: mean_credit(pipeline, weights, held)


def _coarse(weights, held) -> float:
    """0, 0.5 or 1 by a checksum of the weights: many configurations tie
    and many bounds meet the incumbent's mean exactly."""
    return zlib.crc32(repr(_bits(weights)).encode()) % 3 / 2


def _scored(score):
    """``score`` as an accuracy function that also records, in call order,
    the held-out examples and the exact weights it was asked to score."""
    seen = []

    def accuracy(weights, held):
        seen.append((tuple(ex.id for ex in held), _bits(weights)))
        return score(weights, held)

    return seen, accuracy


def _tuner_log(caplog) -> tuple[list, set]:
    """The (fold, grid index) pairs the tuner logged as scored, in order,
    and those it logged as skipped."""
    scored, skipped = [], set()
    for record in caplog.records:
        if record.msg.startswith("tuning: fold"):
            scored.append(record.args[:2])
        elif "cannot beat" in record.msg:
            skipped.update((fold, record.args[0]) for fold in record.args[4])
    return scored, skipped


def _same_choice(tune, reference, score, caplog):
    seen, accuracy = _scored(score)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger=training.log.name):
        chosen = tune(accuracy)
    scored, skipped = _tuner_log(caplog)
    want_seen, want_accuracy = _scored(score)
    table: dict = {}
    want = reference(want_accuracy, table)
    assert chosen is want
    # keyed by (fold, grid index), since the two visit the pairs in another order
    assert len(scored) == len(seen) == len(set(scored))
    assert dict(zip(scored, seen)).items() <= dict(zip(table, want_seen)).items()
    assert skipped == reference_skipped(table) == set(table) - set(scored)
    return chosen


@pytest.mark.parametrize("overrides", [
    {"l1": [0.001, 0.01], "step_size": [0.1], "iterations": [1, 2, 3],
     "partition_sizes": [1, 2], "iterations_step1": [1, 2], "num_orderings": 2},
    {"l1": [0.05], "step_size": [0.05, 0.2], "iterations": [2, 1],
     "partition_sizes": [2, 3], "iterations_step1": [2, 1], "num_orderings": 1},
], ids=["grid", "reversed-counts-and-invalid-size"])
@pytest.mark.parametrize("seed", [0, 7])
def test_zero_shot_gmdp_matches_the_reference(world, overrides, seed, caplog):
    examples, pipeline = world
    domains = list(DOMAINS)
    grid = build_grid("gmdp", domains, seed, overrides)
    assert len({g.domain_ordering for g in grid}) == overrides["num_orderings"]
    for score in (_credit(pipeline), _coarse):
        chosen = _same_choice(
            lambda acc: tune_hyperparameters(grid, leave_one_out(examples), "gmdp", pipeline, acc),
            lambda acc, table: reference_tune(domains, examples, grid, "gmdp", pipeline, acc, table),
            score, caplog)
        partition = final_partition(chosen, domains)
        assert (_bits(gmdp(partition, examples, chosen, pipeline))
                == _bits(reference_two_step(partition, examples, chosen, pipeline)))


def test_ties_go_to_the_earliest_valid_entry(world):
    examples, pipeline = world
    domains = list(DOMAINS)
    # partition size 3 leaves the second step empty in every three-domain fold
    grid = build_grid("gmdp", domains, 1, {"l1": [0.001, 0.01], "step_size": [0.1],
                                           "iterations": [1], "partition_sizes": [3, 1],
                                           "iterations_step1": [1], "num_orderings": 1})
    tie = lambda weights, held: 0.5
    chosen = tune_hyperparameters(grid, leave_one_out(examples), "gmdp", pipeline, tie)
    assert chosen is reference_tune(domains, examples, grid, "gmdp", pipeline, tie)
    assert chosen is grid[1] and chosen.partition_size == 1


def test_zero_shot_adagrad_matches_the_reference(world, caplog):
    examples, pipeline = world
    domains = list(DOMAINS)
    grid = build_grid("adagrad", domains, 3, {"l1": [0.001, 0.01], "step_size": [0.05, 0.1]})
    for score in (_credit(pipeline), _coarse):
        _same_choice(
            lambda acc: tune_hyperparameters(grid, leave_one_out(examples), "adagrad", pipeline, acc),
            lambda acc, table: reference_tune(domains, examples, grid, "adagrad", pipeline, acc,
                                              table),
            score, caplog)


def test_hand_made_grid_without_accumulator_reset_matches_the_reference(world, caplog):
    examples, pipeline = world
    domains = list(DOMAINS)
    ordering = ("toyc", "toya", "toyd", "toyb")
    grid = [TrainConfig(l1=0.001, step_size=0.2, iterations=it, iterations_step1=it1,
                        partition_size=m, domain_ordering=ordering, seed=2, reset_accumulators=r)
            for it in (2, 1) for r in (False, True) for m in (1, 2) for it1 in (1, 2)]
    for score in (_credit(pipeline), _coarse):
        chosen = _same_choice(
            lambda acc: tune_hyperparameters(grid, leave_one_out(examples), "gmdp", pipeline, acc),
            lambda acc, table: reference_tune(domains, examples, grid, "gmdp", pipeline, acc, table),
            score, caplog)
        partition = final_partition(chosen, domains)
        for cfg in (chosen, replace(chosen, reset_accumulators=not chosen.reset_accumulators)):
            assert (_bits(gmdp(partition, examples, cfg, pipeline))
                    == _bits(reference_two_step(partition, examples, cfg, pipeline)))


def test_a_decisive_entry_stops_every_later_one_before_it_trains(world, caplog):
    examples, pipeline = world
    domains = list(DOMAINS)
    grid = build_grid("gmdp", domains, 0, {
        "l1": [0.001, 0.01], "step_size": [0.1], "iterations": [1, 2], "partition_sizes": [1, 2],
        "iterations_step1": [1, 2], "num_orderings": 1})
    folds = leave_one_out(examples)
    k = 5
    decisive = {_bits(gmdp(partition_for_fold(grid[k], list(train)), train, grid[k], pipeline))
                for train, _ in folds}
    score = lambda weights, held: 1.0 if _bits(weights) in decisive else _coarse(weights, held)
    chosen = _same_choice(
        lambda acc: tune_hyperparameters(grid, folds, "gmdp", pipeline, acc),
        lambda acc, table: reference_tune(domains, examples, grid, "gmdp", pipeline, acc, table),
        score, caplog)
    assert chosen is grid[k]
    scored, skipped = _tuner_log(caplog)
    assert {gi for _, gi in scored} == set(range(k + 1))
    assert skipped >= {(fold, gi) for fold in range(len(folds)) for gi in range(k + 1, len(grid))}


@pytest.mark.parametrize("seed", [0, 4])
def test_in_domain_cross_validation_matches_the_reference(monkeypatch, seed, caplog):
    _, examples, pipeline = make_toy_world(("toya",), per_domain=9, seed=seed)
    grid = build_grid("adagrad", ["toya"], seed, {"l1": [0.001, 0.01], "step_size": [0.05, 0.1]})
    monkeypatch.setattr(evaluation, "build_grid", lambda *args: grid)
    spec = ExperimentSpec("toya", in_domain=True, seed=seed)
    folds = _cv_folds(examples["toya"], 3, seed)
    assert len(folds) == 3

    def tune(accuracy):
        monkeypatch.setattr(evaluation, "mean_credit", lambda p, w, held: accuracy(w, held))
        return tune_config(spec, examples, pipeline)

    for score in (_credit(pipeline), _coarse):
        _same_choice(tune, lambda acc, table: reference_cv_tune(folds, grid, pipeline, acc, table),
                     score, caplog)


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------


class _NoParse:
    """A pipeline that parses nothing, so every example is skipped and a
    run costs only its epochs."""

    def analyze(self, example, weights, parses=None):
        return []


@dataclass(frozen=True)
class _Stub:
    """A stand-in example: the prefix store keys runs by their examples,
    so it must be hashable."""

    id: str
    domain_id: str


def _examples(domains, per_domain=1):
    return {d: [_Stub(f"{d}-{i}", d) for i in range(per_domain)] for d in domains}


@pytest.fixture
def runs(monkeypatch):
    """(domains trained on, epochs trained) of every AdaGrad call."""
    out = []
    original = training.adagrad

    def counting(examples, init, config, pipeline, iterations=None, sumsq=None, start=0,
                 parses=None):
        epochs = (config.iterations if iterations is None else iterations) - start
        out.append((frozenset(ex.domain_id for ex in examples), epochs))
        return original(examples, init, config, pipeline, iterations, sumsq, start, parses)

    monkeypatch.setattr(training, "adagrad", counting)
    return out


def _epochs(runs) -> int:
    total = sum(n for _, n in runs)
    runs.clear()
    return total


def test_first_steps_train_once_across_folds(runs):
    # the benchmark's experiment grid: two l1 values, five source domains
    sources = ["a", "b", "c", "d", "e"]
    examples = _examples(sources)
    grid = build_grid("gmdp", sources, 5, {
        "l1": [0.001, 0.01], "step_size": [0.1], "iterations": [1], "partition_sizes": [2],
        "iterations_step1": [1], "num_orderings": 1})
    partitions = [partition_for_fold(cfg, [d for d in sources if d != held])
                  for cfg in grid for held in sources]
    first = {frozenset(p.d1) for p in partitions}
    assert not first & {frozenset(p.d2) for p in partitions}  # a run's domains name its step

    def first_steps(tune):
        tune(lambda w, held: 0.0)
        count = sum(1 for domains, _ in runs if domains in first)
        runs.clear()
        return count

    assert first_steps(lambda acc: reference_tune(sources, examples, grid, "gmdp", _NoParse(),
                                                  acc)) == 10
    assert first_steps(lambda acc: tune_hyperparameters(grid, leave_one_out(examples), "gmdp",
                                                        _NoParse(), acc)) == 6


def test_default_grid_trains_1296_epochs_instead_of_4320(runs):
    sources = ["a", "b", "c", "d", "e", "f"]
    examples = _examples(sources)
    grid = build_grid("gmdp", sources, 0)
    assert len(grid) == 144
    reference_tune(sources, examples, grid, "gmdp", _NoParse(), lambda w, held: 0.0)
    assert _epochs(runs) == 4320
    tune_hyperparameters(grid, leave_one_out(examples), "gmdp", _NoParse(), lambda w, held: 0.0)
    assert _epochs(runs) == 1296


def test_cross_validation_trains_each_fold_to_its_longest_count_once(runs, monkeypatch):
    examples = _examples(["t"], per_domain=6)
    grid = build_grid("adagrad", ["t"], 0)
    assert len(grid) == 12  # iterations 1, 2 and 3 for each (l1, step size)
    monkeypatch.setattr(evaluation, "build_grid", lambda *args: grid)
    reference_cv_tune(_cv_folds(examples["t"], 3, 0), grid, _NoParse(), lambda w, held: 0.0)
    assert _epochs(runs) == 3 * 4 * (1 + 2 + 3)
    tune_config(ExperimentSpec("t", in_domain=True), examples, _NoParse())
    assert _epochs(runs) == 3 * 4 * 3


def test_a_decisive_first_entry_trains_only_its_own_folds(runs, caplog):
    sources = ["a", "b", "c", "d", "e", "f"]
    examples = _examples(sources)
    grid = build_grid("gmdp", sources, 0)
    with caplog.at_level(logging.INFO, logger=training.log.name):
        chosen = tune_hyperparameters(grid, leave_one_out(examples), "gmdp", _NoParse(),
                                      lambda w, held: 1.0)
    assert chosen is grid[0]
    # grid[0] splits each fold's five sources 3 + 2 and trains 2 + 1 epochs:
    # the three folds that hold out one of its last three domains share a
    # first step, so 4 first steps and 6 second steps
    assert _epochs(runs) == 4 * 2 + 6 * 1
    scored, skipped = _tuner_log(caplog)
    assert scored == [(fold, 0) for fold in range(6)]
    assert skipped == {(fold, gi) for fold in range(6) for gi in range(1, 144)}
    first = next(r.getMessage() for r in caplog.records if "cannot beat" in r.msg)
    assert first == ("tuning: grid[1] cannot beat grid[0]: bound 1.0 <= mean 1.0, "
                     "folds [0, 1, 2, 3, 4, 5] skipped")


@pytest.mark.parametrize("accuracy", [1.5, -0.25, math.nan])
def test_a_fold_accuracy_outside_0_1_is_an_error(accuracy):
    # the bound assumes no fold scores above 1
    sources = ["a", "b", "c"]
    grid = build_grid("adagrad", sources, 0, {"l1": [0.001, 0.01], "step_size": [0.1],
                                              "iterations": [1]})
    with pytest.raises(NlinstructError, match=r"outside \[0, 1\]"):
        tune_hyperparameters(grid, leave_one_out(_examples(sources)), "adagrad", _NoParse(),
                             lambda w, held: accuracy)


# ---------------------------------------------------------------------------
# Parses shared between runs that start from equal weights
# ---------------------------------------------------------------------------


@pytest.fixture
def parses(monkeypatch):
    """The initial state of every example ``parser.infer`` parsed, in call
    order."""
    out = []
    original = parser.infer

    def counting(tokens, state, *args):
        out.append(state)
        return original(tokens, state, *args)

    monkeypatch.setattr(parser, "infer", counting)
    return out


def test_shared_parses_give_the_references_weights_and_credits(world, parses):
    examples, pipeline = world
    domains = list(DOMAINS)
    grid = build_grid("gmdp", domains, 0, {
        "l1": [0.001, 0.01], "step_size": [0.05, 0.1], "iterations": [1, 2],
        "partition_sizes": [1, 2], "iterations_step1": [1], "num_orderings": 1})

    def run(tune):
        """The chosen entry, the per-example scores of every fold weight
        scored, and the parse count."""
        parses.clear()
        seen: dict = {}

        def accuracy(weights, held):
            scores = [evaluation.score_example(pipeline, weights, ex).to_json() for ex in held]
            seen.setdefault(tuple(ex.id for ex in held), {})[_bits(weights)] = scores
            return sum(s["credit"] for s in scores) / len(scores)

        return tune(accuracy), seen, len(parses)

    chosen, seen, shared = run(lambda acc: tune_hyperparameters(
        grid, leave_one_out(examples), "gmdp", pipeline, acc))
    want, want_seen, unshared = run(lambda acc: reference_tune(
        domains, examples, grid, "gmdp", pipeline, acc))
    assert chosen is want
    # each fold weight the search scored, by float.hex, is one the reference
    # scored on that fold, with the same per-example credits
    assert seen.keys() == want_seen.keys()
    for held, scored in seen.items():
        assert scored.items() <= want_seen[held].items()
    assert shared < unshared


def test_shared_parses_log_the_same_registry_accesses(parses, monkeypatch):
    domains, examples, _ = make_toy_world(DOMAINS, per_domain=3)
    # the huge l1 keeps the first entry's weights at zero, so that it does
    # not score a perfect mean and stop the second, which starts as it does
    grid = {"l1": [1000.0, 0.001], "step_size": [0.1], "iterations": [1],
            "partition_sizes": [1], "iterations_step1": [1], "num_orderings": 1}

    def experiment():
        parses.clear()
        registry = evaluation.InstrumentedRegistry(
            domains, {d: {"train": examples[d]} for d in DOMAINS})
        report = evaluation.run_experiment(ExperimentSpec("toyd", seed=1), registry,
                                           ParserConfig(beam_size=20, max_rules=7), grid)
        del report["runtime_seconds"]
        return registry.accesses, report, len(parses)

    accesses, report, shared = experiment()
    analyze = Pipeline.analyze  # without sharing: every example parsed anew
    monkeypatch.setattr(Pipeline, "analyze",
                        lambda self, ex, weights, parses=None: analyze(self, ex, weights))
    want_accesses, want_report, unshared = experiment()
    assert accesses == want_accesses and report == want_report
    assert shared < unshared


def test_two_l1_values_share_the_first_parse(world, parses):
    examples, pipeline = world
    toya = examples["toya"]
    store = training.PrefixStore()
    for l1 in (0.001, 0.01):
        store.train(toya, TrainConfig(l1=l1, seed=2), pipeline, 1)
    # both runs take the examples in one order; the second reads its first
    # parse, made under {} by the first run, and parses the others itself
    # after its first update
    assert len(parses) == 2 * len(toya) - 1
    assert [s is parses[0] for s in parses].count(True) == 1
    assert {id(s) for s in parses[len(toya):]} == {id(s) for s in parses[1:len(toya)]}


@pytest.mark.parametrize("changes", [True, False], ids=["update", "update-that-changes-nothing"])
def test_a_run_reads_shared_parses_only_until_its_first_update(world, parses, monkeypatch,
                                                               changes):
    examples, pipeline = world
    toya = examples["toya"]
    cfg = TrainConfig(seed=2)
    want = adagrad(toya, {}, cfg, pipeline, iterations=1)
    shared: dict = {}
    for ex in toya:  # every example parsed under {}
        pipeline.analyze(ex, {}, shared)
    kept = dict(shared)
    updates = []
    if not changes:
        monkeypatch.setattr(training.kernels, "adagrad_update", lambda *args: updates.append(args))
    parses.clear()
    weights = adagrad(toya, {}, cfg, pipeline, iterations=1, parses=shared)
    # the first example yields a gradient, so each later one is parsed again
    assert len(parses) == len(toya) - 1
    if changes:
        assert _bits(weights) == _bits(want)
    else:
        assert weights == {} and len(updates) == len(toya)
    assert shared.keys() == kept.keys() and all(shared[ex] is kept[ex] for ex in toya)


@pytest.mark.parametrize("zero, shares", [(0.0, True), (-0.0, False)])
def test_starts_that_differ_in_the_sign_of_a_zero_do_not_share(world, parses, monkeypatch, zero,
                                                               shares):
    examples, pipeline = world

    def update(weights, sumsq, grad, step_size, l1, eps):
        # a first step ends at {"w": 0.0}, or with l1 0.01 at {"w": zero}
        weights["w"] = zero if l1 == 0.01 else 0.0

    monkeypatch.setattr(training.kernels, "adagrad_update", update)
    store = training.PrefixStore()
    partition = training.DomainPartition(("toya",), ("toyb",))
    for l1 in (0.001, 0.01):
        gmdp(partition, examples, TrainConfig(l1=l1, iterations=1, iterations_step1=1, seed=2),
             pipeline, store)
    n = len(examples["toya"]) + len(examples["toyb"])
    # both first steps start under {} and share their first parse; the
    # second steps share theirs only if the two zeros are the same float
    assert len(parses) == 2 * n - 1 - shares


# ---------------------------------------------------------------------------
# One store per experiment: the final training reads tuning's runs and parses
# ---------------------------------------------------------------------------

_ONE_ORDERING = {"l1": [0.001, 0.01], "step_size": [0.1], "iterations": [1, 2],
                 "partition_sizes": [1], "iterations_step1": [1], "num_orderings": 1}


def _experiment(spec, domains, fresh_final_store):
    """The report of ``run_experiment`` without its runtime, the registry's
    access list, and the number of parses made while the final model
    trains. With ``fresh_final_store`` the final model trains through a
    store of its own instead of the one tuning filled."""
    toys, examples, _ = make_toy_world(domains, per_domain=5)
    registry = evaluation.InstrumentedRegistry(
        toys, {d: {"train": found[:-1], "test": found[-1:]} for d, found in examples.items()})
    training_parses = 0
    infer, train_model = parser.infer, evaluation.train_model

    def counting(*args):
        nonlocal training_parses
        training_parses += registry.phase == evaluation.PHASE_TRAINING
        return infer(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "infer", counting)
        if fresh_final_store:
            patch.setattr(evaluation, "train_model", lambda *args, store: train_model(
                *args, store=training.PrefixStore()))
        report = evaluation.run_experiment(spec, registry, ParserConfig(beam_size=20, max_rules=7),
                                           _ONE_ORDERING)
    del report["runtime_seconds"]
    return report, registry.accesses, training_parses


@pytest.mark.parametrize("use_gmdp", [True, False], ids=["gmdp", "adagrad"])
@pytest.mark.parametrize("in_domain", [False, True], ids=["zero-shot", "in-domain"])
def test_the_tuning_store_trains_the_model_a_fresh_store_trains(use_gmdp, in_domain):
    spec = ExperimentSpec("toyd", use_gmdp=use_gmdp, in_domain=in_domain, seed=1)
    report, accesses, shared = _experiment(spec, DOMAINS, fresh_final_store=False)
    want, want_accesses, fresh = _experiment(spec, DOMAINS, fresh_final_store=True)
    # tuned configuration, partition, per-example credits and isolation
    assert report == want and report["isolation"]["clean"]
    assert (report["partition"] is None) == (spec.algorithm == "adagrad")
    assert _bits(report["weights"]) == _bits(want["weights"]) and report["weights"]
    # a parse read from the store still looks its domain up
    assert accesses == want_accesses
    assert shared <= fresh


def test_a_final_first_step_that_a_fold_trained_is_read_not_trained():
    # five sources with partition size 1: a fold's first side holds one
    # domain and so does the final model's (the fold's second side was the
    # larger), so every fold that keeps the ordering's first domain trained
    # the final model's first step
    domains = ("toya", "toyb", "toyc", "toyd", "toye", "toyf")
    spec = ExperimentSpec("toyf", seed=1)
    report, accesses, shared = _experiment(spec, domains, fresh_final_store=False)
    want, want_accesses, fresh = _experiment(spec, domains, fresh_final_store=True)
    assert len(report["partition"]["d1"]) == 1
    assert report == want and _bits(report["weights"]) == _bits(want["weights"])
    # the first step's parses, and the domain lookups they make, are gone
    d1 = report["partition"]["d1"][0]
    first_step = len([e for e in want_accesses if e == ("training", "domain", d1)])
    assert first_step and shared <= fresh - first_step
    assert [e for e in accesses if e != ("training", "domain", d1)] == [
        e for e in want_accesses if e != ("training", "domain", d1)]
