"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The experiment criteria
use a reduced parser configuration (beam 20, 9 rule applications) and a
single-point hyper-parameter grid so the whole suite stays well inside its
runtime budgets; tolerances and thresholds are asserted exactly as stated.
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

from nlinstruct.domains import (
    builtin_domains,
    generate_state_pair,
    get_domain,
    invoke,
)
from nlinstruct.errors import DomainLogicError, ExecutionError
from nlinstruct.evaluation import (
    ExperimentSpec,
    InstrumentedRegistry,
    credit_candidates,
    mean_credit,
    run_experiment,
)
from nlinstruct.kb import Entity, IntVal, TextVal
from nlinstruct.logic import evaluate, execute_to_call
from nlinstruct.parser import (
    Candidate,
    Derivation,
    ParserConfig,
    Pipeline,
    generate_candidates,
    infer,
)
from nlinstruct.synthetic import EXPERIMENT_DOMAINS, build_domain_corpus
from nlinstruct.training import DomainPartition, TrainConfig, adagrad, gmdp
from nlinstruct.logic import ValueLit

from conftest import make_toy_domain, make_toy_world
from oracles import EnumerationBudget, brute_force_denotation, enumerate_all_forms
from test_logic import _random_form
from test_training import gradient_matches_finite_differences

EXPERIMENT_PARSER = ParserConfig(beam_size=20, max_rules=9)
EXPERIMENT_GRID = {
    "l1": [0.001], "step_size": [0.1], "iterations": [2],
    "partition_sizes": [3], "iterations_step1": [2], "num_orderings": 1,
}
CORPUS_SEED = 11
PER_DOMAIN = 200


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def corpus():
    return {d: [ex for ex, _ in build_domain_corpus(get_domain(d), PER_DOMAIN, CORPUS_SEED)]
            for d in EXPERIMENT_DOMAINS}


@pytest.fixture(scope="module")
def lodo_results(corpus):
    """Leave-one-domain-out runs for the full model and the ablation that
    drops both the added features and the logic filter."""
    domains = {d: get_domain(d) for d in EXPERIMENT_DOMAINS}
    dataset = {d: {"train": corpus[d]} for d in EXPERIMENT_DOMAINS}
    results = {}
    started = time.time()
    for label, feats, filt in (("full", True, True), ("ablation", False, False)):
        reports = []
        for target in EXPERIMENT_DOMAINS:
            registry = InstrumentedRegistry(domains, dataset)
            spec = ExperimentSpec(
                target_domain=target, use_gmdp=False,
                use_new_features=feats, use_logic_filter=filt, seed=CORPUS_SEED,
            )
            reports.append(run_experiment(spec, registry, EXPERIMENT_PARSER, EXPERIMENT_GRID))
        results[label] = reports
    results["elapsed"] = time.time() - started
    return results


def test_criterion_1_executor_matches_brute_force():
    rng = random.Random(1001)
    domains = builtin_domains()
    started = time.time()
    mismatches = 0
    for i in range(1000):
        domain = domains[i % len(domains)]
        state = domain.generate_state(rng, domain.default_ranges)
        lf = _random_form(rng, domain, state, depth=4)
        if evaluate(lf, state) != brute_force_denotation(lf, state):
            mismatches += 1
    elapsed = time.time() - started
    _verdict(
        1, "executor oracle equivalence",
        mismatches == 0 and elapsed < 30,
        f"1000 seeded (state, form) pairs over all 7 domains, "
        f"{mismatches} mismatches, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_beam_soundness():
    toy = make_toy_domain()
    state = toy.generate_state(random.Random(2), {"things": (3, 3)})
    tokens = ["zap", "alpha", "3"]
    started = time.time()
    cands = generate_candidates(tokens, state, toy,
                                ParserConfig(beam_size=sys.maxsize, max_rules=15), {})
    got = {d.lf.printed for d in cands}
    want, truncated = enumerate_all_forms(toy, state, tokens, EnumerationBudget(max_size=15))
    elapsed = time.time() - started
    _verdict(
        2, "beam soundness",
        got == want and not truncated and elapsed < 60,
        f"unbounded beams vs exhaustive enumeration up to size 15 on the "
        f"2-relation toy domain: {len(got)} == {len(want)} root forms, "
        f"set equality {got == want}, {elapsed:.1f}s (budget 60s)",
    )


def _anchor_tokens(state, call) -> list[str]:
    """Utterance material for a generated pair: the gold arguments' values."""
    from nlinstruct.features import tokenize

    tokens = []
    for arg in call.args:
        for value in sorted(arg, key=repr):
            if isinstance(value, IntVal):
                tokens.append(str(value.value))
            elif isinstance(value, Entity):
                for t in state.triples:
                    if t.subject == value and isinstance(t.object, TextVal):
                        tokens.extend(tokenize(t.object.value))
    return tokens + ["do", "it"]


def test_criterion_3_filter_soundness():
    rng = random.Random(333)
    methods = [(d, m) for d in builtin_domains() for m in d.methods]
    violations = 0
    checked = 0
    dropped_gold = 0
    i = 0
    while checked < 500:
        domain, method = methods[i % len(methods)]
        i += 1
        state, call, desired = generate_state_pair(domain, method, rng)
        tokens = _anchor_tokens(state, call)
        cands = generate_candidates(tokens, state, domain, EXPERIMENT_PARSER, {})
        kept = {(c.deriv.lf.printed, c.deriv.spans)
                for c in infer(tokens, state, domain, EXPERIMENT_PARSER, {})}
        for d in cands:
            try:
                result = invoke(domain, state, execute_to_call(d.lf, state))
            except (DomainLogicError, ExecutionError):
                result = None
            if (d.lf.printed, d.spans) in kept:
                if result is None or result == state:
                    violations += 1  # survivor fails the contract
            elif result is not None and result == desired:
                violations += 1  # a desired-state candidate was removed
                dropped_gold += 1
        checked += 1
    _verdict(
        3, "filter soundness",
        violations == 0,
        f"{checked} generated examples, {violations} violations "
        f"({dropped_gold} desired-state candidates dropped)",
    )


def test_criterion_4_gradient_check():
    started = time.time()
    checked = gradient_matches_finite_differences(random.Random(404), 100)
    elapsed = time.time() - started
    _verdict(
        4, "gradient check",
        checked == 100 and elapsed < 10,
        f"analytic vs central finite differences on {checked} random candidate "
        f"sets at 1e-5 relative tolerance, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_5_gmdp_identities():
    _, examples, pipeline = make_toy_world()
    part = DomainPartition(("toya",), ("toyb",))
    cfg_a = TrainConfig(iterations=0, iterations_step1=2, seed=5)
    first_only = gmdp(part, examples, cfg_a, pipeline)
    theta_d1 = adagrad(examples["toya"], {}, cfg_a, pipeline, iterations=2)
    cfg_b = TrainConfig(iterations=2, iterations_step1=0, seed=5)
    no_first = gmdp(part, examples, cfg_b, pipeline)
    plain = adagrad(examples["toyb"], {}, cfg_b, pipeline, iterations=2)
    _verdict(
        5, "two-step training identities",
        first_only == theta_d1 and no_first == plain,
        f"zero second-step passes returns the first-step weights exactly "
        f"({first_only == theta_d1}); zero first-step passes is bitwise plain "
        f"AdaGrad on the second side ({no_first == plain})",
    )


def test_criterion_6_in_domain_trainability(corpus):
    config = TrainConfig(l1=0.001, step_size=0.1, iterations=3, seed=CORPUS_SEED)
    per_domain = {}
    for domain_id in EXPERIMENT_DOMAINS:
        domain = get_domain(domain_id)
        pipeline = Pipeline(lambda _d, domain=domain: domain, EXPERIMENT_PARSER)
        weights = adagrad(corpus[domain_id], {}, config, pipeline)
        per_domain[domain_id] = 100.0 * mean_credit(pipeline, weights, corpus[domain_id])
    overall = sum(per_domain.values()) / len(per_domain)
    detail = ", ".join(f"{d}={v:.1f}" for d, v in per_domain.items())
    _verdict(
        6, "in-domain trainability",
        overall >= 95.0,
        f"AdaGrad with features+filter after 3 passes over 200 synthetic "
        f"examples/domain: average training accuracy {overall:.1f} "
        f"(gate 95.0; {detail})",
    )


def test_criterion_7_zero_shot_directional_gap(lodo_results):
    full = [r["accuracy"] for r in lodo_results["full"]]
    ablated = [r["accuracy"] for r in lodo_results["ablation"]]
    full_avg = sum(full) / len(full)
    ablated_avg = sum(ablated) / len(ablated)
    elapsed = lodo_results["elapsed"]
    _verdict(
        7, "zero-shot directional result",
        full_avg - ablated_avg >= 10.0 and elapsed < 1800,
        f"leave-one-domain-out averages: full model {full_avg:.1f} vs "
        f"no-features/no-filter {ablated_avg:.1f} (gap {full_avg - ablated_avg:.1f}, "
        f"gate 10.0) in {elapsed:.0f}s (budget 1800s)",
    )


def test_criterion_8_fractional_credit():
    def cand(score, denotation):
        d = Derivation(ValueLit(TextVal("x")), "Root", 3, (), ())
        d.score = score
        return Candidate(d, denotation)

    fixture = [
        cand(4.0, "desired"), cand(4.0, "desired"),
        cand(4.0, "wrong-a"), cand(4.0, "wrong-b"),
        cand(1.0, "desired"),
    ]
    credit, ties, correct = credit_candidates(fixture, "desired")
    _verdict(
        8, "fractional credit",
        credit == 0.5 and ties == 4 and correct == 2,
        f"4-way tie with 2 correct candidates scores {credit} (expected exactly 0.5)",
    )


def test_criterion_9_protocol_isolation(lodo_results):
    reports = lodo_results["full"] + lodo_results["ablation"]
    dirty = [r for r in reports if not r["isolation"]["clean"]]
    total = sum(r["isolation"]["target_accesses_outside_evaluation"] for r in reports)
    _verdict(
        9, "protocol isolation",
        not dirty and total == 0,
        f"{len(reports)} experiment runs, {total} target-domain accesses during "
        f"tuning or training phases",
    )


def test_criterion_10_published_dataset_table():
    """Informational only: when a copy of the published dataset is available
    (NLINSTRUCT_DATASET or data/published/), report the eight-row ablation
    table and the deltas from the reported averages. Never a gate."""
    path = os.environ.get("NLINSTRUCT_DATASET", os.path.join("data", "published"))
    if not os.path.exists(path):
        pytest.skip(
            "informational criterion: published dataset not present; "
            "set NLINSTRUCT_DATASET to an ingested dataset directory to produce "
            "the ablation table (reference averages: 44.5 / 39.1 / 28.3)"
        )
    from nlinstruct.cli import _load_splits
    from nlinstruct.evaluation import ablation_table

    splits = _load_splits(path)
    registry = InstrumentedRegistry({d.id: d for d in builtin_domains()}, splits)
    table = ablation_table(registry, ParserConfig())
    reference = {"GMDP": 44.5, "AdaGrad": 39.1, "AdaGrad-FA": 28.3}
    print("\nlabel           " + "  ".join(f"{d:>10s}" for d in table["domains"]) + "     avg")
    for row in table["rows"]:
        cells = "  ".join(f"{row['per_domain'][d]:10.1f}" for d in table["domains"])
        line = f"{row['label']:15s} {cells}  {row['average']:6.1f}"
        if row["label"] in reference:
            line += f"   (reported {reference[row['label']]}, delta {row['average'] - reference[row['label']]:+.1f})"
        print(line)
