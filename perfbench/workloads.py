"""The benchmark's workloads: how their inputs are made from a seed, and
one pass of work over those inputs.

A pass is the unit a run repeats. Every pass builds a fresh ``Pipeline``,
so no featurizer or token cache carries over from an earlier pass, and
every pass over the same inputs must give the same digest.

Workloads run closed-loop in one thread: one example (or one experiment)
at a time, the next only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

from nlinstruct import kernels
from nlinstruct.domains import Example, get_domain, invoke
from nlinstruct.errors import DomainLogicError, ExecutionError
from nlinstruct.evaluation import (
    ExperimentSpec,
    InstrumentedRegistry,
    credit_candidates,
    run_experiment,
)
from nlinstruct.kb import State
from nlinstruct.logic import execute_to_call
from nlinstruct.parser import ParserConfig, Pipeline
from nlinstruct.synthetic import CORPUS_DOMAINS, EXPERIMENT_DOMAINS, build_domain_corpus
from nlinstruct.training import TrainConfig, adagrad

#: The ``nlinstruct parse`` default and the paper's parser setting.
PAPER_CONFIG = (200, 15)
#: The setting the test suite and the evaluation experiments use.
TEST_CONFIG = (20, 9)

#: About 3x the default entity counts, as far as each domain's name pools
#: allow (a domain cannot have more distinct names than its pool holds).
LARGE_RANGES = {
    "calendar": {"events": (8, 12)},
    "container": {"containers": (12, 20)},
    "file": {"directories": (4, 5), "files": (12, 18)},
    "lighting": {"floors": (3, 5), "rooms_per_floor": (4, 6)},
    "list": {"elements": (14, 20)},
    "messenger": {"users": (6, 8), "groups": (6, 10)},
    "workforce": {"employees": (7, 8)},
}

#: Two grid points x five leave-one-domain-out folds: ten two-step
#: trainings, then the final training and zero-shot scoring.
EXPERIMENT_GRID = {
    "l1": [0.001, 0.01],
    "step_size": [0.1],
    "iterations": [1],
    "partition_sizes": [2],
    "iterations_step1": [1],
    "num_orderings": 1,
}


@dataclass(frozen=True)
class FixedWeights:
    """Weights the parse workloads rank with: one seeded AdaGrad pass at
    the test setting over a small corpus. They do not depend on the
    workload seed, so every seed parses with the same model."""

    corpus_seed: int = 7
    per_domain: int = 10
    domains: tuple[str, ...] = EXPERIMENT_DOMAINS
    parser: tuple[int, int] = TEST_CONFIG

    def describe(self) -> dict:
        return {
            "corpus_seed": self.corpus_seed,
            "per_domain": self.per_domain,
            "domains": list(self.domains),
            "parser": {"beam_size": self.parser[0], "max_rules": self.parser[1]},
            "trainer": "adagrad, 1 pass, " + json.dumps(TrainConfig(seed=self.corpus_seed).to_json()),
        }


@dataclass(frozen=True)
class ParseWorkload:
    """``Pipeline.analyze`` plus fractional credit over generated examples,
    ranked by :class:`FixedWeights`. Examples are interleaved across
    domains, so a prefix of the list covers every domain."""

    name: str
    parser: tuple[int, int]
    per_domain: int
    ranges: dict | None
    default_seed: int
    held_out_seed: int
    weights: FixedWeights = field(default_factory=FixedWeights)
    domains: tuple[str, ...] = CORPUS_DOMAINS

    kind = "parse"
    corpora = 1

    @property
    def parse_per_domain(self) -> int:
        return self.per_domain

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "parser": {"beam_size": self.parser[0], "max_rules": self.parser[1]},
            "examples_per_domain": self.per_domain,
            "domains": list(self.domains),
            "ranges": self.ranges,
            "weights": self.weights.describe(),
            "default_seed": self.default_seed,
            "held_out_seed": self.held_out_seed,
        }


@dataclass(frozen=True)
class ExperimentWorkload:
    """Zero-shot ``run_experiment`` calls, one per corpus seed, each on the
    first ``per_domain`` examples of every domain. After each, all
    ``parse_per_domain`` examples per domain of that seed are parsed at the
    experiment's parser setting with :class:`FixedWeights`: the
    experiment's own model differs from seed to seed, and with it the parse
    cost, while these parses depend on the examples only."""

    name: str
    target: str
    per_domain: int
    parse_per_domain: int
    parser: tuple[int, int]
    grid: dict
    corpora: int  # experiments per pass, each on its own corpus
    default_seed: int
    held_out_seed: int
    weights: FixedWeights = field(default_factory=FixedWeights)
    domains: tuple[str, ...] = EXPERIMENT_DOMAINS

    kind = "experiment"
    ranges = None  # default state sizes

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "examples_per_domain": self.per_domain,
            "parsed_examples_per_domain": self.parse_per_domain,
            "domains": list(self.domains),
            "parser": {"beam_size": self.parser[0], "max_rules": self.parser[1]},
            "grid": self.grid,
            "experiments_per_pass": self.corpora,
            "weights": self.weights.describe(),
            "default_seed": self.default_seed,
            "held_out_seed": self.held_out_seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        ParseWorkload("parse-paper", PAPER_CONFIG, per_domain=1, ranges=None,
                      default_seed=5, held_out_seed=11),
        ExperimentWorkload("experiment-zero-shot", "workforce", per_domain=1,
                           parse_per_domain=6, parser=TEST_CONFIG, grid=EXPERIMENT_GRID,
                           corpora=3, default_seed=5, held_out_seed=11),
        ParseWorkload("parse-test-large", TEST_CONFIG, per_domain=20, ranges=LARGE_RANGES,
                      default_seed=5, held_out_seed=11),
    )
}


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    groups: list[tuple[int, list]]  # (seed, examples in the order a pass visits them)
    weights: dict  # the fixed weights
    corpus_s: float

    def fingerprint(self) -> str:
        """Identity of the inputs; repeated set-ups must agree on it."""
        h = hashlib.sha256()
        for seed, examples in self.groups:
            h.update(f"seed {seed}\n".encode())
            for ex in examples:
                h.update(f"{ex.id}\t{ex.utterance}\t{state_digest(ex.initial)}\n".encode())
        for k in sorted(self.weights):
            h.update(f"{k}={self.weights[k]!r}\n".encode())
        return h.hexdigest()


def sub_seeds(workload, seed: int) -> list[int]:
    """The corpus seeds of a pass: the workload seed itself, then one
    further seed per extra corpus."""
    return [seed + 1000 * k for k in range(workload.corpora)]


def _interleave(per_domain: list[list]) -> list:
    out = []
    for i in range(max(map(len, per_domain), default=0)):
        out.extend(col[i] for col in per_domain if i < len(col))
    return out


def train_fixed_weights(spec: FixedWeights) -> dict:
    examples = _interleave([
        [ex for ex, _ in build_domain_corpus(get_domain(d), spec.per_domain, seed=spec.corpus_seed)]
        for d in spec.domains
    ])
    pipeline = Pipeline(get_domain, ParserConfig(*spec.parser))
    return adagrad(examples, {}, TrainConfig(seed=spec.corpus_seed), pipeline, iterations=1)


def _corpus(workload, seed: int) -> list:
    return _interleave([
        [ex for ex, _ in build_domain_corpus(
            get_domain(d), workload.parse_per_domain, seed=seed,
            ranges=(workload.ranges or {}).get(d))]
        for d in workload.domains
    ])


def make_inputs(workload, seed: int) -> Inputs:
    """Generate a workload's inputs and train its fixed weights.
    Deterministic in ``seed``."""
    t0 = time.perf_counter()
    groups = [(s, _corpus(workload, s)) for s in sub_seeds(workload, seed)]
    corpus_s = time.perf_counter() - t0
    return Inputs(groups, train_fixed_weights(workload.weights), corpus_s)


def fresh(examples: list) -> list:
    """The same examples on new initial-state objects. States build their
    query indexes lazily and keep them, so without this a second pass (and
    even the first one, since corpus generation executes the gold form)
    would find the indexes already built."""
    return [
        Example(ex.id, ex.domain_id, State(ex.initial.domain_id, ex.initial.entities,
                                           ex.initial.triples), ex.utterance, ex.desired)
        for ex in examples
    ]


# ---------------------------------------------------------------------------
# Digests and checks
# ---------------------------------------------------------------------------


def state_digest(state) -> str:
    h = hashlib.sha256()
    for line in sorted(map(repr, state.triples)):
        h.update(line.encode())
    for e in sorted(e.id for e in state.entities):
        h.update(e.encode())
    return h.hexdigest()[:16]


def _delta(initial, result) -> str:
    """A denotation, named by how it differs from the example's initial
    state (the initial state is fixed per example, so this identifies it
    and costs little on large states)."""
    if result is None:
        return "none"
    parts = [
        sorted(map(repr, result.triples - initial.triples)),
        sorted(map(repr, initial.triples - result.triples)),
        sorted(map(repr, result.entities - initial.entities)),
        sorted(map(repr, initial.entities - result.entities)),
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def candidates_digest(candidates, initial) -> str:
    """Printed form, ``repr(score)`` and denotation of every kept
    candidate, in the parser's order."""
    h = hashlib.sha256()
    seen: dict[int, str] = {}
    for c in candidates:
        key = id(c.denotation)
        d = seen.get(key)
        if d is None:
            d = seen[key] = _delta(initial, c.denotation)
        h.update(f"{c.deriv.lf.printed}\t{c.deriv.score!r}\t{d}\n".encode())
    return h.hexdigest()


def check_candidates(candidates, example, domain, weights) -> list[str]:
    """Recompute what the parser reported for the top-scored candidates:
    the score from their features, the denotation from scratch."""
    problems = []
    top = max(c.deriv.score for c in candidates)
    for c in candidates:
        if c.deriv.score != top:
            continue
        if kernels.dot(weights, c.features) != c.deriv.score:
            problems.append(f"{example.id}: score of {c.deriv.lf.printed} does not recompute")
        try:
            result = invoke(domain, example.initial, execute_to_call(c.deriv.lf, example.initial))
        except (ExecutionError, DomainLogicError) as exc:
            problems.append(f"{example.id}: kept candidate {c.deriv.lf.printed} fails: {exc}")
            continue
        if result != c.denotation or result == example.initial:
            problems.append(f"{example.id}: denotation of {c.deriv.lf.printed} does not recompute")
    return problems


# ---------------------------------------------------------------------------
# The reference loop
# ---------------------------------------------------------------------------

#: Reference loops timed on each side of a parsed example and of an
#: experiment. An experiment lasts about fifty parses, so it takes more
#: loops to sample the machine's speed over it.
REF_LOOPS = {"parse": 1, "experiment": 16}


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds the parser does (tuple keys,
    dict and set updates, string building, a sort), and nothing from the
    package: the unit the end-to-end costs are counted in. About 1-2 ms
    on a 2-vCPU Sapphire Rapids VM."""
    counts: dict = {}
    items = []
    for i in range(1000):
        key = (i % 37, "k" + str(i % 11))
        counts[key] = counts.get(key, 0) + 1
        items.append((key, i))
    items.sort(key=lambda t: (t[0][1], -t[1]))
    return len({k for k, _ in items}) + len(counts)


def reference_times(loops: int) -> list[float]:
    """Seconds of each of ``loops`` reference loops. The garbage collector
    is paused meanwhile, so that a full collection of the heap an
    experiment left behind does not land in a loop."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(loops):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    example_id: str
    seconds: float
    credit: float
    digest: str
    ref_s: float  # median seconds of the reference loops around it; 0 when traced


@dataclass
class PassResult:
    samples: list[Sample]  # per parsed example, in order
    experiment_s: list[float] = field(default_factory=list)  # per run_experiment
    experiment_ref_s: list[float] = field(default_factory=list)  # median reference loop around it
    experiments: list[dict] = field(default_factory=list)  # report fields that must not change
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # outputs that did not recompute

    @property
    def parse_s(self) -> float:
        return sum(s.seconds for s in self.samples)

    @property
    def accuracy_pct(self) -> float:
        """Mean experiment accuracy, or the parse samples' mean credit."""
        if self.experiments:
            return sum(e["accuracy"] for e in self.experiments) / len(self.experiments)
        return 100.0 * sum(s.credit for s in self.samples) / len(self.samples)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.experiments, sort_keys=True).encode())
        for s in self.samples:
            h.update(f"{s.example_id}\t{s.digest}\t{s.credit!r}\n".encode())
        return h.hexdigest()


def _parse(pipeline, examples, weights, tracer, check: bool, result: PassResult) -> None:
    clock = time.perf_counter
    loops = 0 if tracer else REF_LOOPS["parse"]
    for ex in examples:
        ref = reference_times(loops)
        span = tracer.span("example", ex.id) if tracer else contextlib.nullcontext()
        with span:
            t0 = clock()
            try:
                cands = pipeline.analyze(ex, weights)
                credit = credit_candidates(cands, ex.desired)[0] if cands else 0.0
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                cands, credit, error = [], 0.0, exc
            seconds = clock() - t0
        ref = ref + reference_times(loops)
        ref_s = statistics.median(ref) if ref else 0.0
        result.attempted += 1
        if not cands:
            result.failed += 1
            result.failures.append(f"{ex.id}: {'raised ' + repr(error) if error else 'no candidate'}")
        elif check:
            result.problems.extend(
                check_candidates(cands, ex, pipeline.domain_source(ex.domain_id), weights))
        result.samples.append(
            Sample(ex.id, seconds, credit, candidates_digest(cands, ex.initial), ref_s))


def run_pass(workload, inputs: Inputs, tracer=None) -> PassResult:
    """One pass over the inputs. ``tracer`` (already installed) only adds
    spans around the benchmark's own calls; the recomputation checks are
    made on untraced passes so that they do not count as traced work."""
    check = tracer is None
    result = PassResult([])
    groups = [(seed, fresh(examples)) for seed, examples in inputs.groups]
    if workload.kind == "parse":
        pipeline = Pipeline(get_domain, ParserConfig(*workload.parser))
        for _, examples in groups:
            _parse(pipeline, examples, inputs.weights, tracer, check, result)
        return result

    config = ParserConfig(*workload.parser)
    for seed, examples in groups:
        dataset: dict = {}
        for ex in examples:  # the generator's first examples of each domain
            split = dataset.setdefault(ex.domain_id, {"train": []})["train"]
            if len(split) < workload.per_domain:
                split.append(ex)
        registry = InstrumentedRegistry({d: get_domain(d) for d in dataset}, dataset)
        spec = ExperimentSpec(workload.target, use_gmdp=True, seed=seed)
        loops = 0 if tracer else REF_LOOPS["experiment"]
        ref = reference_times(loops)
        span = tracer.span("run_experiment") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            report = run_experiment(spec, registry, config, workload.grid)
        result.experiment_s.append(time.perf_counter() - t0)
        ref = ref + reference_times(loops)
        result.experiment_ref_s.append(statistics.median(ref) if ref else 0.0)
        result.attempted += 1
        if not report["isolation"]["clean"] or report["no_data"]:
            result.failed += 1
            result.failures.append(f"experiment seed {seed}: isolation {report['isolation']}")
        result.experiments.append({
            "seed": seed,
            "accuracy": report["accuracy"],
            "per_example": report["per_example"],
            "tuned_config": report["tuned_config"],
            "partition": report["partition"],
            "weights": {k: repr(v) for k, v in report["weights"].items()},
            "registry_accesses": len(registry.accesses),
        })
        _parse(Pipeline(get_domain, config), fresh(examples), inputs.weights, tracer, check, result)
    return result
