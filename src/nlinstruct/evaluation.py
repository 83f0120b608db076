"""Accuracy with fractional tie credit, experiment protocols, and the
paired bootstrap significance test.

The zero-shot protocol trains and tunes strictly without the target domain;
an instrumented registry records every domain/example access together with
the protocol phase so that isolation is checkable after the fact rather
than assumed.
"""

from __future__ import annotations

import contextlib
import logging
import random
import time
from dataclasses import dataclass

from .domains.base import Domain, Example
from .errors import ConfigError, DataError, NlinstructError
from .parser import Candidate, ParserConfig, Pipeline
from .training import (
    DomainPartition,
    PrefixStore,
    TrainConfig,
    _is_int,
    _is_real,
    build_grid,
    final_partition,
    gmdp,
    sum_in_order,
    tune_hyperparameters,
)

log = logging.getLogger(__name__)


@dataclass
class ExampleScore:
    example_id: str
    credit: float
    tie_count: int
    correct_in_tie: int
    parse_failed: bool

    def to_json(self) -> dict:
        return {
            "id": self.example_id,
            "credit": self.credit,
            "tie_count": self.tie_count,
            "correct_in_tie": self.correct_in_tie,
            "parse_failed": self.parse_failed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExampleScore":
        """The inverse of :meth:`to_json`: KeyError for a missing field,
        TypeError for a field of the wrong type or a non-finite credit."""
        score = cls(obj["id"], obj["credit"], obj["tie_count"], obj["correct_in_tie"],
                    obj["parse_failed"])
        if not (isinstance(score.example_id, str) and _is_real(score.credit)
                and _is_int(score.tie_count) and _is_int(score.correct_in_tie)
                and isinstance(score.parse_failed, bool)):
            raise TypeError(f"bad per-example entry {obj!r}")
        return score


def credit_candidates(candidates: list[Candidate], desired) -> tuple[float, int, int]:
    """Fractional credit: among the maximal-score candidates, the fraction
    whose denotation is the desired state."""
    top = max(c.deriv.score for c in candidates)
    tied = [c for c in candidates if c.deriv.score == top]
    correct = sum(1 for c in tied if c.denotation == desired)
    return correct / len(tied), len(tied), correct


def score_example(pipeline: Pipeline, weights: dict, example: Example) -> ExampleScore:
    candidates = pipeline.analyze(example, weights)
    if not candidates:
        return ExampleScore(example.id, 0.0, 0, 0, True)
    credit, ties, correct = credit_candidates(candidates, example.desired)
    return ExampleScore(example.id, credit, ties, correct, False)


def mean_credit(pipeline: Pipeline, weights: dict, examples: list[Example]) -> float:
    if not examples:
        raise NlinstructError("cannot average over zero examples")
    total = sum_in_order(score_example(pipeline, weights, ex).credit for ex in examples)
    return total / len(examples)


# ---------------------------------------------------------------------------
# Instrumented access to domains and data
# ---------------------------------------------------------------------------

PHASE_IDLE = "idle"
PHASE_TUNING = "tuning"
PHASE_TRAINING = "training"
PHASE_EVALUATION = "evaluation"


class InstrumentedRegistry:
    """Hands out domains and example lists, logging (phase, kind, domain id)
    for every access. The experiment runner flips the phase; the isolation
    check then asserts the target domain was only touched for evaluation."""

    def __init__(self, domains: dict[str, Domain], dataset: dict[str, dict[str, list[Example]]]):
        self._domains = dict(domains)
        self._dataset = dataset
        self.phase = PHASE_IDLE
        self.accesses: list[tuple[str, str, str]] = []

    @property
    def domain_ids(self) -> list[str]:
        return sorted(self._dataset)

    def domain(self, domain_id: str) -> Domain:
        self.accesses.append((self.phase, "domain", domain_id))
        return self._domains[domain_id]

    def examples(self, domain_id: str, split: str) -> list[Example]:
        self.accesses.append((self.phase, "examples", domain_id))
        splits = self._dataset.get(domain_id)
        if splits is None or split not in splits:
            raise NlinstructError(f"no {split!r} examples for domain {domain_id!r}")
        return splits[split]

    def has_split(self, domain_id: str, split: str) -> bool:
        return split in self._dataset.get(domain_id, {})

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        previous = self.phase
        self.phase = phase
        try:
            yield
        finally:
            self.phase = previous

    def violations(self, target: str, since: int = 0) -> list[tuple[str, str, str]]:
        """The accesses to ``target`` logged while tuning or training, from
        the ``since``-th access on: an experiment on a shared registry
        passes the count logged before it began, so that earlier
        experiments, which may train on its target, do not count."""
        return [
            entry
            for entry in self.accesses[since:]
            if entry[2] == target and entry[0] in (PHASE_TUNING, PHASE_TRAINING)
        ]


@dataclass
class ExperimentSpec:
    """An experiment's target, trainer and ablation flags. Zero-shot
    training alone may leave the target None, to train on every domain."""

    target_domain: str | None
    use_gmdp: bool = True
    use_new_features: bool = True
    use_logic_filter: bool = True
    in_domain: bool = False
    seed: int = 0

    @property
    def algorithm(self) -> str:
        # the two-step trainer partitions domains, and in-domain there is one
        return "gmdp" if self.use_gmdp and not self.in_domain else "adagrad"

    def label(self) -> str:
        name = self.algorithm
        if not self.use_new_features:
            name += "-F"
        if not self.use_logic_filter:
            name += "-A"
        if self.in_domain:
            name += " (in-domain)"
        return name

    def pipeline(self, registry: InstrumentedRegistry,
                 parser_config: ParserConfig | None = None) -> Pipeline:
        return Pipeline(registry.domain, parser_config, use_new_features=self.use_new_features,
                        use_filter=self.use_logic_filter)


def _cv_folds(examples: list[Example], k: int, seed: int) -> list[tuple[list, list]]:
    """(rest, held-out) pairs of a seeded k-fold split; a fold that would
    leave either side empty is dropped."""
    order = list(examples)
    random.Random(seed).shuffle(order)
    folds = [order[i::k] for i in range(k)]
    return [([ex for j, fold in enumerate(folds) if j != i for ex in fold], held)
            for i, held in enumerate(folds) if 0 < len(held) < len(order)]


def training_examples(spec: ExperimentSpec, registry: InstrumentedRegistry) -> dict[str, list[Example]]:
    """The train splits the model may learn from, by domain: the target's
    alone in-domain, every other domain's (in id order) zero-shot. A target
    the dataset does not hold is a ``ConfigError``."""
    target = spec.target_domain
    if target is not None and target not in registry.domain_ids:
        raise ConfigError(f"no data for target domain {target!r} "
                          f"(dataset domains: {', '.join(registry.domain_ids)})")
    if spec.in_domain:
        return {target: registry.examples(target, "train")}
    sources = [d for d in registry.domain_ids if d != target]
    if not sources:
        raise DataError("no training domains left after excluding the target")
    return {d: registry.examples(d, "train") for d in sources}


def tune_config(spec: ExperimentSpec, examples_by_domain: dict[str, list[Example]],
                pipeline: Pipeline, grid_overrides: dict | None = None,
                store: PrefixStore | None = None) -> TrainConfig:
    """The protocol's tuning step: :func:`training.tune_hyperparameters`
    through ``store`` over folds that each hold out one source domain
    zero-shot, and over a 3-fold cross-validation of the target's train
    split in-domain (its mean credit ranks configs as their summed credit
    would, except where two sums divide to the same double: the earlier
    grid entry wins). Partition sizes that leave a two-step side empty are
    a ``ConfigError``, and a target too small to cross-validate a grid on
    is a ``DataError``."""
    domains = list(examples_by_domain)
    grid = build_grid(spec.algorithm, domains, spec.seed, grid_overrides)
    sizes = sorted({cfg.partition_size for cfg in grid})
    if spec.algorithm == "gmdp" and not any(0 < m < len(domains) - 1 for m in sizes):
        raise ConfigError(f"grid partition_sizes {sizes} leave a side of the two-step split of "
                          f"{len(domains)} source domains empty (a fold holds {len(domains) - 1})")
    if spec.in_domain:  # the target is the only domain
        folds = [({d: rest}, held) for d, examples in examples_by_domain.items()
                 for rest, held in _cv_folds(examples, 3, spec.seed)]
        if not folds and len(grid) > 1:
            raise DataError(f"target {spec.target_domain!r} has "
                            f"{len(examples_by_domain[spec.target_domain])} train example(s); "
                            f"tuning a grid of {len(grid)} points needs 2 to cross-validate")
    else:
        folds = [({d: examples_by_domain[d] for d in domains if d != held},
                  examples_by_domain[held]) for held in domains]
    return tune_hyperparameters(grid, folds, spec.algorithm, pipeline,
                                lambda weights, examples: mean_credit(pipeline, weights, examples),
                                store)


def train_model(spec: ExperimentSpec, config: TrainConfig,
                examples_by_domain: dict[str, list[Example]], pipeline: Pipeline,
                split=final_partition,
                store: PrefixStore | None = None) -> tuple[dict, DomainPartition | None]:
    """The protocol's training step: the weights and the partition (None
    for AdaGrad), by :func:`training.gmdp` through ``store``. Two-step
    training runs over ``split(config, domains)``, ``final_partition`` for
    a tuned configuration. A split that leaves a side empty is a ``ConfigError``."""
    partition = None
    if spec.algorithm == "gmdp":
        partition = split(config, list(examples_by_domain))
        if partition is None:
            raise ConfigError(f"partition_size {config.partition_size} leaves a side of the "
                              f"two-step partition of {list(examples_by_domain)} empty")
    return gmdp(partition, examples_by_domain, config, pipeline, store), partition


def run_experiment(
    spec: ExperimentSpec,
    registry: InstrumentedRegistry,
    parser_config: ParserConfig | None = None,
    grid_overrides: dict | None = None,
) -> dict:
    """Tune, train and score one experiment; returns the report as a dict.

    Zero-shot: the model tunes and trains on the source domains and is
    scored on the target's test split (or its only split when no test split
    exists, which is still unseen). In-domain: it tunes and trains on the
    target's training split and is scored on its test split."""
    target = spec.target_domain
    # checked before tuning, so a run that cannot be scored reads no data;
    # training_examples refuses an unknown target and names the domains
    if target is None:
        raise ConfigError("an experiment needs a target_domain")
    if spec.in_domain and target in registry.domain_ids and not registry.has_split(target, "test"):
        raise DataError(f"in-domain experiments need a test split; target {target!r} has none")
    pipeline = spec.pipeline(registry, parser_config)
    store = PrefixStore()  # tuning's runs and parses, read again by the final training
    started = time.time()
    logged = len(registry.accesses)  # isolation is checked on this experiment's accesses alone

    with registry.in_phase(PHASE_TUNING):
        examples_by_domain = training_examples(spec, registry)
        tuned = tune_config(spec, examples_by_domain, pipeline, grid_overrides, store)
    with registry.in_phase(PHASE_TRAINING):
        if spec.in_domain:  # read again, so the registry logs the training phase's use
            examples_by_domain = training_examples(spec, registry)
        weights, partition = train_model(spec, tuned, examples_by_domain, pipeline, store=store)

    with registry.in_phase(PHASE_EVALUATION):
        split = "test" if registry.has_split(target, "test") else "train"
        test_examples = registry.examples(target, split)
        scores = [score_example(pipeline, weights, ex) for ex in test_examples]

    # in-domain training touches the target by design; isolation is a
    # zero-shot property
    violations = [] if spec.in_domain else registry.violations(target, logged)
    report = {
        "experiment": {
            "target_domain": target,
            "label": spec.label(),
            "use_gmdp": spec.use_gmdp,
            "use_new_features": spec.use_new_features,
            "use_logic_filter": spec.use_logic_filter,
            "in_domain": spec.in_domain,
            "seed": spec.seed,
        },
        "tuned_config": tuned.to_json(),
        "partition": {"d1": list(partition.d1), "d2": list(partition.d2)} if partition else None,
        "test_split": split,
        "accuracy": (100.0 * sum_in_order(s.credit for s in scores) / len(scores)) if scores else None,
        "no_data": not scores,
        "per_example": [s.to_json() for s in scores],
        "isolation": {
            "target_accesses_outside_evaluation": len(violations),
            "clean": not violations,
        },
        "weights": {k: weights[k] for k in sorted(weights)},
        "runtime_seconds": round(time.time() - started, 3),
    }
    if violations:
        log.warning("protocol isolation violated for %s: %s", target, violations[:5])
    return report


#: (label, use_gmdp, use_new_features, use_logic_filter)
ABLATION_ROWS = (
    ("GMDP", True, True, True),
    ("GMDP-F", True, False, True),
    ("GMDP-A", True, True, False),
    ("GMDP-FA", True, False, False),
    ("AdaGrad", False, True, True),
    ("AdaGrad-F", False, False, True),
    ("AdaGrad-A", False, True, False),
    ("AdaGrad-FA", False, False, False),
)


def ablation_table(
    registry: InstrumentedRegistry,
    parser_config: ParserConfig | None = None,
    grid_overrides: dict | None = None,
    seed: int = 0,
) -> dict:
    """The eight-row trainer/feature/filter comparison over every target
    domain, plus a per-row average. Each row also records, per domain,
    whether its experiment kept the target out of tuning and training
    (``isolation_clean``, its report's ``isolation.clean``)."""
    domains = registry.domain_ids
    table: dict = {"domains": domains, "rows": []}
    for label, *flags in ABLATION_ROWS:
        reports = {target: run_experiment(ExperimentSpec(target, *flags, seed=seed), registry,
                                          parser_config, grid_overrides)
                   for target in domains}
        per_domain = {target: report["accuracy"] for target, report in reports.items()}
        values = [v for v in per_domain.values() if v is not None]
        table["rows"].append({
            "label": label, "per_domain": per_domain,
            "average": sum_in_order(values) / len(values) if values else None,
            # None for a report without an isolation section
            "isolation_clean": {target: report.get("isolation", {}).get("clean")
                                for target, report in reports.items()},
        })
    return table


#: Resamples drawn and compared at once by :func:`paired_bootstrap`.
BOOTSTRAP_BLOCK = 1000
#: The most resamples ``nlinstruct significance`` draws: a p-value to six
#: decimals, in seconds; memory stays bounded at any count, but time does not.
BOOTSTRAP_ITERATIONS_LIMIT = 1_000_000


def paired_bootstrap(
    scores_a: list[ExampleScore],
    scores_b: list[ExampleScore],
    iterations: int = 10000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, bool]:
    """One-sided paired bootstrap on per-example credits.

    Resamples example indices with replacement; the p-value is the fraction
    of resamples in which the first system's mean does not exceed the
    second's. When the first system is not ahead on the observed data the
    test reports p = 1.0."""
    ids_a = [s.example_id for s in scores_a]
    ids_b = [s.example_id for s in scores_b]
    if ids_a != ids_b:
        raise NlinstructError("score lists are not aligned on the same examples")
    if not scores_a:
        raise NlinstructError("empty score lists")
    import numpy as np  # here, not at the top: nothing else needs it, and it costs every command

    a = np.array([s.credit for s in scores_a], dtype=float)
    b = np.array([s.credit for s in scores_b], dtype=float)
    if a.mean() <= b.mean():
        return 1.0, False
    # a block of rows at a time, so memory does not grow with `iterations`;
    # consecutive draws from one generator are the rows of a single draw
    rng = np.random.default_rng(seed)
    not_ahead = 0
    for start in range(0, iterations, BOOTSTRAP_BLOCK):
        idx = rng.integers(0, len(a), size=(min(BOOTSTRAP_BLOCK, iterations - start), len(a)))
        not_ahead += int(np.count_nonzero(a[idx].mean(axis=1) <= b[idx].mean(axis=1)))
    p = not_ahead / iterations
    return p, p < alpha
