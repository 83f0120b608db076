"""Log-linear scoring, the regularized likelihood objective, AdaGrad, and
two-step training over a domain partition.

The model assigns each candidate z the probability

    p(z) = exp(score(z)) / sum_z' exp(score(z'))

and the objective is the L1-regularized log-likelihood of the desired
denotation, i.e. of the total probability mass on candidates whose
execution yields the desired state. Candidates are re-generated with the
current weights at every visit, because beam contents depend on the scores;
a re-parse of a state rebuilds only what the weights change (see
:mod:`nlinstruct.parser`). The gradient comes from the candidates' score
keys: each candidate adds ``coef * features`` straight from its key, head
terms then packed fields, in sorted key order, so no feature dict is
decoded or sorted and every weight is bit for bit what
``kernels.add_scaled`` over the feature dicts would give.

Two-step training first runs AdaGrad over the examples of one domain subset
and uses the learned weights to initialize a second AdaGrad run over the
remaining training domains; the second run starts with fresh step-size
accumulators. The point is to optimize for domains the first step never
saw, which is also how the trained parser will be used.

An experiment's grid search (:func:`tune_hyperparameters`) and its final
training, zero-shot and in-domain alike, train by :func:`gmdp` (whose
AdaGrad baseline is two-step training without a first step) through one
content-keyed :class:`PrefixStore`: each shared prefix trains once, and
each example is parsed once per run start. Three facts make it exact. An
AdaGrad epoch reads only the weights and squared-gradient sums it starts
from, the example list, ``l1``, ``step_size`` and the shuffle generator,
which is seeded from ``seed`` and draws one shuffle per epoch; so epoch k
of an n-epoch run is bit for bit the last epoch of a k-epoch run, and a run
resumed from a k-epoch snapshot (its shuffles drawn again but not trained)
goes on exactly as the uninterrupted one. The first step of two-step
training depends on the fold only through its first-step examples, so
leave-one-domain-out folds that hold out a domain outside them share it, as
does a final model whose first side is a fold's. And a parse is a function
of the pipeline, the example and the weights alone, so the parses a run
makes before its first update depend only on its start weights: every run
from zero, a fold's or the final model's, starts under the same empty
weights, and several second steps start from one first step.

:data:`GRID` is the default grid; :class:`TrainConfig` and
:class:`DomainPartition` own their JSON forms, which :mod:`nlinstruct.dataio`
writes into files.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import asdict, dataclass

from . import kernels
from .errors import ConfigError, NlinstructError
from .parser import Pipeline

log = logging.getLogger(__name__)

ADAGRAD_EPS = 1e-8


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


@dataclass
class TrainConfig:
    """Trainer hyper-parameters. Invalid types or values raise
    :class:`ConfigError`; a ``domain_ordering`` list becomes a tuple, and
    an empty one None."""

    l1: float = 0.001
    step_size: float = 0.1
    iterations: int = 3  # second-step passes for two-step training
    iterations_step1: int = 2
    partition_size: int = 3  # domains assigned to the first step
    domain_ordering: tuple[str, ...] | None = None
    seed: int = 0
    reset_accumulators: bool = True

    def __post_init__(self):
        for name in ("l1", "step_size"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("iterations", "iterations_step1", "partition_size", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.reset_accumulators, bool):
            raise ConfigError(f"reset_accumulators must be true or false, got {self.reset_accumulators!r}")
        ordering = self.domain_ordering
        if ordering is not None:
            if not isinstance(ordering, (list, tuple)) or not all(isinstance(d, str) for d in ordering):
                raise ConfigError(f"domain_ordering must be a list of domain ids, got {ordering!r}")
            self.domain_ordering = tuple(ordering) or None
        if self.l1 < 0:
            raise ConfigError("l1 coefficient must be >= 0")
        if self.step_size <= 0:
            raise ConfigError("step size must be > 0")
        if self.iterations < 0 or self.iterations_step1 < 0:
            raise ConfigError("iteration counts must be >= 0")

    def to_json(self) -> dict:
        ordering = self.domain_ordering
        return dict(asdict(self), domain_ordering=list(ordering) if ordering else None)

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        return cls(**data)


@dataclass(frozen=True)
class DomainPartition:
    d1: tuple[str, ...]
    d2: tuple[str, ...]

    def __post_init__(self):
        if not self.d1 or not self.d2:
            raise NlinstructError("both partition sides must be non-empty")
        if set(self.d1) & set(self.d2):
            raise NlinstructError("partition sides overlap")

    def to_json(self) -> dict:
        return {"d1": list(self.d1), "d2": list(self.d2)}

    @classmethod
    def from_json(cls, obj: dict) -> "DomainPartition":
        """The inverse of :meth:`to_json`; KeyError, TypeError or NlinstructError if malformed."""
        sides = obj["d1"], obj["d2"]
        if not all(isinstance(v, list) and all(isinstance(d, str) for d in v) for v in sides):
            raise TypeError(f"partition sides must be lists of domain ids, got {obj!r}")
        return cls(*map(tuple, sides))


def sum_in_order(values) -> float:
    """The float sum, added left to right. The builtin ``sum`` compensates
    float rounding from Python 3.12 on, which would move the last bits of
    weights, tuning ties and reports between Python versions."""
    total = 0.0
    for v in values:
        total += v
    return total


def _logsumexp(scores: list[float]) -> float:
    top = max(scores)
    return top + math.log(sum_in_order(math.exp(s - top) for s in scores))


def example_log_likelihood(candidates: list, denotations: list,
                           desired) -> tuple[float, dict] | None:
    """Log-probability of the desired denotation and its gradient in theta.

    A candidate's score is its derivation's ``score``, which the parser
    computed under the current weights. The gradient is the difference
    between the feature expectation over correct candidates and the full
    feature expectation, which each candidate adds as ``coef * features``
    (``add_features``, read from its score key; no feature dict is built).
    Returns None when no candidate denotes the desired state (such
    examples are skipped)."""
    if not candidates:
        raise NlinstructError("no candidates")
    scores = [c.deriv.score for c in candidates]
    correct = [i for i, d in enumerate(denotations) if d == desired]
    if not correct:
        return None
    lse_all = _logsumexp(scores)
    lse_correct = _logsumexp([scores[i] for i in correct])
    logp = lse_correct - lse_all
    correct_set = set(correct)
    grad: dict = {}
    for i, c in enumerate(candidates):
        coef = -math.exp(scores[i] - lse_all)
        if i in correct_set:
            coef += math.exp(scores[i] - lse_correct)
        if coef:
            c.add_features(grad, coef)
    return logp, grad


def adagrad(
    examples: list,
    init: dict,
    config: TrainConfig,
    pipeline: Pipeline,
    iterations: int | None = None,
    sumsq: dict | None = None,
    start: int = 0,
    parses: dict | None = None,
) -> dict:
    """Stochastic per-example ascent with per-coordinate AdaGrad step sizes
    and proximal L1 truncation. Examples are reshuffled every pass with a
    generator seeded from the configuration, so runs are reproducible.

    ``sumsq``, the squared-gradient sums, is updated in place. A run
    resumes at epoch ``start`` when ``init`` and ``sumsq`` are its state
    after that many epochs: their shuffles are drawn again but not
    trained, so the run goes on exactly as an uninterrupted one.

    ``parses``, when given, holds parses under weights of the exact
    content of ``init`` (see :meth:`Pipeline.analyze`). The run reads and
    fills it until its first update, even one that leaves the weights as
    they were, and parses each example itself from then on."""
    weights = dict(init)
    if sumsq is None:
        sumsq = {}
    rng = random.Random(config.seed)
    passes = config.iterations if iterations is None else iterations
    for epoch in range(passes):
        order = list(examples)
        rng.shuffle(order)
        if epoch < start:
            continue
        skipped_parse = skipped_gold = 0
        for ex in order:
            cands = pipeline.analyze(ex, weights, parses)
            if not cands:
                skipped_parse += 1
                continue
            result = example_log_likelihood(cands, [c.denotation for c in cands], ex.desired)
            if result is None:
                skipped_gold += 1
                continue
            _, grad = result
            kernels.adagrad_update(weights, sumsq, grad, config.step_size, config.l1, ADAGRAD_EPS)
            parses = None
        log.info(
            "epoch %d: %d examples, %d parse failures, %d without gold candidate",
            epoch, len(order), skipped_parse, skipped_gold,
        )
    return weights


class PrefixStore:
    """AdaGrad runs by their content, kept for the runs of one grid search
    over one pipeline.

    A run is keyed by what fixes its epochs: its example list, in order,
    ``l1``, ``step_size``, ``seed`` and its origin, which is None for a
    run from zero or the (examples, epochs, ``keep_sums``) of the run it
    continues. The store keeps the weights and sums after every epoch
    count asked for, and trains a longer count on from the longest it
    holds, so a prefix shared by several counts, folds or grid points
    trains once and every result equals that of a fresh run bit for bit.
    The dicts it hands out are its own: read them, never change them.

    It also keeps the parses each run makes before its first update, keyed
    by the exact bits of the run's start weights (so 0.0 and -0.0 differ)
    and by the example, so that a later run from weights of the same
    content reads them instead of parsing again (see :func:`adagrad`).
    They live as long as the store: one candidate list per (start,
    example) parsed before a first update."""

    def __init__(self):
        self._runs: dict = {}
        self._parses: dict = {}  # start weights' (key, float.hex) pairs -> {example: candidates}

    def train(self, examples: list, config: TrainConfig, pipeline: Pipeline, epochs: int,
              after: tuple[list, int] | None = None, keep_sums: bool = False) -> tuple[dict, dict]:
        """The weights and squared-gradient sums after ``epochs`` epochs of
        :func:`adagrad` over ``examples``: from zero, or, with ``after`` =
        (examples, epochs) of a run from zero, from that run's weights and
        (with ``keep_sums``) its sums."""
        examples = tuple(examples)
        origin = None if after is None else (tuple(after[0]), after[1], keep_sums)
        key = (examples, config.l1, config.step_size, config.seed, origin)
        if key not in self._runs:
            weights, sums = self.train(after[0], config, pipeline, after[1]) if after else ({}, {})
            self._runs[key] = {0: (weights, sums if keep_sums else {})}
        snapshots = self._runs[key]
        done = max(k for k in snapshots if k <= epochs)
        if done < epochs:
            weights, sums = snapshots[done]
            sums = dict(sums)  # the snapshot stays as it was
            bits = frozenset((k, w.hex()) for k, w in weights.items())
            weights = adagrad(examples, weights, config, pipeline, iterations=epochs, sumsq=sums,
                              start=done, parses=self._parses.setdefault(bits, {}))
            snapshots[epochs] = weights, sums
        return snapshots[epochs]


def gmdp(
    partition: DomainPartition | None,
    examples_by_domain: dict[str, list],
    config: TrainConfig,
    pipeline: Pipeline,
    store: PrefixStore | None = None,
) -> dict:
    """Two-step training: AdaGrad over the first partition side from zero,
    then AdaGrad over the second side initialized at the first result.
    With ``partition`` None it is the AdaGrad baseline, GMDP without a
    first step: one run from zero over every example, in domain order.
    Every run trains through ``store`` (a fresh one by default), which an
    experiment shares between its tuning runs and its final training."""
    d1, d2 = (partition.d1, partition.d2) if partition else ((), tuple(examples_by_domain))
    missing = [d for d in d1 + d2 if d not in examples_by_domain]
    if missing:
        raise NlinstructError(f"partition names domains without examples: {missing}")
    d1_examples = [ex for d in d1 for ex in examples_by_domain[d]]
    d2_examples = [ex for d in d2 for ex in examples_by_domain[d]]
    weights, _ = (store or PrefixStore()).train(
        d2_examples, config, pipeline, config.iterations,
        after=(d1_examples, config.iterations_step1) if partition else None,
        keep_sums=not config.reset_accumulators)
    return dict(weights)


# ---------------------------------------------------------------------------
# Hyper-parameter search
# ---------------------------------------------------------------------------

#: The default grid by axis: value lists, and ``num_orderings``, a count of
#: random domain orderings. A run config's ``grid`` section takes these keys.
GRID = {
    "l1": (0.001, 0.01),
    "step_size": (0.01, 0.1),
    "iterations": (1, 2, 3),
    "partition_sizes": (3, 4),
    "iterations_step1": (2, 4),
    "num_orderings": 3,
}


def build_grid(
    algorithm: str,
    training_domains: list[str],
    seed: int = 0,
    overrides: dict | None = None,
) -> list[TrainConfig]:
    """The grid-search configurations, in a fixed enumeration order.

    For two-step training the grid crosses regularization, step size,
    second-step iterations, first-step size of the partition, a few random
    domain orderings, and first-step iterations (144 points by default).
    ``overrides`` replaces any of the :data:`GRID` axes with explicit value
    lists (``num_orderings`` with a count); a given axis that is not a
    non-empty list, or a count that is not a positive integer, is a
    ``ConfigError``, as is a two-step count above the number of distinct
    orderings of ``training_domains``."""
    for axis, values in (overrides or {}).items():
        if axis == "num_orderings":
            if isinstance(values, bool) or not isinstance(values, int) or values < 1:
                raise ConfigError(f"grid.num_orderings must be a positive integer, got {values!r}")
        elif not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid.{axis} must be a non-empty list, got {values!r}")
    o = dict(GRID, **(overrides or {}))
    l1s, steps, iters = (tuple(o[axis]) for axis in ("l1", "step_size", "iterations"))
    grid: list[TrainConfig] = []
    if algorithm == "adagrad":
        for l1, step, it in itertools.product(l1s, steps, iters):
            grid.append(TrainConfig(l1=l1, step_size=step, iterations=it, seed=seed))
        return grid
    if algorithm != "gmdp":
        raise NlinstructError(f"unknown algorithm {algorithm!r}")
    sizes, step1_iters = tuple(o["partition_sizes"]), tuple(o["iterations_step1"])
    num_orderings, distinct = o["num_orderings"], math.factorial(len(training_domains))
    if num_orderings > distinct:  # more draws would only score repeats
        raise ConfigError(f"grid.num_orderings {num_orderings} exceeds the {distinct} distinct "
                          f"orderings of {len(training_domains)} source domains")
    rng = random.Random(seed)
    orderings = []
    for _ in range(num_orderings):
        perm = list(training_domains)
        rng.shuffle(perm)
        orderings.append(tuple(perm))
    for l1, step, it, m, ordering, it1 in itertools.product(
        l1s, steps, iters, sizes, orderings, step1_iters
    ):
        grid.append(
            TrainConfig(
                l1=l1, step_size=step, iterations=it, iterations_step1=it1,
                partition_size=m, domain_ordering=ordering, seed=seed,
            )
        )
    return grid


def partition_for_fold(config: TrainConfig, sources: list[str]) -> DomainPartition | None:
    """Split the fold's source domains by the config's ordering: the first
    ``partition_size`` of the ordering (restricted to the fold) go to the
    first step. None when a side would be empty; an ordering that omits a
    source domain is a ``ConfigError``."""
    ordering = [d for d in (config.domain_ordering or sources) if d in sources]
    if omitted := [d for d in sources if d not in ordering]:
        raise ConfigError(f"domain_ordering {list(config.domain_ordering)} omits the source "
                          f"domains {omitted}")
    m = config.partition_size
    if not 0 < m < len(ordering):
        return None
    return DomainPartition(tuple(ordering[:m]), tuple(ordering[m:]))


def tune_hyperparameters(grid: list[TrainConfig], folds, algorithm: str, pipeline: Pipeline,
                         accuracy_fn, store: PrefixStore | None = None) -> TrainConfig:
    """The grid search: the configuration with the highest mean accuracy
    over the folds where it is valid wins, ties going to the earliest grid
    entry; a single-point grid wins untrained. A fold is an (examples by
    domain to train on, held-out examples) pair: one per held-out domain
    zero-shot, one per cross-validation split of the target in-domain. A
    configuration trains on it by :func:`gmdp`, over
    :func:`partition_for_fold` for two-step training (not valid where a
    side would be empty) and over None for AdaGrad;
    ``accuracy_fn(weights, held)`` scores it, and an accuracy outside
    [0, 1] is an ``NlinstructError``.

    The search goes configuration by configuration in grid order, each over
    its valid folds in fold order, its accuracies summed in that order, so
    a configuration scored in full has the mean a fold-by-fold search gives
    it. Before each fold it bounds the configuration's mean: the sum so
    far plus 1.0 per remaining valid fold, one addition at a time, divided
    by the number of valid folds. Rounded addition and division by a
    positive count are monotone, and no accuracy exceeds 1, so no float
    margin is needed: the mean cannot exceed the bound. When the bound is
    at most the incumbent's mean, the configuration cannot win (the
    incumbent is earlier and wins a tie), and its remaining folds are
    neither trained nor scored; one INFO line names them.

    All runs share ``store`` (a fresh one by default), which keys runs by
    their content, so the visiting order moves no weight: a first step
    serves every fold that leaves its examples in, and the grid's epoch
    counts share their shorter prefixes (at most 1,296 epochs instead of
    4,320 on the default 144-point grid over six domains). Every
    configuration is scored on the weights a fresh run would give it, so
    the same one wins."""
    if not grid:
        raise NlinstructError("empty hyper-parameter grid")
    if len(grid) == 1:
        return grid[0]
    folds = list(folds)
    store, two_step = store or PrefixStore(), algorithm == "gmdp"
    best = best_mean = None  # the incumbent: the earliest entry with the highest mean so far
    for gi, cfg in enumerate(grid):
        # AdaGrad trains on every fold, two-step training on those it can split
        valid = [(fold, train, held, partition) for fold, (train, held) in enumerate(folds)
                 if (partition := partition_for_fold(cfg, list(train)) if two_step else None)
                 or not two_step]
        total = 0.0
        for done, (fold, train, held, partition) in enumerate(valid):
            if best is not None:
                bound = total
                for _ in range(len(valid) - done):
                    bound += 1.0
                bound /= len(valid)
                if bound <= best_mean:
                    log.info("tuning: grid[%d] cannot beat grid[%d]: bound %r <= mean %r, "
                             "folds %s skipped", gi, best, bound, best_mean,
                             [f for f, _, _, _ in valid[done:]])
                    break
            acc = accuracy_fn(gmdp(partition, train, cfg, pipeline, store), held)
            if not 0.0 <= acc <= 1.0:
                raise NlinstructError(f"fold {fold} grid[{gi}] accuracy {acc!r} lies outside [0, 1]")
            total += acc
            log.info("tuning: fold %d grid[%d] accuracy=%.3f", fold, gi, acc)
        else:  # scored in full
            if valid and (best is None or total / len(valid) > best_mean):
                best, best_mean = gi, total / len(valid)
    if best is None:
        raise NlinstructError("no grid configuration was valid for any fold")
    return grid[best]


def final_partition(tuned: TrainConfig, training_domains: list[str]) -> DomainPartition:
    """Partition for the final model: the tuned split grew by one domain, on
    whichever side was larger during tuning, keeping the size ratio close."""
    ordering = list(tuned.domain_ordering or training_domains)
    if set(ordering) != set(training_domains):
        raise NlinstructError(
            f"tuned ordering {ordering} does not cover the training domains {list(training_domains)}")
    m = tuned.partition_size
    fold_d1, fold_d2 = m, len(training_domains) - 1 - m
    d1_size = m + 1 if fold_d1 >= fold_d2 else m
    return DomainPartition(tuple(ordering[:d1_size]), tuple(ordering[d1_size:]))
