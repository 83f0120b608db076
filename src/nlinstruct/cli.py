"""Command-line entry points.

    nlinstruct generate      random state pairs for annotation (plus a
                             test-only gold sidecar)
    nlinstruct tune          grid search, as eval tunes
    nlinstruct train         train a model and write it to disk (from
                             tune's output, the model eval scores)
    nlinstruct eval          full experiment: tune, train, score, report
    nlinstruct parse         n-best parses for one utterance over a state
    nlinstruct significance  paired bootstrap between two reports

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import dataio
from .domains import builtin_domains, generate_state_pair, get_domain
from .domains.base import validate_state_for_domain
from .errors import ConfigError, DataError, NlinstructError
from .evaluation import (
    BOOTSTRAP_ITERATIONS_LIMIT,
    ExampleScore,
    ExperimentSpec,
    InstrumentedRegistry,
    ablation_table,
    paired_bootstrap,
    run_experiment,
    train_model,
    training_examples,
    tune_config,
)
from .features import Featurizer, tokenize
from .parser import ParserConfig, infer
from .training import TrainConfig, final_partition, partition_for_fold


def _load_splits(path) -> dict[str, dict[str, list]]:
    """A dataset file holds one split; a directory holds train/test files."""
    by_domain: dict[str, dict[str, list]] = {}

    def absorb(examples, split):
        for ex in examples:
            by_domain.setdefault(ex.domain_id, {}).setdefault(split, []).append(ex)

    if os.path.isdir(path):
        train = os.path.join(path, "train.jsonl")
        test = os.path.join(path, "test.jsonl")
        if not os.path.exists(train):
            raise DataError(f"{path}: expected train.jsonl in dataset directory")
        absorb(dataio.read_dataset(train), "train")
        if os.path.exists(test):
            absorb(dataio.read_dataset(test), "test")
    else:
        absorb(dataio.read_dataset(path), "train")
    if not by_domain:
        raise DataError(f"{path}: dataset is empty")
    return by_domain


def _domain(domain_id: str):
    """A built-in domain; an unknown id is a configuration error."""
    try:
        return get_domain(domain_id)
    except KeyError:
        known = ", ".join(d.id for d in builtin_domains())
        raise ConfigError(f"unknown domain {domain_id!r} (known: {known})") from None


def _registry(config) -> InstrumentedRegistry:
    dataset = config.get("dataset")
    if not dataset:
        raise ConfigError("config needs a 'dataset' path")
    splits = _load_splits(dataset)
    domains = {d.id: d for d in builtin_domains()}
    unknown = sorted(set(splits) - set(domains))
    if unknown:
        raise DataError(f"dataset references unregistered domains: {unknown}")
    for domain_id, by_split in splits.items():
        for examples in by_split.values():
            for ex in examples:
                for side, state in (("initial", ex.initial), ("desired", ex.desired)):
                    try:
                        validate_state_for_domain(state, domains[domain_id])
                    except DataError as exc:
                        raise DataError(f"{dataset}: example {ex.id!r}, {side} state: {exc}") from None
    return InstrumentedRegistry(domains, splits)


def _parser_config(config) -> ParserConfig:
    return ParserConfig(
        beam_size=config["beam_size"], max_rules=config["max_rule_applications"]
    )


def _train_config(config) -> TrainConfig:
    section = dict(config.get("train", {}))
    section.setdefault("seed", config["seed"])
    return TrainConfig(**section)


def _apply_flag_overrides(args, config) -> dict:
    if args.seed is not None:
        config["seed"] = args.seed
    if args.target_domain:
        config["target_domain"] = args.target_domain
    if args.algorithm:
        config["algorithm"] = args.algorithm
    if args.no_new_features:
        config["use_new_features"] = False
    if args.no_logic_filter:
        config["use_logic_filter"] = False
    if args.in_domain:
        config["in_domain"] = True
    return config


def cmd_generate(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    domain = _domain(args.domain)
    config = dataio.load_run_config(args.config) if args.config else dict(dataio.DEFAULTS)
    ranges = config.get("generation", {}).get(domain.id)
    rng = random.Random(args.seed)
    examples = []
    gold = []
    for method in domain.methods:
        for i in range(args.count):
            state, call, result = generate_state_pair(domain, method, rng, ranges)
            ex_id = f"{domain.id}-{method.name}-{i:04d}"
            examples.append(
                dataio.Example(ex_id, domain.id, state, "", result)
            )
            gold.append((ex_id, call))
    dataio.write_dataset(args.out, examples, header={"domain": domain.id, "seed": args.seed})
    dataio.write_gold_sidecar(args.out + ".gold.jsonl", gold)
    print(f"wrote {len(examples)} state pairs to {args.out}")
    return 0


def _spec(config, command: str) -> ExperimentSpec:
    """The experiment the config and flags describe; only zero-shot
    training can do without a target."""
    target = config.get("target_domain")
    if not target and (command != "train" or config["in_domain"]):
        what = "in-domain training" if command == "train" else command
        raise ConfigError(f"{what} needs a target_domain")
    return ExperimentSpec(
        target_domain=target,
        use_gmdp=config["algorithm"] == "gmdp",
        use_new_features=config["use_new_features"],
        use_logic_filter=config["use_logic_filter"],
        in_domain=config["in_domain"],
        seed=config["seed"],
    )


def cmd_tune(args) -> int:
    config = _apply_flag_overrides(args, dataio.load_run_config(args.config))
    spec = _spec(config, "tune")
    parser_config = _parser_config(config)
    registry = _registry(config)
    tuned = tune_config(spec, training_examples(spec, registry),
                        spec.pipeline(registry, parser_config), config.get("grid"))
    dataio.atomic_write_json(args.out, tuned.to_json())
    print(f"selected configuration written to {args.out}")
    return 0


def cmd_train(args) -> int:
    """With ``--tuned``, trains the model ``eval`` reports for that tuned
    configuration; otherwise on the ``train`` section's literal split."""
    config = _apply_flag_overrides(args, dataio.load_run_config(args.config))
    spec = _spec(config, "train")
    parser_config = _parser_config(config)
    if args.tuned:
        tuned = dataio.read_json_object(args.tuned, "tuned configuration")
        try:
            tconfig = TrainConfig.from_json(tuned)
        except (TypeError, ValueError, NlinstructError) as exc:
            raise DataError(f"{args.tuned}: not a tuned configuration ({exc})") from None

        def split(cfg, domains):
            try:
                return final_partition(cfg, domains)
            except NlinstructError as exc:
                raise DataError(f"{args.tuned}: {exc}") from None
    else:
        tconfig, split = _train_config(config), partition_for_fold
    registry = _registry(config)
    weights, partition = train_model(spec, tconfig, training_examples(spec, registry),
                                     spec.pipeline(registry, parser_config), split)
    dataio.save_model(args.out, weights, tconfig, partition, ablation={
        "use_new_features": config["use_new_features"],
        "use_logic_filter": config["use_logic_filter"],
    })
    print(f"model written to {args.out} ({len(weights)} weights)")
    return 0


def cmd_eval(args) -> int:
    config = _apply_flag_overrides(args, dataio.load_run_config(args.config))
    parser_config = _parser_config(config)
    registry = _registry(config)
    if args.ablation_suite:
        table = ablation_table(
            registry, parser_config, config.get("grid"), config["seed"]
        )
        dataio.atomic_write_json(args.out, table)
        width = max(len(d) for d in table["domains"])
        print("model        " + "  ".join(f"{d:>{width}}" for d in table["domains"]) + "      avg")
        for row in table["rows"]:
            cells = "  ".join(f"{row['per_domain'][d]:{width}.1f}" for d in table["domains"])
            print(f"{row['label']:12s} {cells}  {row['average']:7.1f}")
        return 0
    spec = _spec(config, "eval")
    try:
        report = run_experiment(spec, registry, parser_config, config.get("grid"))
    except DataError as exc:
        raise DataError(f"{config['dataset']}: {exc}") from None
    dataio.atomic_write_json(args.out, report)
    accuracy = report["accuracy"]
    shown = "no data" if accuracy is None else f"{accuracy:.1f}"
    print(f"{spec.label()} on {spec.target_domain}: accuracy {shown}; report written to {args.out}")
    return 0


def cmd_parse(args) -> int:
    if args.nbest < 1:
        raise ConfigError(f"--nbest must be >= 1, got {args.nbest}")
    config = ParserConfig(beam_size=args.beam_size, max_rules=args.max_rules)
    domain = _domain(args.domain)
    obj = dataio.read_json_object(args.state, "state")
    try:
        state = dataio.state_from_json(domain.id, obj)
        validate_state_for_domain(state, domain)
    except DataError as exc:
        raise DataError(f"{args.state}: {exc}") from None
    weights, use_new_features, use_logic_filter = {}, True, True
    if args.model:  # parse with the feature set and filter the model was trained with
        weights, _, _, use_new_features, use_logic_filter = dataio.load_model(args.model)
    cands = infer(tokenize(args.utterance), state, domain, config, weights,
                  Featurizer(domain, use_new_features),
                  use_filter=use_logic_filter and not args.no_logic_filter)
    if not cands:
        print("parse failure: no surviving candidate")
        return 4
    ranked = sorted((c.deriv for c in cands), key=lambda d: (-d.score, d.lf.printed))
    for rank, deriv in enumerate(ranked[: args.nbest], start=1):
        print(f"{rank}. score={deriv.score:+.4f} size={deriv.size_used}  {deriv.lf.printed}")
        if args.explain:
            for name in sorted(deriv.feats):
                print(f"     {name} = {deriv.feats[name]:g}")
    return 0


def cmd_significance(args) -> int:
    if args.iterations < 1:
        raise ConfigError(f"--iterations must be >= 1, got {args.iterations}")
    if args.iterations > BOOTSTRAP_ITERATIONS_LIMIT:
        raise ConfigError(
            f"--iterations must be at most {BOOTSTRAP_ITERATIONS_LIMIT}, got {args.iterations}")
    if not 0 < args.alpha < 1:
        raise ConfigError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")

    def scores(path):
        report = dataio.read_json_object(path, "report")
        try:
            return [ExampleScore.from_json(r) for r in report["per_example"]]
        except KeyError as exc:
            raise DataError(f"{path}: report lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed report ({exc})") from None

    try:
        p, significant = paired_bootstrap(
            scores(args.report_a), scores(args.report_b),
            iterations=args.iterations, alpha=args.alpha, seed=args.seed,
        )
    except NlinstructError as exc:  # unaligned or empty per-example lists
        raise DataError(f"{args.report_a} and {args.report_b}: {exc}") from None
    verdict = "significant" if significant else "not significant"
    print(f"p-value {p:.4f} at alpha {args.alpha}: {verdict}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlinstruct", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="random state pairs for one domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--count", type=int, required=True, help="pairs per interface method")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_generate)

    def experiment_flags(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--target-domain", default=None)
        p.add_argument("--algorithm", choices=("gmdp", "adagrad"), default=None)
        p.add_argument("--no-new-features", action="store_true")
        p.add_argument("--no-logic-filter", action="store_true")
        p.add_argument("--in-domain", action="store_true")

    p = sub.add_parser("tune", help="hyper-parameter grid search")
    experiment_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="train and save a model")
    experiment_flags(p)
    p.add_argument("--tuned", default=None, help="configuration file written by tune")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="full experiment with report")
    experiment_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--ablation-suite", action="store_true",
                   help="run all eight trainer/feature/filter rows over every domain")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("parse", help="n-best parses for one utterance")
    p.add_argument("utterance")
    p.add_argument("--domain", required=True)
    p.add_argument("--state", required=True, help="JSON file with one state object")
    p.add_argument("--model", default=None)
    p.add_argument("--nbest", type=int, default=5)
    p.add_argument("--beam-size", type=int, default=ParserConfig.beam_size)
    p.add_argument("--max-rules", type=int, default=ParserConfig.max_rules)
    p.add_argument("--no-logic-filter", action="store_true")
    p.add_argument("--explain", action="store_true", help="print feature values")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("significance", help="paired bootstrap between two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_significance)
    return ap


def _refuse_unwritable_outputs(args) -> None:
    """Refuse, before any work, an ``--out`` whose directory does not exist
    or that would be written over a directory: the path itself, and for
    ``generate`` its gold sidecar."""
    out = getattr(args, "out", None)
    if out is None:
        return
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"{out}: output directory does not exist")
    paths = [out, out + ".gold.jsonl"] if args.command == "generate" else [out]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"{path}: output path is a directory")


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        _refuse_unwritable_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NlinstructError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
