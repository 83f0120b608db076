"""The chart's returned roots against a stored reference.

``tests/data/chart_golden.json`` holds a fixed weight vector and, for two
corpus examples per domain at beam 20 / 9 rule applications, every root
that ``generate_candidates`` returns, in order, as (printed form,
``repr`` of the score, size). Any change to the chart (composition,
deduplication, scoring, pruning or tie-breaking) that moves one of them
fails here, so a faster chart must keep it exactly.

Regenerate only for a change that means to move the chart's output, and
say so in the change's notes::

    PYTHONPATH=src python tests/test_chart_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from nlinstruct.domains import get_domain
from nlinstruct.features import tokenize
from nlinstruct.parser import ParserConfig, generate_candidates
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus

GOLDEN = Path(__file__).parent / "data" / "chart_golden.json"
BEAM, MAX_RULES = 20, 9
CORPUS_SEED = 23


def _examples():
    return [ex for did in CORPUS_DOMAINS
            for ex, _ in build_domain_corpus(get_domain(did), 2, seed=CORPUS_SEED)]


def _chart(weights: dict) -> list[dict]:
    config = ParserConfig(beam_size=BEAM, max_rules=MAX_RULES)
    out = []
    for ex in _examples():
        roots = generate_candidates(tokenize(ex.utterance), ex.initial,
                                    get_domain(ex.domain_id), config, weights)
        out.append({
            "id": ex.id,
            "utterance": ex.utterance,
            "roots": [[d.lf.printed, repr(d.score), d.size_used] for d in roots],
        })
    return out


def _fixed_weights() -> dict:
    """One AdaGrad pass over one example per domain, with a few keys set to
    values whose sums round differently in different orders."""
    from nlinstruct.parser import Pipeline
    from nlinstruct.training import TrainConfig, adagrad

    config = ParserConfig(beam_size=BEAM, max_rules=MAX_RULES)
    train = [ex for did in CORPUS_DOMAINS
             for ex, _ in build_domain_corpus(get_domain(did), 1, seed=3)]
    weights = adagrad(train, {}, TrainConfig(iterations=1, seed=7),
                      Pipeline(get_domain, config))
    weights.update({"size>4": 1 / 3, "rule|argmax": 1 / 7, "unevoked|relation": 0.1,
                    "missing-any|relation": 0.7, "rule|intersect": -0.2,
                    "rule|anchor-ordinal": 2.5e-8})
    return weights


def test_chart_roots_equal_the_stored_reference():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["beam_size"], golden["max_rules"]) == (BEAM, MAX_RULES)
    got = _chart(golden["weights"])
    assert [e["id"] for e in got] == [e["id"] for e in golden["examples"]]
    for want, have in zip(golden["examples"], got):
        assert have["utterance"] == want["utterance"]
        assert have["roots"] == want["roots"], want["id"]
    assert sum(len(e["roots"]) for e in got) > 500


def _dump(golden: dict) -> str:
    """JSON with one weight and one root per line."""
    head = {k: v for k, v in golden.items() if k not in ("weights", "examples")}
    lines = ["{"] + [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    lines.append(' "weights": {')
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                            for k, v in golden["weights"].items()))
    lines.append(' },')
    lines.append(' "examples": [')
    examples = []
    for e in golden["examples"]:
        roots = ",\n".join(f"    {json.dumps(r)}" for r in e["roots"])
        examples.append(f'  {{"id": {json.dumps(e["id"])}, '
                        f'"utterance": {json.dumps(e["utterance"])}, "roots": [\n{roots}\n  ]}}')
    lines.append(",\n".join(examples))
    lines.append(" ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_chart_golden.py --write")
    weights = _fixed_weights()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({
        "beam_size": BEAM,
        "max_rules": MAX_RULES,
        "corpus_seed": CORPUS_SEED,
        "weights": weights,
        "examples": _chart(weights),
    }))
