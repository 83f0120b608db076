from __future__ import annotations

import random
import re
from types import SimpleNamespace

from nlinstruct.domains import get_domain
from nlinstruct.features import (
    OPERATOR_PHRASES,
    Featurizer,
    UtteranceContext,
    build_lexicon,
    tokenize,
)
from nlinstruct.logic import ARGMAX, Superlative, TypeSet

from conftest import join, root
from oracles import reference_preds


def _root(lf, size_used: int, rules=None) -> SimpleNamespace:
    """A root derivation: its form, size and rule counts."""
    return SimpleNamespace(lf=lf, size_used=size_used, rules=rules or {})


def _features(ctx: UtteranceContext, deriv) -> dict[str, float]:
    """The root feature dict of ``deriv``, decoded from its score key."""
    bits, packed = ctx.key(reference_preds(deriv.lf), deriv.rules, deriv.size_used)
    return ctx.features(SimpleNamespace(bits=bits, packed=packed), True)


def _remove_largest_file(domain):
    return root(domain, "removeFiles", Superlative(ARGMAX, TypeSet("File"), "sizeInBytes"))


def _root_features(tokens, deriv, lexicon) -> dict[str, float]:
    return _features(UtteranceContext(tuple(tokens), lexicon, True), deriv)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Delete the largest file") == ["delete", "the", "largest", "file"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_punctuation_keeps_digits():
    assert tokenize("floor 2.") == ["floor", "2"]


def test_cooc_fires_for_description_phrase_match():
    domain = get_domain("file")
    lexicon = build_lexicon(domain)
    lf = _remove_largest_file(domain)
    feats = _root_features(tokenize("Delete the largest file"), _root(lf, 5), lexicon)
    assert feats["cooc|delete|removeFiles"] == 1.0
    assert feats["cooc-any|method|desc"] >= 1.0
    assert "missing|delete|removeFiles" not in feats


def test_missing_fires_when_method_is_absent():
    domain = get_domain("file")
    lexicon = build_lexicon(domain)
    lf = root(domain, "moveFiles", TypeSet("File"), join("name", "documents"))
    feats = _root_features(tokenize("Delete the largest file"), _root(lf, 6), lexicon)
    assert feats["missing|delete|removeFiles"] == 1.0
    assert feats["missing-any|method"] == 1.0
    assert "cooc|delete|removeFiles" not in feats


def test_size_indicators_fire_strictly_below_size():
    domain = get_domain("file")
    lexicon = build_lexicon(domain)
    lf = root(domain, "removeFiles", TypeSet("File"))
    feats = _root_features([], _root(lf, 5), lexicon)
    assert {k for k in feats if k.startswith("size>")} == {"size>2", "size>3", "size>4"}
    assert all(feats[k] == 1.0 for k in ("size>2", "size>3", "size>4"))


def test_build_lexicon_calendar_remove_events():
    lexicon = build_lexicon(get_domain("calendar"))
    assert lexicon[("method", "removeEvents")] == {"remove", "cancel"}


def test_build_lexicon_copies_method_phrases():
    domain = get_domain("file")
    lexicon = build_lexicon(domain)
    assert lexicon[("method", "moveFiles")] == set(domain.method("moveFiles").phrases)


def test_lexicon_without_relations_has_method_and_operator_entries(toy_domain):
    toy_domain.relations = {}
    lexicon = build_lexicon(toy_domain)
    kinds = {kind for kind, _ in lexicon}
    assert kinds == {"method", "operator"}
    assert lexicon[("operator", "argmax")] == set(OPERATOR_PHRASES["argmax"])


def test_operator_phrases_are_the_fixed_global_lists():
    assert set(OPERATOR_PHRASES["argmax"]) == {"largest", "longest", "biggest", "most", "last", "highest"}
    assert set(OPERATOR_PHRASES["argmin"]) == {"smallest", "shortest", "first", "least", "lowest"}


def test_feature_names_never_leak_entity_or_domain_ids():
    rng = random.Random(77)
    banned = re.compile(r"(room\d|el\d|c\d|f\d|d\d|u\d|g\d|ev\d|e\d)\b|lighting|workforce|messenger")
    for domain_id in ("lighting", "list", "workforce"):
        domain = get_domain(domain_id)
        featurizer = Featurizer(domain)
        state = domain.generate_state(rng, domain.default_ranges)
        from nlinstruct.parser import generate_candidates, ParserConfig

        cands = generate_candidates(
            tokenize("remove the first one now"), state, domain,
            ParserConfig(beam_size=15, max_rules=7), {}, featurizer,
        )
        for d in cands:
            for name in d.feats:
                assert not banned.search(name), name


def test_extraction_is_deterministic():
    domain = get_domain("file")
    lexicon = build_lexicon(domain)
    lf = _remove_largest_file(domain)
    tokens = tokenize("delete the largest file please")
    a = _root_features(tokens, _root(lf, 5), lexicon)
    b = _root_features(tokens, _root(lf, 5), lexicon)
    assert a == b


def test_cooc_and_missing_are_exclusive_per_lexicon_pair():
    domain = get_domain("container")
    lexicon = build_lexicon(domain)
    tokens = tokenize("unload the longest container in terminal four")
    with_method = root(domain, "unloadContainers", join("index", 4))
    without = root(domain, "loadContainers", join("index", 4))
    for lf in (with_method, without):
        feats = _root_features(tokens, _root(lf, 5), lexicon)
        for (kind, name), phrases in lexicon.items():
            for p in phrases:
                both = {f"cooc|{p}|{name}", f"missing|{p}|{name}"}
                assert not both <= feats.keys(), (p, name)


def test_size_features_grow_monotonically():
    domain = get_domain("file")
    lexicon = build_lexicon(domain)
    lf = root(domain, "removeFiles", TypeSet("File"))
    small = _root_features([], _root(lf, 4), lexicon)
    large = _root_features([], _root(lf, 7), lexicon)
    small_sizes = {k for k in small if k.startswith("size>")}
    large_sizes = {k for k in large if k.startswith("size>")}
    assert small_sizes < large_sizes


def test_baseline_template_set_drops_new_features():
    domain = get_domain("file")
    featurizer = Featurizer(domain, use_new_features=False)
    ctx = featurizer.context(tuple(tokenize("delete the largest file")))
    lf = _remove_largest_file(domain)
    feats = _features(ctx, _root(lf, 7))
    assert "cooc|delete|removeFiles" not in feats  # description phrases are off
    assert not any(k.startswith("size>") for k in feats)
    # name-token matching survives: "size" is a word inside sizeInBytes
    ctx2 = featurizer.context(tuple(tokenize("delete the file of size 9")))
    assert "cooc|size|sizeInBytes" in _features(ctx2, _root(lf, 7))
    lf2 = root(domain, "removeFiles", TypeSet("File"))
    assert "missing|size|sizeInBytes" in _features(ctx2, _root(lf2, 3))


def test_rule_applications_are_counted():
    domain = get_domain("list")
    lexicon = build_lexicon(domain)
    lf = root(domain, "remove", join("value", 2))
    rules = {"call": 1, "float-method": 1, "rjoin": 1, "float-relation": 1, "anchor-int": 1}
    feats = _root_features(tokenize("remove the number 2"), _root(lf, 5, rules), lexicon)
    assert feats["rule|anchor-int"] == 1.0
    assert feats["rule|rjoin"] == 1.0
    assert "rule|anchor-text" not in feats
