"""File formats: line-delimited datasets, gold-call sidecars, run configs.

Dataset records are one JSON object per line:

    {"id": ..., "domain": ..., "utterance": ...,
     "initial": {"entities": [{"id": ..., "type": ...}, ...],
                 "triples": [[subjectId, relation, object], ...]},
     "desired": {same shape}}

Objects are kind-tagged: {"int": 4} | {"str": "bedroom"} | {"sym": "ON"} |
{"ent": "room1"}. An optional first line {"header": {...}} carries
provenance. Gold method calls live in a separate sidecar file that only
test tooling reads; no training code path parses it.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable

from .domains.base import Example, MethodCall
from .errors import ConfigError, DataError
from .kb import TYPE_RELATION, Entity, IntVal, State, SymVal, TextVal, Triple, Value

DATASET_FORMAT = "nlinstruct-dataset"
DATASET_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write-then-rename so readers never observe partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_input_text(path) -> str:
    """The text of an input file; :class:`DataError` naming the path when
    it is missing, unreadable or not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from None


def read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; :class:`DataError` naming the path when
    the file cannot be read, is not valid JSON (also when it holds an
    integer too long to convert or nests deeper than the recursion limit)
    or holds something other than an object."""
    try:
        obj = json.loads(read_input_text(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: a {what} must be a JSON object")
    return obj


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Values and states
# ---------------------------------------------------------------------------


def value_to_json(v: Value):
    if isinstance(v, IntVal):
        return {"int": v.value}
    if isinstance(v, TextVal):
        return {"str": v.value}
    if isinstance(v, SymVal):
        return {"sym": v.name}
    return {"ent": v.id}


_VALUES = {"int": (int, IntVal), "str": (str, TextVal), "sym": (str, SymVal), "ent": (str, None)}


def _value_from_json(obj, entities: dict[str, Entity]) -> Value:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise DataError(f"bad value object: {obj!r}")
    ((tag, payload),) = obj.items()
    if tag not in _VALUES:
        raise DataError(f"unknown value tag {tag!r}")
    kind, make = _VALUES[tag]
    if not isinstance(payload, kind) or isinstance(payload, bool):
        raise DataError(f"bad value object: {obj!r}")
    if make is not None:
        return make(payload)
    try:
        return entities[payload]
    except KeyError:
        raise DataError(f"triple references unknown entity {payload!r}") from None


def state_to_json(state: State) -> dict:
    entities = sorted(state.entities, key=lambda e: e.id)
    triples = sorted(
        state.triples,
        key=lambda t: (t.subject.id, t.relation, json.dumps(value_to_json(t.object), sort_keys=True)),
    )
    return {
        "entities": [{"id": e.id, "type": e.etype} for e in entities],
        "triples": [[t.subject.id, t.relation, value_to_json(t.object)] for t in triples],
    }


def state_from_json(domain_id: str, obj: dict) -> State:
    try:
        if not isinstance(obj["entities"], list) or not isinstance(obj["triples"], list):
            raise DataError("malformed state object: entities and triples must be lists")
        entities = {}
        for e in obj["entities"]:
            if not isinstance(e["id"], str) or not isinstance(e["type"], str):
                raise DataError(f"malformed state object: bad entity {e!r}")
            if e["id"] in entities:
                raise DataError(f"malformed state object: entity {e['id']!r} declared twice")
            entities[e["id"]] = Entity(e["id"], e["type"])
        # an entity's type is also a triple; files in the README's format may leave it out
        triples = [Triple(e, TYPE_RELATION, SymVal(e.etype)) for e in entities.values()]
        for t in obj["triples"]:
            if not (isinstance(t, list) and len(t) == 3
                    and isinstance(t[0], str) and isinstance(t[1], str)):
                raise DataError(f"malformed state object: bad triple {t!r}")
            sid, relation, raw = t
            subject = entities.get(sid)
            if subject is None:
                raise DataError(f"triple subject {sid!r} is not a declared entity")
            triples.append(Triple(subject, relation, _value_from_json(raw, entities)))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed state object: {exc}") from None
    return State(domain_id, entities.values(), triples)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def example_to_json(ex: Example) -> dict:
    return {
        "id": ex.id,
        "domain": ex.domain_id,
        "utterance": ex.utterance,
        "initial": state_to_json(ex.initial),
        "desired": state_to_json(ex.desired),
    }


def example_from_json(obj: dict) -> Example:
    try:
        ex_id, domain, utterance, initial, desired = (
            obj[k] for k in ("id", "domain", "utterance", "initial", "desired"))
    except KeyError as exc:
        raise DataError(f"dataset record missing field {exc}") from None
    for key, value in (("id", ex_id), ("domain", domain), ("utterance", utterance)):
        if not isinstance(value, str):
            raise DataError(f"dataset record field {key!r} must be a string")
    return Example(id=ex_id, domain_id=domain, utterance=utterance,
                   initial=state_from_json(domain, initial),
                   desired=state_from_json(domain, desired))


def write_dataset(path, examples: Iterable[Example], header: dict | None = None) -> None:
    lines = []
    meta = {"format": DATASET_FORMAT, "version": DATASET_VERSION}
    if header:
        meta.update(header)
    lines.append(json.dumps({"header": meta}, sort_keys=True))
    lines.extend(json.dumps(example_to_json(ex), sort_keys=True) for ex in examples)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path) -> list[Example]:
    """The examples in a dataset file; :class:`DataError` naming the path,
    and the line for a bad row, when the file or a row is invalid."""
    out = []
    for lineno, line in enumerate(read_input_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: not valid JSON ({exc})") from None
        try:
            if not isinstance(obj, dict):
                raise DataError("a dataset row must be a JSON object")
            if "header" in obj:
                continue
            out.append(example_from_json(obj))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return out


def write_gold_sidecar(path, records: Iterable[tuple[str, MethodCall]]) -> None:
    """One JSON line per (example id, gold call) pair: ``id``, ``method``
    and ``args``, each argument a sorted list of values. Test-only output:
    nothing in the package reads it."""
    lines = []
    for ex_id, call in records:
        lines.append(
            json.dumps(
                {
                    "id": ex_id,
                    "method": call.method.name,
                    "args": [
                        sorted((value_to_json(v) for v in arg), key=lambda o: json.dumps(o, sort_keys=True))
                        for arg in call.args
                    ],
                },
                sort_keys=True,
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "dataset": str,
    "target_domain": str,
    "algorithm": str,
    "use_new_features": bool,
    "use_logic_filter": bool,
    "in_domain": bool,
    "seed": int,
    "beam_size": int,
    "max_rule_applications": int,
    "grid": dict,
    "train": dict,
    "generation": dict,
}

_GRID_KEYS = {"l1", "step_size", "iterations", "iterations_step1", "partition_sizes", "num_orderings"}
_TRAIN_KEYS = {"l1", "step_size", "iterations", "iterations_step1", "partition_size",
               "domain_ordering", "seed", "reset_accumulators"}

DEFAULTS = {
    "algorithm": "gmdp",
    "use_new_features": True,
    "use_logic_filter": True,
    "in_domain": False,
    "seed": 0,
    "beam_size": 200,
    "max_rule_applications": 15,
}


def _check_generation(path, section: dict) -> None:
    """``generation`` maps built-in domain ids to objects of that domain's
    range names, each a [lo, hi] pair of integers with 0 <= lo <= hi, and
    within the domain's ``range_limits`` where it has one."""
    from .domains import builtin_domains

    domains = {d.id: d for d in builtin_domains()}
    for domain_id, ranges in section.items():
        where = f"{path}: generation.{domain_id}"
        domain = domains.get(domain_id)
        if domain is None:
            raise ConfigError(f"{where}: unknown domain (known: {', '.join(sorted(domains))})")
        if not isinstance(ranges, dict):
            raise ConfigError(f"{where} must be an object")
        for name, pair in ranges.items():
            if name not in domain.default_ranges:
                raise ConfigError(f"{where}: unknown range {name!r} "
                                  f"(known: {', '.join(domain.default_ranges)})")
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) is int for v in pair) and 0 <= pair[0] <= pair[1]):
                raise ConfigError(f"{where}.{name} must be a [lo, hi] pair of integers "
                                  f"with 0 <= lo <= hi, got {pair!r}")
            least, most = domain.range_limits.get(name, (0, pair[1]))
            if pair[0] < least or pair[1] > most:
                raise ConfigError(f"{where}.{name} must lie within [{least}, {most}] for "
                                  f"this domain's state generator, got {pair!r}")


def load_run_config(path) -> dict:
    """Parse and validate a run configuration; unknown keys are rejected."""
    try:
        raw = json.loads(read_input_text(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key, value in raw.items():
        if key not in _TOP_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r}")
        want = _TOP_KEYS[key]
        if want is int and isinstance(value, bool):
            raise ConfigError(f"{path}: key {key!r} must be an integer")
        if not isinstance(value, want):
            raise ConfigError(f"{path}: key {key!r} must be {want.__name__}")
    for section, allowed in (("grid", _GRID_KEYS), ("train", _TRAIN_KEYS)):
        for key in raw.get(section, {}):
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
    if raw.get("algorithm") not in (None, "gmdp", "adagrad"):
        raise ConfigError(f"{path}: algorithm must be 'gmdp' or 'adagrad'")
    _check_generation(path, raw.get("generation", {}))
    config = dict(DEFAULTS)
    config.update(raw)
    return config
