"""The CLI's exit contract as a property: whatever is wrong with an input
file or a flag value, ``nlinstruct`` exits 2 (configuration), 3 (data) or
4 (runtime) with exactly one line on stderr, and never a traceback.

Every input the strategies make is invalid by construction: a file is
truncated before its JSON ends, loses a required key, has a node replaced
by a value of another JSON type or an out-of-range value, or gains an
unknown key; a flag gets a value below its range.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from nlinstruct import dataio
from nlinstruct.cli import main
from nlinstruct.domains import builtin_domains, get_domain
from nlinstruct.synthetic import build_domain_corpus
from nlinstruct.training import DomainPartition, TrainConfig, save_model

from conftest import lighting_paper_state

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(width=32), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _kind(value) -> str:
    return "number" if isinstance(value, float) else type(value).__name__


def _fits(kind: str, value) -> bool:
    """Whether ``value`` is of the JSON type that a node of ``kind`` has."""
    if kind == "number":
        return _kind(value) in ("int", "number")
    return _kind(value) == kind


def _nodes(doc, path=()):
    """(path, value) of every node below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


class Kind:
    """One input file kind: a valid document, how to run the CLI on it
    (from the broken file's path and the changed node's path), which keys
    it cannot do without, which nodes may be null, out-of-range values per
    node, and whether it rejects unknown keys."""

    def __init__(self, name, doc, argv, required, bad_values=(), nullable=(),
                 closed=False, header=None):
        self.name = name
        self.doc = doc
        self.argv = argv
        self.required = required
        self.bad_values = dict(bad_values)
        self.nullable = nullable
        self.closed = closed
        self.header = header  # a dataset's first line

    def text(self, doc) -> str:
        body = json.dumps(doc)
        return body if self.header is None else self.header + "\n" + body


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _setup(root: str) -> tuple[dict[str, Kind], dict[str, str]]:
    """The file kinds, and the paths of valid files of each kind."""
    (ex, _), = build_domain_corpus(get_domain("list"), 1, seed=4)
    files = {"dataset": os.path.join(root, "data.jsonl"), "model": os.path.join(root, "model.json")}
    dataio.write_dataset(files["dataset"], [ex])
    header = json.dumps({"header": {"format": dataio.DATASET_FORMAT,
                                    "version": dataio.DATASET_VERSION}})
    config = {"dataset": files["dataset"], "target_domain": "list", "algorithm": "adagrad",
              "seed": 0, "beam_size": 5, "max_rule_applications": 5,
              "grid": {"l1": [0.001], "step_size": [0.1], "iterations": [1]},
              "train": {"l1": 0.001, "step_size": 0.1, "iterations": 1}}
    files["config"] = _write_json(os.path.join(root, "config.json"), config)
    state = dataio.state_to_json(lighting_paper_state())
    files["state"] = _write_json(os.path.join(root, "state.json"), state)
    save_model(files["model"], {"cooc-any|method|desc": 2.0, "size>3": -0.5}, TrainConfig(),
               DomainPartition(("list",), ("container",)))
    with open(files["model"]) as fh:
        model = json.load(fh)
    report = {"per_example": [{"id": "a", "credit": 1.0, "tie_count": 1, "correct_in_tie": 1,
                               "parse_failed": False}]}
    files["report"] = _write_json(os.path.join(root, "report.json"), report)
    out = os.path.join(root, "out.json")

    def parse(state_file, model_file):
        return ["parse", "turn off the light in the bedroom", "--domain", "lighting",
                "--state", state_file, "--model", model_file,
                "--beam-size", "5", "--max-rules", "5"]

    def eval_on(dataset):
        path = _write_json(os.path.join(os.path.dirname(dataset), "run.json"),
                           dict(config, dataset=dataset))
        return ["eval", "--config", path, "--out", out]

    domain_ids = {d.id for d in builtin_domains()}
    kinds = (
        # the grid is read by tune, the train section by train
        Kind("config", config,
             lambda f, p: ["tune" if p[:1] == ("grid",) else "train", "--config", f,
                           "--out", out],
             lambda p: p == ("dataset",),
             {("algorithm",): st.text(max_size=6).filter(lambda a: a not in ("gmdp", "adagrad")),
              ("beam_size",): st.integers(-3, 0),
              ("max_rule_applications",): st.integers(-3, 0),
              ("grid", "l1"): st.just([]),
              ("train", "l1"): st.floats(max_value=-1e-9),
              ("train", "step_size"): st.floats(max_value=0.0),
              ("train", "iterations"): st.integers(-3, -1)}.items(),
             closed=True),
        Kind("dataset", dataio.example_to_json(ex), lambda f, p: eval_on(f), lambda p: True,
             {("domain",): st.text(max_size=6).filter(lambda d: d not in domain_ids),
              ("initial", "triples", 0, 1): st.sampled_from(["nosuch", ""])}.items(),
             header=header),
        Kind("state", state, lambda f, p: parse(f, files["model"]), lambda p: True),
        Kind("model", model, lambda f, p: parse(files["state"], f),
             lambda p: p != ("partition",) and (len(p) == 1 or p[0] == "partition"),
             {("format",): st.text(max_size=6), ("version",): st.integers(2, 5)}.items(),
             nullable=(("partition",),)),
        Kind("tuned", TrainConfig().to_json(),
             lambda f, p: ["train", "--config", files["config"], "--tuned", f, "--out", out],
             lambda p: False,
             {("l1",): st.floats(max_value=-1e-9), ("step_size",): st.floats(max_value=0.0),
              ("iterations",): st.integers(-3, -1)}.items(),
             closed=True),
        Kind("report", report, lambda f, p: ["significance", f, files["report"]], lambda p: True,
             {("per_example", 0, "credit"): st.sampled_from([math.nan, math.inf])}.items()),
    )
    return {k.name: k for k in kinds}, files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> tuple[dict[str, Kind], dict[str, str]]:
    return _setup(str(tmp_path_factory.mktemp("contract")))


@st.composite
def broken_files(draw, kinds: dict[str, Kind]):
    """(kind, path of the node that was changed, file text)."""
    kind = kinds[draw(st.sampled_from(sorted(kinds)))]
    doc = copy.deepcopy(kind.doc)
    how = draw(st.sampled_from(["truncate", "delete", "out-of-range", "unknown-key", "retype"]))
    if how == "truncate":
        text = kind.text(doc)
        return kind, (), text[:draw(st.integers(0, len(text) - 1))]
    nodes = list(_nodes(doc))
    if how == "delete":
        keys = [p for p, _ in nodes if isinstance(p[-1], str) and kind.required(p)]
        if keys:
            path = draw(st.sampled_from(keys))
            del _parent(doc, path)[path[-1]]
            return kind, path, kind.text(doc)
    if how == "out-of-range" and kind.bad_values:
        path = draw(st.sampled_from(sorted(kind.bad_values, key=repr)))
        _parent(doc, path)[path[-1]] = draw(kind.bad_values[path])
        return kind, path, kind.text(doc)
    if how == "unknown-key" and kind.closed:
        path = draw(st.sampled_from([()] + [p for p, v in nodes if isinstance(v, dict)]))
        _parent(doc, path + (None,))["no_such_" + draw(st.text("abc", min_size=1, max_size=3))] = 1
        return kind, path, kind.text(doc)
    # a non-null node gets a value of another JSON type
    path, value = draw(st.sampled_from([(p, v) for p, v in nodes if v is not None]))
    _parent(doc, path)[path[-1]] = draw(_ANY.filter(
        lambda v: not _fits(_kind(value), v) and not (v is None and path in kind.nullable)))
    return kind, path, kind.text(doc)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code: int, out: str, err: str, context) -> None:
    assert code in (2, 3, 4), (code, out, err, context)
    assert "Traceback" not in out + err, context
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("config error:", "data error:", "error:")), \
        (err, context)


@SETTINGS
@given(data=st.data())
def test_broken_input_files_exit_with_one_line(inputs, data):
    kind, path, text = data.draw(broken_files(inputs[0]))
    with tempfile.TemporaryDirectory() as workdir:
        target = os.path.join(workdir, f"{kind.name}.json")
        with open(target, "w") as fh:
            fh.write(text)
        code, out, err = _run(kind.argv(target, path))
    _assert_contract(code, out, err, (kind.name, path, text[:200]))


_FLAGS = st.one_of(
    st.tuples(st.just("parse"), st.sampled_from(["--nbest", "--beam-size", "--max-rules"]),
              st.integers(-5, 0)),
    st.tuples(st.just("parse"), st.just("--max-rules"), st.integers(min_value=31)),
    st.tuples(st.just("generate"), st.just("--count"), st.integers(-5, -1)),
    st.tuples(st.just("significance"), st.just("--iterations"), st.integers(-5, 0)),
    st.tuples(st.just("significance"), st.just("--seed"), st.integers(-5, -1)),
    st.tuples(st.just("significance"), st.just("--alpha"),
              st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan))),
)


@SETTINGS
@given(data=st.data())
def test_out_of_range_flags_exit_2_with_one_line(inputs, data):
    kinds, files = inputs
    command, flag, value = data.draw(_FLAGS)
    with tempfile.TemporaryDirectory() as workdir:
        if command == "parse":
            argv = kinds["state"].argv(files["state"], ())
        elif command == "generate":
            argv = ["generate", "--domain", "list", "--count", "1",
                    "--out", os.path.join(workdir, "pairs.jsonl")]
        else:
            argv = ["significance", files["report"], files["report"]]
        # a later value of a flag overrides an earlier one
        code, out, err = _run(argv + [f"{flag}={value}"])
        assert not os.listdir(workdir)
    _assert_contract(code, out, err, (command, flag, value))
    assert code == 2 and err.startswith("config error:")
