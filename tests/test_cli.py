from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlinstruct
from nlinstruct import dataio
from nlinstruct.cli import main
from nlinstruct.dataio import save_model
from nlinstruct.domains import get_domain
from nlinstruct.domains.base import MethodCall
from nlinstruct.kb import SymVal
from nlinstruct.synthetic import build_domain_corpus
from nlinstruct.training import TrainConfig

from conftest import lighting_paper_state


def _write_config(path, **overrides):
    config = {"dataset": overrides.pop("dataset"), "target_domain": "list",
              "algorithm": "adagrad", "seed": 0, "beam_size": 20,
              "max_rule_applications": 7,
              "grid": {"l1": [0.001], "step_size": [0.1], "iterations": [1]}}
    config.update(overrides)
    path.write_text(json.dumps(config))
    return str(path)


def _tiny_dataset(tmp_path, per_domain=5):
    examples = []
    for did in ("lighting", "list", "container", "workforce"):
        examples.extend(ex for ex, _ in build_domain_corpus(get_domain(did), per_domain, seed=4))
    out = tmp_path / "data.jsonl"
    dataio.write_dataset(out, examples)
    return str(out)


def test_generate_writes_count_per_method(tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    assert main(["generate", "--domain", "lighting", "--count", "10",
                 "--seed", "3", "--out", str(out)]) == 0
    examples = dataio.read_dataset(out)
    assert len(examples) == 20  # two interface methods
    assert all(ex.utterance == "" for ex in examples)
    with open(str(out) + ".gold.jsonl", encoding="utf-8") as fh:
        gold = [json.loads(line) for line in fh]
    assert len(gold) == 20 and {g["method"] for g in gold} == {"turnLightOn", "turnLightOff"}
    assert all(g.keys() == {"id", "method", "args"} for g in gold)


def test_generate_zero_count_leaves_header_only(tmp_path):
    out = tmp_path / "none.jsonl"
    assert main(["generate", "--domain", "list", "--count", "0", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 1 and "header" in lines[0]


def test_generate_is_byte_identical_per_seed(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["generate", "--domain", "container", "--count", "4", "--seed", "9", "--out", str(a)])
    main(["generate", "--domain", "container", "--count", "4", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_follows_the_configs_ranges(tmp_path):
    ranges = {"lighting": {"floors": [2, 2], "rooms_per_floor": [1, 1]}}
    assert main(_generate_with(tmp_path, ranges)) == 0
    for ex in dataio.read_dataset(tmp_path / "pairs.jsonl"):
        assert len(ex.initial.entities) == 2


def test_dataset_round_trip(tmp_path):
    path = _tiny_dataset(tmp_path)
    first = dataio.read_dataset(path)
    out2 = tmp_path / "copy.jsonl"
    dataio.write_dataset(out2, first)
    second = dataio.read_dataset(out2)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.id == b.id and a.utterance == b.utterance
        assert a.initial == b.initial
        assert a.desired == b.desired


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"dataset": "x", "no_such_key": 1}))
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_dataset_exits_3(tmp_path):
    config = _write_config(tmp_path / "c.json", dataset=str(tmp_path / "missing.jsonl"))
    assert main(["eval", "--config", config, "--out", str(tmp_path / "r.json")]) == 3


def test_train_then_parse_round_trip(tmp_path, capsys):
    dataset = _tiny_dataset(tmp_path)
    config = _write_config(tmp_path / "c.json", dataset=dataset,
                           train={"l1": 0.001, "step_size": 0.1, "iterations": 1})
    model = tmp_path / "model.json"
    assert main(["train", "--config", config, "--out", str(model)]) == 0
    assert model.exists()

    ex = dataio.read_dataset(dataset)[0]
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(dataio.state_to_json(ex.initial)))
    code = main(["parse", ex.utterance or "turn off the lights",
                 "--domain", ex.domain_id, "--state", str(state_file),
                 "--model", str(model), "--beam-size", "20", "--max-rules", "7",
                 "--explain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1." in out and "score=" in out


def test_parse_ranks_fixture_weights(tmp_path, capsys):
    domain = get_domain("lighting")
    state = domain.generate_state(__import__("random").Random(3), domain.default_ranges)
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(dataio.state_to_json(state)))
    model = tmp_path / "m.json"
    save_model(model, {"cooc-any|method|desc": 4.0, "size>2": -0.5, "size>3": -0.5,
                       "size>4": -0.5, "size>5": -0.5, "size>6": -0.5},
               TrainConfig())
    code = main(["parse", "turn off the light in the bedroom on floor 2",
                 "--domain", "lighting", "--state", str(state_file),
                 "--model", str(model), "--beam-size", "40", "--max-rules", "9",
                 "--nbest", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split()[-1].startswith("turnLightOff(")


def test_parse_creates_a_group_after_a_group_id_too_long_for_int(tmp_path, capsys):
    # createChatGroup numbers the new group one past the largest g<digits>
    # id; int() refuses more than 4,300 digits, so the next id is counted
    # on the digits
    long_id = "g" + "9" * 5000
    state = {"entities": [{"id": "u1", "type": "User"}, {"id": "u2", "type": "User"},
                          {"id": long_id, "type": "ChatGroup"}],
             "triples": [["u1", "type", {"sym": "User"}], ["u2", "type", {"sym": "User"}],
                         [long_id, "type", {"sym": "ChatGroup"}],
                         [long_id, "index", {"int": 1}], [long_id, "contacts", {"ent": "u1"}]]}
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(state))
    code = main(["parse", "create a group with all users", "--domain", "messenger",
                 "--state", str(state_file), "--beam-size", "20", "--max-rules", "5"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.out + captured.err
    assert "createChatGroup(" in captured.out
    domain = get_domain("messenger")
    initial = dataio.state_from_json("messenger", state)
    created = domain.logic(initial, MethodCall(domain.method("createChatGroup"),
                                               (frozenset(initial.entities_of_type("User")),)))
    assert {e.id for e in created.entities_of_type("ChatGroup")} == {long_id, "g1" + "0" * 5000}


def test_parse_reads_type_triples_from_a_state_in_the_readme_format(tmp_path, capsys):
    # the README's state format lists each entity's type but no type triple
    state = {"entities": [{"id": "room1", "type": "Room"}, {"id": "room2", "type": "Room"}],
             "triples": [["room1", "floor", {"int": 1}], ["room1", "lightMode", {"sym": "OFF"}],
                         ["room1", "name", {"str": "kitchen"}], ["room2", "floor", {"int": 2}],
                         ["room2", "lightMode", {"sym": "OFF"}], ["room2", "name", {"str": "bedroom"}]]}
    loaded = dataio.state_from_json("lighting", state)
    assert loaded.subjects("type", SymVal("Room")) == loaded.entities
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(state))
    code = main(["parse", "turn on all the lights", "--domain", "lighting",
                 "--state", str(state_file), "--beam-size", "20", "--max-rules", "7",
                 "--nbest", "10"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "turnLightOn(R[type].Room)" in [line.split()[-1] for line in captured.out.splitlines()]
    # a file that already holds the type triples loads to the same state
    state["triples"] += [[e["id"], "type", {"sym": e["type"]}] for e in state["entities"]]
    assert dataio.state_from_json("lighting", state) == loaded


def test_eval_writes_report_with_isolation(tmp_path):
    dataset = _tiny_dataset(tmp_path)
    config = _write_config(tmp_path / "c.json", dataset=dataset)
    report_path = tmp_path / "report.json"
    assert main(["eval", "--config", config, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["isolation"]["clean"] is True
    assert report["experiment"]["target_domain"] == "list"
    assert report["per_example"]


def test_significance_on_identical_reports(tmp_path, capsys):
    dataset = _tiny_dataset(tmp_path)
    config = _write_config(tmp_path / "c.json", dataset=dataset)
    report_path = tmp_path / "report.json"
    main(["eval", "--config", config, "--out", str(report_path)])
    assert main(["significance", str(report_path), str(report_path),
                 "--iterations", "500"]) == 0
    assert "not significant" in capsys.readouterr().out


def test_ablation_suite_writes_the_eight_row_table(tmp_path, capsys):
    dataset = _tiny_dataset(tmp_path, per_domain=4)
    config = _write_config(
        tmp_path / "c.json", dataset=dataset,
        grid={"l1": [0.001], "step_size": [0.1], "iterations": [1],
              "partition_sizes": [1], "iterations_step1": [1], "num_orderings": 1},
    )
    out = tmp_path / "table.json"
    assert main(["eval", "--config", config, "--out", str(out), "--ablation-suite"]) == 0
    table = json.loads(out.read_text())
    assert [r["label"] for r in table["rows"]] == [
        "GMDP", "GMDP-F", "GMDP-A", "GMDP-FA",
        "AdaGrad", "AdaGrad-F", "AdaGrad-A", "AdaGrad-FA",
    ]
    assert table["domains"] == ["container", "lighting", "list", "workforce"]
    assert all(r["average"] is not None for r in table["rows"])


def test_gold_sidecar_has_no_reader_in_inference_or_training_code():
    # the sidecar is test-only input; nothing on the model side may parse it
    import inspect

    from nlinstruct import evaluation, features, logic, parser, training

    for module in (training, parser, evaluation, features, logic):
        assert "gold_sidecar" not in inspect.getsource(module)


# one two-step point; the grid's l1 axis is widened where tuning must choose
_GMDP_GRID = {"l1": [0.001], "step_size": [0.1], "iterations": [1],
              "partition_sizes": [1], "iterations_step1": [1], "num_orderings": 1}


def test_flag_overrides_reach_the_experiment(tmp_path):
    dataset = _tiny_dataset(tmp_path)
    config = _write_config(tmp_path / "c.json", dataset=dataset, grid=_GMDP_GRID)
    report_path = tmp_path / "r.json"
    assert main(["eval", "--config", config, "--out", str(report_path), "--seed", "3",
                 "--target-domain", "lighting", "--algorithm", "gmdp", "--no-new-features",
                 "--no-logic-filter"]) == 0
    report = json.loads(report_path.read_text())
    assert report["experiment"] == {
        "target_domain": "lighting", "label": "gmdp-F-A", "use_gmdp": True,
        "use_new_features": False, "use_logic_filter": False, "in_domain": False, "seed": 3,
    }
    assert report["tuned_config"]["seed"] == 3
    # in-domain tuning uses plain AdaGrad's grid whatever the algorithm
    tuned_path = tmp_path / "t.json"
    assert main(["tune", "--config", config, "--out", str(tuned_path),
                 "--algorithm", "gmdp", "--in-domain"]) == 0
    assert json.loads(tuned_path.read_text()) == TrainConfig(iterations=1).to_json()


def _tiny_dataset_dir(tmp_path):
    """The tiny dataset as a train split, plus a test split for the target."""
    directory = tmp_path / "splits"
    directory.mkdir()
    dataio.write_dataset(directory / "train.jsonl", dataio.read_dataset(_tiny_dataset(tmp_path)))
    test = [ex for ex, _ in build_domain_corpus(get_domain("list"), 4, seed=9)]
    dataio.write_dataset(directory / "test.jsonl", test)
    return str(directory)


@pytest.mark.parametrize("flags", [[], ["--in-domain"]], ids=["zero-shot", "in-domain"])
def test_tune_then_train_tuned_builds_the_model_eval_reports(tmp_path, flags):
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset_dir(tmp_path),
                           algorithm="gmdp", grid=dict(_GMDP_GRID, l1=[0.001, 0.01]))
    tuned, model, report = (str(tmp_path / name) for name in ("t.json", "m.json", "r.json"))
    assert main(["tune", "--config", config, "--out", tuned] + flags) == 0
    assert main(["train", "--config", config, "--tuned", tuned, "--out", model] + flags) == 0
    assert main(["eval", "--config", config, "--out", report] + flags) == 0
    tuned, model, report = (json.loads(open(path).read()) for path in (tuned, model, report))
    assert model["train_config"] == tuned == report["tuned_config"]
    assert model["partition"] == report["partition"]
    assert (report["partition"] is None) == bool(flags)
    assert model["weights"] == report["weights"] and report["weights"]
    # the file schemas, pinned against literals
    ordering = type(None) if flags else list
    assert {k: type(v) for k, v in tuned.items()} == {
        "l1": float, "step_size": float, "iterations": int, "iterations_step1": int,
        "partition_size": int, "domain_ordering": ordering, "seed": int,
        "reset_accumulators": bool}
    assert model.keys() == {"format", "version", "weights", "train_config", "partition", "ablation"}
    assert (model["format"], model["version"]) == ("nlinstruct-model", 1)
    assert model["ablation"] == {"use_new_features": True, "use_logic_filter": True}
    if not flags:
        assert report["partition"].keys() == {"d1", "d2"}
        assert all(type(d) is str for side in report["partition"].values() for d in side)


def _paper_state_parse_args(tmp_path) -> list[str]:
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(dataio.state_to_json(lighting_paper_state())))
    model = tmp_path / "m.json"
    save_model(model, {"cooc-any|method|desc": 2.0, "cooc|off|turnLightOff": 1.5,
                       "missing-any|method": -1.0, "unevoked|relation": -0.25,
                       "size>3": -0.5, "rule|intersect": 0.125}, TrainConfig())
    return ["parse", "turn off the light in the bedroom", "--domain", "lighting",
            "--state", str(state_file), "--model", str(model),
            "--beam-size", "20", "--max-rules", "7"]


# feature dicts are built lazily, for printed candidates only; the lines
# must not change
EXPLAIN_LINES = """\
1. score=+1.7500 size=3  turnLightOff(R[type].Room)
     cooc-any|method|desc = 1
     cooc|turn off|turnLightOff = 1
     missing-any|relation = 1
     missing|light|lightMode = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-type = 1
     size>2 = 1
     unevoked|relation = 1
2. score=+1.5000 size=5  turnLightOff(R[lightMode].ON)
     cooc-any|method|desc = 1
     cooc-any|relation|desc = 1
     cooc|light|lightMode = 1
     cooc|turn off|turnLightOff = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-relation = 1
     rule|float-sym = 1
     rule|rjoin = 1
     size>2 = 1
     size>3 = 1
     size>4 = 1
""".splitlines()


# the same parse without the logic filter: no-op calls such as switching
# off a light that is already off stay among the candidates
UNFILTERED_EXPLAIN_LINES = """\
1. score=+1.7500 size=3  turnLightOff(R[type].Room)
     cooc-any|method|desc = 1
     cooc|turn off|turnLightOff = 1
     missing-any|relation = 1
     missing|light|lightMode = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-type = 1
     size>2 = 1
     unevoked|relation = 1
2. score=+1.5000 size=5  turnLightOff(R[lightMode].OFF)
     cooc-any|method|desc = 1
     cooc-any|relation|desc = 1
     cooc|light|lightMode = 1
     cooc|turn off|turnLightOff = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-relation = 1
     rule|float-sym = 1
     rule|rjoin = 1
     size>2 = 1
     size>3 = 1
     size>4 = 1
3. score=+1.5000 size=5  turnLightOff(R[lightMode].ON)
     cooc-any|method|desc = 1
     cooc-any|relation|desc = 1
     cooc|light|lightMode = 1
     cooc|turn off|turnLightOff = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-relation = 1
     rule|float-sym = 1
     rule|rjoin = 1
     size>2 = 1
     size>3 = 1
     size>4 = 1
4. score=+1.3750 size=7  turnLightOff(Intersect(R[lightMode].OFF, R[type].Room))
     cooc-any|method|desc = 1
     cooc-any|relation|desc = 1
     cooc|light|lightMode = 1
     cooc|turn off|turnLightOff = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-relation = 1
     rule|float-sym = 1
     rule|float-type = 1
     rule|intersect = 1
     rule|rjoin = 1
     size>2 = 1
     size>3 = 1
     size>4 = 1
     size>5 = 1
     size>6 = 1
     unevoked|relation = 1
5. score=+1.3750 size=7  turnLightOff(Intersect(R[lightMode].ON, R[type].Room))
     cooc-any|method|desc = 1
     cooc-any|relation|desc = 1
     cooc|light|lightMode = 1
     cooc|turn off|turnLightOff = 1
     rule|call = 1
     rule|float-method = 1
     rule|float-relation = 1
     rule|float-sym = 1
     rule|float-type = 1
     rule|intersect = 1
     rule|rjoin = 1
     size>2 = 1
     size>3 = 1
     size>4 = 1
     size>5 = 1
     size>6 = 1
     unevoked|relation = 1
""".splitlines()


def test_parse_explain_prints_exact_feature_lines(tmp_path, capsys):
    for flags, lines in ((["--nbest", "2"], EXPLAIN_LINES),
                         (["--nbest", "5", "--no-logic-filter"], UNFILTERED_EXPLAIN_LINES)):
        assert main(_paper_state_parse_args(tmp_path) + flags + ["--explain"]) == 0
        assert capsys.readouterr().out.splitlines() == lines, flags


def test_parse_reads_a_digit_run_too_long_for_an_integer(tmp_path, capsys):
    # int() refuses digit runs longer than its limit; the parse goes on
    # without anchoring an integer there
    args = _paper_state_parse_args(tmp_path)
    args[1] = "turn off the light in the bedroom " + "2" * 5000
    assert main(args + ["--nbest", "1"]) == 0
    assert capsys.readouterr().out.startswith("1. score=")


def test_parse_uses_the_models_feature_set(tmp_path, capsys):
    args = _paper_state_parse_args(tmp_path) + ["--nbest", "5", "--explain"]
    model = tmp_path / "m.json"
    payload = json.loads(model.read_text())
    payload["ablation"] = {"use_new_features": False, "use_logic_filter": True}
    model.write_text(json.dumps(payload))
    assert main(args) == 0
    names = {line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("     ")}
    assert "rule|call" in names
    assert not {n for n in names
                if n.startswith(("size>", "unevoked|")) or n == "cooc-any|method|desc"}, names
    payload["ablation"]["use_new_features"] = "no"
    model.write_text(json.dumps(payload))
    assert main(args) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and "m.json: malformed model file" in err


def test_parse_uses_the_models_logic_filter(tmp_path, capsys):
    # a model trained without the filter ranks the candidates eval scored it on
    args = _paper_state_parse_args(tmp_path) + ["--nbest", "5", "--explain"]
    model = tmp_path / "m.json"
    payload = json.loads(model.read_text())
    payload["ablation"] = {"use_new_features": True, "use_logic_filter": False}
    model.write_text(json.dumps(payload))
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == UNFILTERED_EXPLAIN_LINES


def _assert_config_error(capsys, code, words):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("config error:") and "\n" not in err and words in err


@pytest.mark.parametrize("flags, words", [
    (["--beam-size", "0"], "beam size"),
    (["--max-rules", "0"], "max rule applications"),
    (["--nbest", "0"], "--nbest"),
    (["--nbest", "-2"], "--nbest"),
    (["--max-rules", "31"], "max rule applications must be at most 30"),
])
def test_parse_rejects_out_of_range_flags(tmp_path, capsys, flags, words):
    code = main(_paper_state_parse_args(tmp_path) + flags)
    _assert_config_error(capsys, code, words)


@pytest.mark.parametrize("key, words", [
    ("beam_size", "beam size"),
    ("max_rule_applications", "max rule applications"),
])
def test_run_config_with_zero_parser_setting_exits_2(tmp_path, capsys, key, words):
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset(tmp_path, 1), **{key: 0})
    code = main(["eval", "--config", config, "--out", str(tmp_path / "r.json")])
    _assert_config_error(capsys, code, words)
    assert not (tmp_path / "r.json").exists()


def test_run_config_with_rule_budget_above_the_limit_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset(tmp_path, 1),
                           max_rule_applications=31)
    code = main(["eval", "--config", config, "--out", str(tmp_path / "r.json")])
    _assert_config_error(capsys, code, "max rule applications must be at most 30")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("section, words", [
    ({"iterations": 2.5}, "iterations must be an integer"),
    ({"iterations_step1": True}, "iterations_step1 must be an integer"),
    ({"l1": "x"}, "l1 must be a finite number"),
    ({"domain_ordering": 5}, "domain_ordering must be a list"),
], ids=["float-iterations", "bool-iterations", "string-l1", "int-ordering"])
def test_run_config_with_mistyped_train_setting_exits_2(tmp_path, capsys, section, words):
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset(tmp_path, 1), train=section)
    code = main(["train", "--config", config, "--out", str(tmp_path / "m.json")])
    _assert_config_error(capsys, code, words)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("axes, words", [
    ({"l1": 0.1}, "grid.l1 must be a non-empty list"),
    ({"l1": []}, "grid.l1 must be a non-empty list"),
    ({"num_orderings": "x"}, "grid.num_orderings must be a positive integer"),
    ({"num_orderings": -1}, "grid.num_orderings must be a positive integer"),
], ids=["number-axis", "empty-axis", "string-orderings", "negative-orderings"])
def test_run_config_with_bad_grid_axis_exits_2(tmp_path, capsys, axes, words):
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset(tmp_path, 1),
                           algorithm="gmdp", grid=axes)
    code = main(["tune", "--config", config, "--out", str(tmp_path / "t.json")])
    _assert_config_error(capsys, code, words)
    assert not (tmp_path / "t.json").exists()


def test_generate_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    code = main(["generate", "--domain", "list", "--count", "-1", "--out", str(out)])
    _assert_config_error(capsys, code, "--count")
    assert not out.exists()


def _model_without(tmp_path, key):
    path = tmp_path / "m.json"
    save_model(path, {"size>2": 1.0}, TrainConfig())
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    return str(path)


def _bad_file(tmp_path, name, text):
    """The path of a file holding ``text``; None leaves the file missing."""
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    return str(path)


def _parse_with_state(tmp_path, state_text):
    args = _paper_state_parse_args(tmp_path)
    args[args.index("--state") + 1] = _bad_file(tmp_path, "bad_state.json", state_text)
    return args


def _parse_with_model(tmp_path, key):
    args = _paper_state_parse_args(tmp_path)
    args[args.index("--model") + 1] = _model_without(tmp_path, key)
    return args


def _parse_with_nan_weight(tmp_path):
    args = _paper_state_parse_args(tmp_path)
    path = tmp_path / "nan.json"
    save_model(path, {"rule|intersect": float("nan"), "size>2": 1.0}, TrainConfig())
    args[args.index("--model") + 1] = str(path)
    return args


def _parse_with_missing(tmp_path, flag):
    args = _paper_state_parse_args(tmp_path)
    args[args.index(flag) + 1] = str(tmp_path / "absent.json")
    return args


def _train_with_tuned(tmp_path, text):
    config = _write_config(tmp_path / "c.json", dataset=str(tmp_path / "unused.jsonl"))
    return ["train", "--config", config, "--tuned", _bad_file(tmp_path, "tuned.json", text),
            "--out", str(tmp_path / "model.json")]


def _train_gmdp(tmp_path, tuned=None, train=None):
    """``train`` with the two-step trainer on the tiny dataset, from a tuned
    file or from a ``train`` section."""
    sections = {"train": train} if train else {}
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset(tmp_path, 1),
                           algorithm="gmdp", **sections)
    args = ["train", "--config", config, "--out", str(tmp_path / "model.json")]
    if tuned is not None:
        args += ["--tuned", _bad_file(tmp_path, "tuned.json", json.dumps(tuned))]
    return args


def _significance(tmp_path, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"per_example": []}))
    return ["significance", _bad_file(tmp_path, "report.json", text), str(good)]


def _significance_iterations(tmp_path, iterations):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"per_example": []}))
    return ["significance", str(good), str(good), "--iterations", str(iterations)]


def _eval_with_dataset(tmp_path, rows):
    """``eval`` on a dataset of ``rows``, each a JSON value or, as a
    string, the line itself; None leaves the file missing."""
    dataset = tmp_path / "data.jsonl"
    if rows is not None:
        dataset.write_text("".join((row if isinstance(row, str) else json.dumps(row)) + "\n"
                                   for row in rows))
    config = _write_config(tmp_path / "c.json", dataset=str(dataset))
    return ["eval", "--config", config, "--out", str(tmp_path / "r.json")]


def _eval_with_config(tmp_path, text):
    return ["eval", "--config", _bad_file(tmp_path, "c.json", text),
            "--out", str(tmp_path / "r.json")]


# an integer literal longer than int() converts (4,300 digits by
# default), and arrays nested deeper than the recursion limit
_LONG_INT = "1" * 5000
_DEEP = "[" * 200_000 + "]" * 200_000
_TOO_LONG = "not valid JSON (Exceeds the limit"
_TOO_DEEP = "not valid JSON (maximum recursion depth exceeded"
_TWICE = ('{"entities": [{"id": "f1", "type": "File"}, {"id": "f1", "type": "Directory"}], '
          '"triples": []}')
# a type triple naming another type than the entity's own, which no kind is
_MISTYPED = ('{"entities": [{"id": "room1", "type": "Room"}], '
             '"triples": [["room1", "type", {"sym": "Light"}]]}')

# a list state whose second element's index is text
_TEXT_INDEX = ('{"entities": [{"id": "el1", "type": "Element"}, {"id": "el2", "type": "Element"}], '
               '"triples": [["el1", "index", {"int": 1}], ["el1", "value", {"int": 7}], '
               '["el2", "index", {"str": "two"}], ["el2", "value", {"int": 3}]]}')


def _parse_list_state(tmp_path, state_text):
    return ["parse", "remove the first element", "--domain", "list",
            "--state", _bad_file(tmp_path, "bad_state.json", state_text)]


def _generate_with(tmp_path, generation, domain="lighting"):
    """``generate`` for ``domain`` under a config whose ``generation``
    section is ``generation``."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"generation": generation}))
    return ["generate", "--domain", domain, "--count", "1", "--config", str(config),
            "--out", str(tmp_path / "pairs.jsonl")]


_BAD_RANGE = "must be a [lo, hi] pair of integers with 0 <= lo <= hi"
_UNHONOURED = "for this domain's state generator, got"


def _run_with(tmp_path, command, **overrides):
    """``command`` on the tiny dataset, its config changed by ``overrides``."""
    config = _write_config(tmp_path / "c.json", dataset=_tiny_dataset(tmp_path, 1), **overrides)
    return [command, "--config", config, "--out", str(tmp_path / "out.json")]


_NOSUCH = "no data for target domain 'nosuch' (dataset domains: container, lighting, list, workforce)"


def _row_with_undeclared_relation():
    (ex, _), = build_domain_corpus(get_domain("workforce"), 1, seed=4)
    row = dataio.example_to_json(ex)
    row["desired"]["triples"].append(["e1", "x", {"int": 1}])
    return row


def _row_without(key):
    (ex, _), = build_domain_corpus(get_domain("list"), 1, seed=4)
    row = dataio.example_to_json(ex)
    del row[key]
    return row


def _zero_shot_on_two_sources(tmp_path, command, l1, grid=_GMDP_GRID):
    """``command`` with the two-step trainer over list, lighting and
    container with target ``list``: no partition size splits one source
    domain in a tuning fold, nor two in the final model, and two source
    domains have two orderings. ``grid`` gives the axes besides ``l1``."""
    examples = [ex for domain_id in ("list", "lighting", "container")
                for ex, _ in build_domain_corpus(get_domain(domain_id), 3, seed=4)]
    dataio.write_dataset(tmp_path / "data.jsonl", examples)
    config = _write_config(tmp_path / "c.json", dataset=str(tmp_path / "data.jsonl"),
                           algorithm="gmdp", grid=dict(grid, l1=l1))
    return [command, "--config", config, "--out", str(tmp_path / "out.json")]


def _in_domain_on_one_train_example(tmp_path):
    """In-domain ``eval`` of a two-point grid on a target with a single
    train example, which no cross-validation fold can split."""
    directory = tmp_path / "splits"
    directory.mkdir()
    for split, count, seed in (("train", 1, 4), ("test", 2, 9)):
        dataio.write_dataset(directory / f"{split}.jsonl",
                             [ex for ex, _ in build_domain_corpus(get_domain("list"), count, seed)])
    config = _write_config(tmp_path / "c.json", dataset=str(directory),
                           grid={"l1": [0.001, 0.01], "step_size": [0.1], "iterations": [1]})
    return ["eval", "--config", config, "--out", str(tmp_path / "r.json"), "--in-domain"]


def _one_score(**fields):
    """A report holding one per-example entry, its fields changed by ``fields``."""
    return json.dumps({"per_example": [dict({"id": "list-0000", "credit": 1.0, "tie_count": 1,
                                             "correct_in_tie": 1, "parse_failed": False},
                                            **fields)]})


_ONE_SCORE = _one_score()
_IMPOSSIBLE = ("report.json: malformed report (example 'list-0000' needs credit in [0, 1] "
               "and 0 <= correct_in_tie <= tie_count, got ")
_TWO_SOURCES = "grid partition_sizes [1] leave a side of the two-step split of 2 source domains empty"


@pytest.mark.parametrize("make_args, code, words", [
    (lambda p: _parse_with_state(p, '{"entities": ['), 3, "bad_state.json: not valid JSON"),
    (lambda p: _parse_with_state(p, "[1, 2]"), 3, "bad_state.json: a state must be"),
    (lambda p: _parse_with_state(p, '{"entities": []}'), 3, "bad_state.json: malformed state"),
    (lambda p: _parse_with_model(p, "weights"), 3, "m.json: model file lacks 'weights'"),
    (lambda p: _parse_with_model(p, "train_config"), 3, "m.json: model file lacks 'train_config'"),
    (lambda p: _parse_with_nan_weight(p), 3,
     "nan.json: model weight 'rule|intersect' is not a finite number"),
    (lambda p: _train_with_tuned(p, '{"l1": '), 3, "tuned.json: not valid JSON"),
    (lambda p: _train_with_tuned(p, '{"no_such_field": 1}'), 3, "tuned.json: not a tuned"),
    (lambda p: _train_with_tuned(p, '{"l1": -1}'), 3, "tuned.json: not a tuned"),
    (lambda p: _significance(p, "{"), 3, "report.json: not valid JSON"),
    (lambda p: _significance(p, '{"accuracy": 1.0}'), 3, "report.json: report lacks 'per_example'"),
    (lambda p: _parse_with_missing(p, "--state"), 3, "absent.json: cannot read"),
    (lambda p: _parse_with_missing(p, "--model"), 3, "absent.json: cannot read"),
    (lambda p: _train_with_tuned(p, None), 3, "tuned.json: cannot read"),
    (lambda p: _significance(p, None), 3, "report.json: cannot read"),
    (lambda p: _eval_with_dataset(p, None), 3, "data.jsonl: cannot read"),
    (lambda p: _train_with_tuned(p, '{"iterations": 2.5}'), 3, "tuned.json: not a tuned"),
    (lambda p: _eval_with_dataset(p, [{"header": {}}, [1, 2]]), 3,
     "data.jsonl:2: a dataset row must be a JSON object"),
    (lambda p: _eval_with_dataset(p, [_row_without("initial")]), 3,
     "data.jsonl:1: dataset record missing field 'initial'"),
    (lambda p: _eval_with_dataset(p, [_row_with_undeclared_relation()]), 3,
     "data.jsonl: example 'workforce-0000', desired state: workforce: undeclared relation 'x'"),
    (lambda p: _train_gmdp(p, tuned={"partition_size": 1, "domain_ordering": ["lighting"]}), 3,
     "tuned.json: tuned ordering ['lighting'] does not cover the training domains"),
    (lambda p: _train_gmdp(p, tuned={"partition_size": 3}), 3,
     "tuned.json: both partition sides must be non-empty"),
    (lambda p: _train_gmdp(p, train={"partition_size": 3}), 2,
     "partition_size 3 leaves a side of the two-step partition"),
    (lambda p: ["parse", "turn off the light", "--domain", "toaster", "--state", "x.json"],
     2, "unknown domain 'toaster'"),
    (lambda p: ["generate", "--domain", "toaster", "--count", "1", "--out", str(p / "o.jsonl")],
     2, "unknown domain 'toaster'"),
    (lambda p: _run_with(p, "tune", target_domain="nosuch"), 2, _NOSUCH),
    (lambda p: _run_with(p, "train", target_domain="nosuch"), 2, _NOSUCH),
    (lambda p: _run_with(p, "eval", target_domain="nosuch"), 2, _NOSUCH),
    (lambda p: _run_with(p, "eval", target_domain="nosuch", in_domain=True), 2, _NOSUCH),
    (lambda p: _run_with(p, "eval", bootstrap={"iterations": 10}), 2, "unknown key 'bootstrap'"),
    (lambda p: _significance_iterations(p, 10**9), 2,
     "--iterations must be at most 1000000, got 1000000000"),
    (lambda p: _generate_with(p, {"lighting": 5}), 2, "generation.lighting must be an object"),
    (lambda p: _generate_with(p, {"lighting": {"floors": [3, 1]}}), 2,
     "generation.lighting.floors " + _BAD_RANGE + ", got [3, 1]"),
    (lambda p: _generate_with(p, {"lighting": {"floors": [-1, 2]}}), 2,
     "generation.lighting.floors " + _BAD_RANGE),
    (lambda p: _generate_with(p, {"lighting": {"floors": "ab"}}), 2,
     "generation.lighting.floors " + _BAD_RANGE + ", got 'ab'"),
    (lambda p: _generate_with(p, {"lighting": {"floors": [1, 2.0]}}), 2,
     "generation.lighting.floors " + _BAD_RANGE),
    (lambda p: _generate_with(p, {"lighting": {"flors": [1, 2]}}), 2,
     "generation.lighting: unknown range 'flors' (known: floors, rooms_per_floor)"),
    (lambda p: _generate_with(p, {"toaster": {}}), 2, "generation.toaster: unknown domain"),
    # each past what its generator draws distinct values from
    (lambda p: _generate_with(p, {"messenger": {"users": [9, 9]}}, "messenger"), 2,
     "generation.messenger.users must lie within [1, 8] " + _UNHONOURED + " [9, 9]"),
    (lambda p: _generate_with(p, {"messenger": {"users": [0, 0]}}, "messenger"), 2,
     "generation.messenger.users must lie within [1, 8] " + _UNHONOURED + " [0, 0]"),
    (lambda p: _generate_with(p, {"calendar": {"events": [13, 13]}}, "calendar"), 2,
     "generation.calendar.events must lie within [0, 12] " + _UNHONOURED),
    (lambda p: _generate_with(p, {"file": {"directories": [6, 6]}}, "file"), 2,
     "generation.file.directories must lie within [0, 5] " + _UNHONOURED),
    (lambda p: _generate_with(p, {"workforce": {"employees": [2, 9]}}, "workforce"), 2,
     "generation.workforce.employees must lie within [0, 8] " + _UNHONOURED),
    (lambda p: _parse_with_state(p, '{"entities": [], "triples": [["x", "r", {"int": %s}]]}'
                                 % _LONG_INT), 3, "bad_state.json: " + _TOO_LONG),
    (lambda p: _parse_with_state(p, _DEEP), 3, "bad_state.json: " + _TOO_DEEP),
    (lambda p: _parse_with_state(p, _TWICE), 3,
     "bad_state.json: malformed state object: entity 'f1' declared twice"),
    (lambda p: _parse_with_state(p, _MISTYPED), 3,
     "bad_state.json: lighting: entity 'room1' has type 'Room', but a type triple gives it 'Light'"),
    (lambda p: _parse_list_state(p, _TEXT_INDEX), 3,
     "bad_state.json: list: relation 'index' holds an integer, but entity 'el2' has TextVal('two')"),
    (lambda p: _eval_with_dataset(p, [{"header": {}}, '{"id": %s}' % _LONG_INT]), 3,
     "data.jsonl:2: " + _TOO_LONG),
    (lambda p: _eval_with_dataset(p, [_DEEP]), 3, "data.jsonl:1: " + _TOO_DEEP),
    (lambda p: _eval_with_config(p, '{"seed": %s}' % _LONG_INT), 2, "c.json: " + _TOO_LONG),
    (lambda p: _eval_with_config(p, _DEEP), 2, "c.json: " + _TOO_DEEP),
    (lambda p: _zero_shot_on_two_sources(p, "tune", [0.001, 0.01]), 2, _TWO_SOURCES),
    (lambda p: _zero_shot_on_two_sources(p, "eval", [0.001, 0.01]), 2, _TWO_SOURCES),
    (lambda p: _zero_shot_on_two_sources(p, "eval", [0.001]), 2, _TWO_SOURCES),
    # the default grid's 3 orderings, before its partition sizes are checked
    (lambda p: _zero_shot_on_two_sources(p, "eval", [0.001], grid={}), 2,
     "grid.num_orderings 3 exceeds the 2 distinct orderings of 2 source domains"),
    (lambda p: _run_with(p, "tune", algorithm="gmdp", grid=dict(_GMDP_GRID, num_orderings=7)),
     2, "grid.num_orderings 7 exceeds the 6 distinct orderings of 3 source domains"),
    (lambda p: _in_domain_on_one_train_example(p), 3,
     "target 'list' has 1 train example(s); tuning a grid of 2 points needs 2 to cross-validate"),
    (lambda p: _significance(p, _ONE_SCORE), 3,
     "good.json: score lists are not aligned on the same examples"),
    (lambda p: _significance(p, '{"per_example": []}'), 3, "good.json: empty score lists"),
    (lambda p: _significance(p, _one_score(credit=1.5)), 3, _IMPOSSIBLE + "1.5, 1 and 1)"),
    (lambda p: _significance(p, _one_score(credit=-0.5)), 3, _IMPOSSIBLE + "-0.5, 1 and 1)"),
    (lambda p: _significance(p, _one_score(tie_count=-1, correct_in_tie=0, credit=0.0)), 3,
     _IMPOSSIBLE + "0.0, 0 and -1)"),
    (lambda p: _significance(p, _one_score(correct_in_tie=-1)), 3, _IMPOSSIBLE + "1.0, -1 and 1)"),
    (lambda p: _significance(p, _one_score(correct_in_tie=2)), 3, _IMPOSSIBLE + "1.0, 2 and 1)"),
    (lambda p: _run_with(p, "eval", in_domain=True), 3,
     "data.jsonl: in-domain experiments need a test split; target 'list' has none"),
    # a literal split whose ordering leaves a source domain out
    (lambda p: _train_gmdp(p, train={"partition_size": 1,
                                     "domain_ordering": ["container", "lighting"]}), 2,
     "domain_ordering ['container', 'lighting'] omits the source domains ['workforce']"),
], ids=["state-json", "state-not-object", "state-keys", "model-weights", "model-train-config",
        "model-nan-weight", "tuned-json", "tuned-keys", "tuned-value", "report-json", "report-per-example",
        "missing-state", "missing-model", "missing-tuned", "missing-report", "missing-dataset",
        "tuned-float-iterations", "dataset-row-not-object", "dataset-row-missing-field",
        "dataset-undeclared-relation", "tuned-ordering", "tuned-partition-size",
        "train-partition-size", "parse-domain", "generate-domain", "tune-target", "train-target",
        "eval-target", "eval-in-domain-target", "config-bootstrap", "significance-iterations",
        "generation-not-object", "generation-reversed", "generation-negative",
        "generation-string", "generation-float", "generation-misspelled", "generation-domain",
        "generation-messenger-users-above", "generation-messenger-users-zero",
        "generation-calendar-events", "generation-file-directories",
        "generation-workforce-employees",
        "state-long-int", "state-deep", "state-repeated-id", "state-mistyped", "state-text-index",
        "dataset-long-int", "dataset-deep",
        "config-long-int", "config-deep", "tune-two-sources", "eval-two-sources",
        "eval-two-sources-one-point", "eval-two-sources-default-orderings",
        "tune-orderings-above-three-factorial", "eval-in-domain-one-example",
        "significance-unaligned", "significance-empty", "significance-credit-above-one",
        "significance-negative-credit", "significance-negative-ties",
        "significance-negative-correct", "significance-correct-above-ties",
        "eval-in-domain-no-test-split", "train-ordering"])
def test_bad_input_files_and_domains_exit_with_one_line(tmp_path, capsys, make_args, code, words):
    rc = main(make_args(tmp_path))
    captured = capsys.readouterr()
    assert rc == code
    assert "Traceback" not in captured.out + captured.err
    err = captured.err.strip()
    assert err.startswith("data error:" if code == 3 else "config error:")
    assert "\n" not in err and words in err


def test_importing_the_cli_does_not_import_numpy():
    # only the paired bootstrap needs numpy; every other command skips its import
    env = dict(os.environ, PYTHONPATH=str(Path(nlinstruct.__file__).parents[1]))
    code = "import sys, nlinstruct.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
