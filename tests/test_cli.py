from __future__ import annotations

import json

import pytest

from nlinstruct import dataio
from nlinstruct.cli import main
from nlinstruct.domains import get_domain
from nlinstruct.kb import states_equal
from nlinstruct.synthetic import build_domain_corpus
from nlinstruct.training import TrainConfig, save_model

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
    gold = dataio.read_gold_sidecar(str(out) + ".gold.jsonl")
    assert len(gold) == 20 and {g["method"] for g in gold} == {"turnLightOn", "turnLightOff"}


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


def test_dataset_round_trip(tmp_path):
    path = _tiny_dataset(tmp_path)
    first = dataio.read_dataset(path)
    out2 = tmp_path / "copy.jsonl"
    dataio.write_dataset(out2, first)
    second = dataio.read_dataset(out2)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.id == b.id and a.utterance == b.utterance
        assert states_equal(a.initial, b.initial)
        assert states_equal(a.desired, b.desired)


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


def test_flag_overrides_reach_the_experiment(tmp_path):
    dataset = _tiny_dataset(tmp_path)
    config = _write_config(tmp_path / "c.json", dataset=dataset)
    report_path = tmp_path / "r.json"
    assert main(["eval", "--config", config, "--out", str(report_path),
                 "--target-domain", "lighting", "--no-new-features",
                 "--no-logic-filter"]) == 0
    report = json.loads(report_path.read_text())
    assert report["experiment"]["target_domain"] == "lighting"
    assert report["experiment"]["use_new_features"] is False
    assert report["experiment"]["use_logic_filter"] is False


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


def _significance(tmp_path, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"per_example": []}))
    return ["significance", _bad_file(tmp_path, "report.json", text), str(good)]


def _eval_with_dataset(tmp_path, rows):
    dataset = tmp_path / "data.jsonl"
    if rows is not None:
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows))
    config = _write_config(tmp_path / "c.json", dataset=str(dataset))
    return ["eval", "--config", config, "--out", str(tmp_path / "r.json")]


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
    (lambda p: ["parse", "turn off the light", "--domain", "toaster", "--state", "x.json"],
     2, "unknown domain 'toaster'"),
    (lambda p: ["generate", "--domain", "toaster", "--count", "1", "--out", str(p / "o.jsonl")],
     2, "unknown domain 'toaster'"),
], ids=["state-json", "state-not-object", "state-keys", "model-weights", "model-train-config",
        "model-nan-weight", "tuned-json", "tuned-keys", "tuned-value", "report-json", "report-per-example",
        "missing-state", "missing-model", "missing-tuned", "missing-report", "missing-dataset",
        "tuned-float-iterations", "dataset-row-not-object", "dataset-row-missing-field",
        "dataset-undeclared-relation", "parse-domain", "generate-domain"])
def test_bad_input_files_and_domains_exit_with_one_line(tmp_path, capsys, make_args, code, words):
    rc = main(make_args(tmp_path))
    captured = capsys.readouterr()
    assert rc == code
    assert "Traceback" not in captured.out + captured.err
    err = captured.err.strip()
    assert err.startswith("data error:" if code == 3 else "config error:")
    assert "\n" not in err and words in err
