import json
from pathlib import Path

import pytest

from mmnas.cli import main
from mmnas.config import RunConfig
from mmnas.searchspace import Genotype

TINY = {
    "seed": 0,
    "data": {
        "num_samples": 60,
        "image_layer_dims": [8, 8],
        "text_layer_dims": [8, 8],
        "num_labels": 4,
        "seed": 3,
    },
    "space": {"hidden_dim": 6, "num_cells": 1, "steps_per_cell": 1},
    "search": {"max_epochs": 1, "batch_size": 8},
    "pipeline": {
        "labeled_ratio": 0.3,
        "pretrain_epochs": 1,
        "pretrain_batch_size": 8,
        "clf_epochs": 10,
        "clf_batch_size": 16,
    },
}


ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "perfbench" / "fixtures"
DERIVED_PIPELINE = json.loads((FIXTURES / "derived-pipeline.json").read_text())
DERIVED_GENOTYPE = ["--genotype", str(FIXTURES / "derived-genotype.json")]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def _reports(out_dir):
    lines = (out_dir / "reports.jsonl").read_text().strip().splitlines()
    return [json.loads(line) for line in lines]


def test_gen_and_audit_round(tmp_path, tiny_config, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--config", tiny_config, "--out-dir", str(out)]) == 0
    assert (out / "dataset.mmnf").exists()
    code = main(["audit-data", "--config", tiny_config, "--data", str(out / "dataset.mmnf")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.split("wrote")[-1].split("\n", 1)[-1])
    assert doc["planted_dominates"] is True


def test_run_all_twice_identical_genotype_hash(tmp_path, tiny_config):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run-all", "--config", tiny_config, "--seed", "7", "--out-dir", str(out1)]) == 0
    assert main(["run-all", "--config", tiny_config, "--seed", "7", "--out-dir", str(out2)]) == 0
    h1 = [r["genotype_hash"] for r in _reports(out1) if r.get("command") == "run-all"]
    h2 = [r["genotype_hash"] for r in _reports(out2) if r.get("command") == "run-all"]
    assert h1 and h1 == h2
    f1 = [r["weighted_f1"] for r in _reports(out1) if r.get("command") == "run-all"]
    f2 = [r["weighted_f1"] for r in _reports(out2) if r.get("command") == "run-all"]
    assert f1 == f2
    assert not (out1 / ".incomplete").exists()


def test_staged_commands_compose(tmp_path, tiny_config):
    data_dir = tmp_path / "d"
    assert main(["gen-data", "--config", tiny_config, "--out-dir", str(data_dir)]) == 0
    data = str(data_dir / "dataset.mmnf")
    s = tmp_path / "search"
    assert main(["search", "--config", tiny_config, "--data", data, "--out-dir", str(s)]) == 0
    genotype = str(s / "genotype.json")
    p = tmp_path / "pre"
    assert main(["pretrain", "--config", tiny_config, "--data", data, "--genotype", genotype, "--out-dir", str(p)]) == 0
    f = tmp_path / "fit"
    assert (
        main(
            [
                "fit",
                "--config",
                tiny_config,
                "--data",
                data,
                "--genotype",
                genotype,
                "--weights",
                str(p / "encoder.mmnw"),
                "--out-dir",
                str(f),
            ]
        )
        == 0
    )
    e = tmp_path / "eval"
    assert (
        main(
            [
                "eval",
                "--config",
                tiny_config,
                "--data",
                data,
                "--genotype",
                genotype,
                "--weights",
                str(f / "model.mmnw"),
                "--out-dir",
                str(e),
            ]
        )
        == 0
    )
    rows = _reports(e)
    assert rows[-1]["metrics"]["weighted_f1"] >= 0.0
    assert rows[-1]["genotype_hash"] == Genotype.from_json(Path(genotype).read_text()).hash()
    # stage rows carry their real wall time
    assert rows[-1]["duration_s"] > 0.0
    assert [r["duration_s"] > 0.0 for r in _reports(s) if r.get("stage") == "search"] == [True]


def test_run_all_into_a_used_out_dir_starts_a_fresh_log(tmp_path, tiny_config):
    out = tmp_path / "r"
    for _ in range(2):
        assert main(["run-all", "--config", tiny_config, "--seed", "7", "--out-dir", str(out)]) == 0
    rows = _reports(out)
    assert [r.get("command") for r in rows].count("run-all") == 1
    assert [r.get("stage") for r in rows].count("search") == 1
    sweep = ["sweep-r", "--config", tiny_config, "--out-dir", str(tmp_path / "s"), "--r-grid", "0.3", "--seeds", "0"]
    for _ in range(2):
        assert main(sweep) == 0
    assert [r.get("command") for r in _reports(tmp_path / "s" / "r0.3_seed0")].count("sweep-r") == 1


def test_sweep_r_writes_grid_csv(tmp_path, tiny_config):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep-r",
            "--config",
            tiny_config,
            "--out-dir",
            str(out),
            "--r-grid",
            "0.3,0.5",
            "--seeds",
            "0,1",
        ]
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "r,seed,weighted_f1"
    assert len(rows) == 5
    cells = [tuple(r.split(",")[:2]) for r in rows[1:]]
    assert cells == [("0.3", "0"), ("0.3", "1"), ("0.5", "0"), ("0.5", "1")]


def test_bad_config_key_gives_structured_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": {"hiden_dim": 4}}))
    code = main(["run-all", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "hiden_dim" in err["error"]
    assert err["type"] == "ConfigError"


def test_wrongly_typed_config_section_gives_structured_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": 5}))
    code = main(["gen-data", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ConfigError" and "'data'" in err["error"]


def test_malformed_genotype_gives_structured_error(tmp_path, tiny_config, capsys):
    space_hash = RunConfig.from_file(tiny_config).space_config((8, 8), (8, 8)).hash()
    path = tmp_path / "genotype.json"
    path.write_text(json.dumps({"config_hash": space_hash, "cells": [{"inputs": [1, 2], "steps": []}]}))
    code = main(["pretrain", "--config", tiny_config, "--genotype", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "GenotypeError"


def test_a_reference_the_encoders_cannot_look_up_is_refused_before_any_stage(tmp_path, capsys):
    # "step:+0" parses as step 0 with int(), but the derived encoder looks
    # steps up as "step:0"; it used to end pretraining in a KeyError traceback
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_with(TINY, "space", steps_per_cell=2)))
    space_hash = RunConfig.from_file(config).space_config((8, 8), (8, 8)).hash()
    steps = [{"pair": ["image:0", "text:1"], "op": "Sum"}, {"pair": ["step:+0", "text:1"], "op": "Sum"}]
    path = tmp_path / "genotype.json"
    cells = [{"inputs": ["image:0", "text:1"], "steps": steps}]
    path.write_text(json.dumps({"config_hash": space_hash, "cells": cells}))
    out = tmp_path / "o"
    assert main(["run-all", "--config", str(config), "--genotype", str(path), "--out-dir", str(out)]) == 1
    err = _one_error_line(capsys)
    assert err["type"] == "GenotypeError" and "malformed reference 'step:+0'" in err["error"]
    assert not any((out / name).exists() for name in ("reports.jsonl", "genotype.json", "encoder.mmnw"))


def test_failed_run_leaves_incomplete_marker(tmp_path, tiny_config):
    bad = json.loads((open(tiny_config).read()))
    bad["pipeline"]["labeled_ratio"] = 1.0  # empties the unlabeled pool
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "o"
    code = main(["run-all", "--config", str(path), "--out-dir", str(out)])
    assert code == 1
    assert (out / ".incomplete").exists()


def test_a_refused_run_leaves_no_incomplete_marker(tmp_path, tiny_config, capsys):
    # the inputs are checked before the marker is written, so a marker
    # always means a stage was left unfinished
    genotype = tmp_path / "genotype.json"
    genotype.write_text("{}")
    refused = {
        "genotype": ["run-all", "--genotype", str(genotype)],
        "weights": ["run-all", "--weights", str(tmp_path / "encoder.mmnw")],
        "grid": ["sweep-r", "--r-grid", "0.1", "--seeds", "0"],  # an empty test split
    }
    for name, (command, *flags) in refused.items():
        out = tmp_path / name
        assert main([command, "--config", tiny_config, *flags, "--out-dir", str(out)]) == 1, name
        _one_error_line(capsys)
        assert out.is_dir() and not list(out.rglob(".incomplete")), name


def test_a_sweep_cell_whose_stage_fails_leaves_both_markers(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_with(TINY, "pipeline", clf_lr=1e308)))  # the fit diverges
    out = tmp_path / "s"
    assert main(["sweep-r", "--config", str(config), "--r-grid", "0.3", "--seeds", "0", "--out-dir", str(out)]) == 1
    assert _one_error_line(capsys)["type"] == "PipelineError"
    assert (out / ".incomplete").exists() and (out / "r0.3_seed0" / ".incomplete").exists()


def test_a_diverging_fit_gives_one_structured_error_with_its_position(tmp_path, tiny_config, capsys):
    bad = json.loads(open(tiny_config).read())
    bad["pipeline"]["clf_lr"] = 1e308  # the first Adam step leaves the classifier unusable
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["run-all", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["type"] == "PipelineError"
    assert err["error"].startswith("fit: non-finite loss at epoch 1 batch 1: ")


def _diverging_pretrain_config(tmp_path, tiny_config, lr):
    # one pretraining step, of a learning rate near the float64 maximum
    doc = json.loads(open(tiny_config).read())
    doc["pipeline"].update(pretrain_lr=lr, pretrain_epochs=1, pretrain_batch_size=1000)
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _one_error_line(capsys) -> dict:
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


def test_a_non_finite_frozen_encoding_gives_one_structured_error(tmp_path, tiny_config, capsys):
    # the step leaves finite weights whose encoding overflows; it used to end in a traceback
    config = _diverging_pretrain_config(tmp_path, tiny_config, 1e308)
    out = tmp_path / "o"
    code = main(["run-all", "--config", config, "--out-dir", str(out)])
    assert code == 1
    err = _one_error_line(capsys)
    assert err["type"] == "PipelineError"
    assert err["error"].startswith("fit: non-finite frozen encoding: ")
    assert (out / ".incomplete").exists() and not (out / "model.mmnw").exists()


# a change to a fitted model that makes scoring it non-finite, and how its error line starts
NON_FINITE_SCORING = {
    "encoding": (lambda model: {k: w * 1e300 for k, w in model.items()}, "score: non-finite test-set prediction: "),
    "logits": (lambda model: {**model, "clf/W": model["clf/W"] * 1e308},
               "score: non-finite test-set prediction: linear: non-finite output"),
}


@pytest.mark.parametrize("value", NON_FINITE_SCORING)
def test_a_non_finite_test_set_encoding_gives_one_structured_error(tmp_path, tiny_config, capsys, monkeypatch, value):
    import mmnas.pipeline

    change, start = NON_FINITE_SCORING[value]
    fit, calls = mmnas.pipeline.fit_classifier, []

    def fit_then_change(*args, **kwargs):
        calls.append(None)
        return change(fit(*args, **kwargs))

    monkeypatch.setattr(mmnas.pipeline, "fit_classifier", fit_then_change)
    out = tmp_path / "o"
    code = main(["run-all", "--config", tiny_config, "--out-dir", str(out)])
    assert code == 1 and len(calls) == 1
    err = _one_error_line(capsys)
    assert err["type"] == "PipelineError"
    assert err["error"].startswith(start)
    assert (out / ".incomplete").exists() and not (out / "model.mmnw").exists()


def test_pretrain_refuses_to_write_a_checkpoint_its_loader_refuses(tmp_path, tiny_config, capsys):
    # the stage's last step overflows a weight to inf, and no later batch reads it
    config = _diverging_pretrain_config(tmp_path, tiny_config, 1.7e308)
    out = tmp_path / "o"
    assert main(["search", "--config", config, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["pretrain", "--config", config, "--genotype", str(out / "genotype.json"), "--out-dir", str(out)])
    assert code == 1
    err = _one_error_line(capsys)
    assert err["type"] == "CheckpointError" and "non-finite values in 'cell0/" in err["error"]
    assert (out / ".incomplete").exists() and not (out / "encoder.mmnw").exists()


def test_search_with_unusable_genotype_writes_nothing(tmp_path, tiny_config, monkeypatch, capsys):
    import mmnas.bilevel
    from mmnas.searchspace import CellGene

    def all_pruned(arch):
        return Genotype(cells=(CellGene(inputs=("image:0", "text:0"), steps=()),), config_hash=arch.config.hash())

    monkeypatch.setattr(mmnas.bilevel, "derive_genotype", all_pruned)
    out = tmp_path / "s"
    assert main(["search", "--config", tiny_config, "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "SearchError"
    assert not (out / "genotype.json").exists()
    assert (out / ".incomplete").exists()


def test_freeze_encoder_flag_override(tmp_path, tiny_config):
    out = tmp_path / "r"
    assert (
        main(
            [
                "run-all",
                "--config",
                tiny_config,
                "--out-dir",
                str(out),
                "--no-freeze-encoder",
            ]
        )
        == 0
    )


def test_float_count_field_gives_structured_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": {"num_samples": 20.5}}))
    code = main(["gen-data", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ConfigError" and "num_samples must be an integer" in err["error"]


@pytest.mark.parametrize(
    "section, key, value",
    [("search", "batch_size", 2.5), ("search", "max_epochs", True), ("space", "hidden_dim", 2.5)],
)
def test_non_integer_search_field_gives_structured_error(tmp_path, tiny_config, capsys, section, key, value):
    doc = json.loads(open(tiny_config).read())
    doc[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["search", "--config", str(path), "--out-dir", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "ConfigError"
    assert f"section '{section}'" in err["error"] and f"{key} must be an integer" in err["error"]


@pytest.mark.parametrize(
    "key, value, match",
    [("pretrain_epochs", 1.5, "pretrain_epochs must be an integer"),
     ("freeze_encoder", "no", "freeze_encoder must be true or false")],
)
def test_a_mistyped_pipeline_field_fails_before_any_stage_runs(tmp_path, tiny_config, capsys, monkeypatch, key, value, match):
    # it used to run the whole search, then die in pretrain with a TypeError
    # (or silently fit a frozen encoder)
    import mmnas.pipeline

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(mmnas.pipeline, "run_search", no_search)
    doc = json.loads(open(tiny_config).read())
    doc["pipeline"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run-all", "--config", str(path), "--out-dir", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "ConfigError" and "section 'pipeline'" in err["error"] and match in err["error"]
    assert not (out / "reports.jsonl").exists()


def test_sweep_r_names_the_cell_whose_test_split_is_empty(tmp_path, tiny_config, capsys):
    # n = 60, r = 0.1: floor(n r) = 6 labeled samples, floor(0.6) = 0 of them for testing
    sweep = ["sweep-r", "--config", tiny_config, "--out-dir", str(tmp_path / "s"), "--r-grid", "0.1", "--seeds", "0"]
    assert main(sweep) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "CliError"
    assert "r=0.1 seed=0" in err["error"] and "floor(0.1 * floor(n * r))" in err["error"]
    assert "floor(n * r) = 6" in err["error"]
    assert not (tmp_path / "s" / "sweep.csv").exists()
    # the grid is refused before any cell trains
    assert not list((tmp_path / "s").glob("*/genotype.json"))


def test_staged_chain_writes_the_artifacts_of_run_all(tmp_path, tiny_config):
    staged, full = tmp_path / "staged", tmp_path / "full"
    common = ["--config", tiny_config, "--seed", "5", "--out-dir", str(staged)]
    genotype, encoder = str(staged / "genotype.json"), str(staged / "encoder.mmnw")
    assert main(["search", *common]) == 0
    assert main(["pretrain", *common, "--genotype", genotype]) == 0
    assert main(["fit", *common, "--genotype", genotype, "--weights", encoder]) == 0
    assert main(["run-all", "--config", tiny_config, "--seed", "5", "--out-dir", str(full)]) == 0
    for name in ("genotype.json", "encoder.mmnw", "model.mmnw"):
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name
    rows = [r for r in _reports(staged) if "stage" in r or "command" in r]
    order = [r.get("stage") or "command " + r["command"] for r in rows]
    assert order == ["search", "command search", "pretrain", "command pretrain", "fit", "command fit"]
    assert all(r["duration_s"] > 0.0 for r in rows if "stage" in r)
    assert not (staged / ".incomplete").exists()


def test_run_all_log_holds_what_the_benchmark_reads(tmp_path, tiny_config):
    """The rows ``perfbench/run.py`` checks after ``run-all --genotype``."""
    from mmnas.checkpoint import load_weights
    from mmnas.data import load, split
    from mmnas.pipeline import predict_bits, weighted_f1
    from mmnas.searchspace import CellGene, StepGene, instantiate

    cfg = RunConfig.from_file(tiny_config)
    assert main(["gen-data", "--config", tiny_config, "--out-dir", str(tmp_path / "d")]) == 0
    ds = load(tmp_path / "d" / "dataset.mmnf", text_len=cfg.data.text_len)
    space = cfg.space_config(ds.image_dims, ds.text_dims)
    genotype = Genotype(
        cells=(CellGene(inputs=("image:0", "text:1"), steps=(StepGene(pair=("image:0", "text:1"), op="Sum"),)),),
        config_hash=space.hash(),
    )
    (tmp_path / "genotype.json").write_text(genotype.to_json())
    out = tmp_path / "o"
    argv = ["run-all", "--config", tiny_config, "--data", str(tmp_path / "d" / "dataset.mmnf"),
            "--genotype", str(tmp_path / "genotype.json"), "--out-dir", str(out)]
    assert main(argv) == 0
    rows = _reports(out)
    for stage in ("pretrain", "fit"):
        durations = [r["duration_s"] for r in rows if r.get("stage") == stage]
        assert len(durations) == 1 and durations[0] > 0.0, stage
    assert {r["genotype_hash"] for r in rows if r.get("genotype_hash")} == {genotype.hash()}
    test = split(ds, cfg.pipeline.labeled_ratio, cfg.seed).test
    model = load_weights(out / "model.mmnw")
    assert cfg.pipeline.classifier_loss == "bce"
    # the benchmark's call, with the argument it passes
    preds = predict_bits(instantiate(genotype, space), model, test, cfg.pipeline.classifier_loss)
    f1 = weighted_f1(preds, test.labels_matrix())
    reported = [h["weighted_f1"] for r in rows for h in (r, r.get("metrics") or {}) if "weighted_f1" in h]
    assert len(reported) == 2 and all(f == f1 for f in reported)
    assert not (out / ".incomplete").exists()


def test_every_row_carries_the_provenance_of_its_run(tmp_path, tiny_config):
    from mmnas.config import build_id

    cfg = RunConfig.from_file(tiny_config)
    staged, full, sweep, e = (tmp_path / name for name in ("staged", "full", "sweep", "eval"))
    common = ["--config", tiny_config, "--out-dir", str(staged)]
    genotype = str(staged / "genotype.json")
    assert main(["search", *common]) == 0
    assert main(["pretrain", *common, "--genotype", genotype]) == 0
    assert main(["fit", *common, "--genotype", genotype, "--weights", str(staged / "encoder.mmnw")]) == 0
    weights = str(staged / "model.mmnw")
    assert main(["eval", "--config", tiny_config, "--genotype", genotype, "--weights", weights, "--out-dir", str(e)]) == 0
    assert main(["run-all", "--config", tiny_config, "--out-dir", str(full)]) == 0
    assert main(["sweep-r", "--config", tiny_config, "--out-dir", str(sweep), "--r-grid", "0.3", "--seeds", "1"]) == 0
    cell = cfg.with_seed(1)
    stamps = {"config_hash", "build_id", "seed"}
    for log, run in ((staged, cfg), (e, cfg), (full, cfg), (sweep / "r0.3_seed1", cell)):
        rows = _reports(log)
        assert rows
        for row in rows:
            assert (row["config_hash"], row["build_id"], row["seed"]) == (run.hash(), build_id(), run.seed)
            if "stage" in row:
                assert set(row) == {"stage", "metrics", "genotype_hash", "duration_s"} | stamps, row
            if "command" in row:
                assert RunConfig.from_dict(row["config"]) == run
    assert [r["stage"] for r in _reports(e)] == ["eval"]


def _eval_of_changed_model(tmp_path, tiny_config, change) -> list:
    """``eval`` arguments that score the TINY ``run-all`` model with ``change``
    applied to its weights, into the fresh directory ``tmp_path / "e"``."""
    from mmnas.checkpoint import load_weights, save_weights

    out = tmp_path / "r"
    assert main(["run-all", "--config", tiny_config, "--out-dir", str(out)]) == 0
    changed = tmp_path / "changed.mmnw"
    save_weights(changed, change(load_weights(out / "model.mmnw")))
    return ["eval", "--config", tiny_config, "--genotype", str(out / "genotype.json"), "--weights", str(changed),
            "--out-dir", str(tmp_path / "e")]


def _failed_eval(tmp_path, tiny_config, capsys, value) -> None:
    change, start = NON_FINITE_SCORING[value]
    argv = _eval_of_changed_model(tmp_path, tiny_config, change)
    capsys.readouterr()
    code = main(argv)
    assert code == 1
    err = _one_error_line(capsys)
    assert err["type"] == "PipelineError"
    assert err["error"].startswith(start)
    assert not (tmp_path / "e" / "reports.jsonl").exists()


def test_eval_of_a_model_whose_test_encoding_overflows_gives_one_structured_error(tmp_path, tiny_config, capsys):
    _failed_eval(tmp_path, tiny_config, capsys, "encoding")


def test_eval_of_a_model_whose_logits_overflow_gives_one_structured_error(tmp_path, tiny_config, capsys):
    # the weights are finite, and so is the encoding; it used to warn and score inf logits
    _failed_eval(tmp_path, tiny_config, capsys, "logits")


def test_eval_of_an_encoder_checkpoint_names_the_classifier_weight_it_lacks(tmp_path, tiny_config, capsys):
    out = tmp_path / "r"
    assert main(["run-all", "--config", tiny_config, "--out-dir", str(out)]) == 0
    weights = out / "encoder.mmnw"
    capsys.readouterr()
    argv = ["eval", "--config", tiny_config, "--genotype", str(out / "genotype.json"), "--weights", str(weights),
            "--out-dir", str(tmp_path / "e")]
    assert main(argv) == 1  # it used to end in a KeyError traceback
    expected = {"type": "CliError", "error": f"{weights}: checkpoint needs 'clf/W' of shape (6, 4)"}
    assert _one_error_line(capsys) == expected
    assert not (tmp_path / "e" / "reports.jsonl").exists()


def test_fit_names_the_first_weight_its_checkpoint_lacks_or_misshapes(tmp_path, tiny_config, capsys):
    from mmnas.checkpoint import load_weights, save_weights

    out = tmp_path / "r"
    assert main(["run-all", "--config", tiny_config, "--out-dir", str(out)]) == 0
    encoder = load_weights(out / "encoder.mmnw")
    faulty = tmp_path / "faulty.mmnw"

    def fit(weights, into):
        return main(["fit", "--config", tiny_config, "--genotype", str(out / "genotype.json"), "--weights",
                     str(weights), "--out-dir", str(tmp_path / into)])

    for into, weights in (("missing", {k: w for k, w in encoder.items() if k != "cell0/out/W"}),
                          ("misshaped", {**encoder, "cell0/out/W": encoder["cell0/out/W"][:-1]})):
        save_weights(faulty, weights)
        capsys.readouterr()
        assert fit(faulty, into) == 1, into  # a missing name used to end in a KeyError traceback
        expected = {"type": "CliError", "error": f"{faulty}: checkpoint needs 'cell0/out/W' of shape (6, 6)"}
        assert _one_error_line(capsys) == expected, into
        assert not (tmp_path / into / "model.mmnw").exists()
    assert fit(out / "model.mmnw", "extra") == 0  # names the genotype does not need may come along


def test_run_all_refuses_weights_without_a_genotype_before_any_stage_runs(tmp_path, tiny_config, capsys):
    out = tmp_path / "r"
    assert main(["run-all", "--config", tiny_config, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    into = tmp_path / "w"
    # the checkpoint could only be checked against the searched genotype, after the whole search
    assert main(["run-all", "--config", tiny_config, "--weights", str(out / "encoder.mmnw"),
                 "--out-dir", str(into)]) == 1
    expected = {"type": "CliError",
                "error": "run-all: --weights needs --genotype, the genotype its checkpoint was pretrained for"}
    assert _one_error_line(capsys) == expected
    assert not (into / "genotype.json").exists() and not (into / "reports.jsonl").exists()


def test_eval_of_a_model_whose_probabilities_underflow_to_zero_prints_no_warning(tmp_path, tiny_config, capsys):
    # exp(-logit) overflows to inf for every logit, so every probability is 0 and no label is predicted
    argv = _eval_of_changed_model(tmp_path, tiny_config, lambda model: {**model, "clf/b": model["clf/b"] - 1e4})
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "weighted_f1 = 0.000000" in captured.out
    assert [r["metrics"]["weighted_f1"] for r in _reports(tmp_path / "e")] == [0.0]


def _with(doc, section, **settings) -> dict:
    return {**doc, section: {**doc[section], **settings}}


# a config, the extra run-all flags, and how its one error line starts
DIVERGING_RUNS = {
    "fixture-fit": (_with(DERIVED_PIPELINE, "pipeline", clf_lr=1e308), DERIVED_GENOTYPE,
                    ("PipelineError", "fit: non-finite loss at epoch 1 batch 1: ")),
    "fine-tuned-fit": (_with(TINY, "pipeline", clf_lr=1e308), ["--no-freeze-encoder"],
                       ("PipelineError", "fit: non-finite loss at epoch 1 batch 1: ")),
    "pretrain": (_with(TINY, "pipeline", pretrain_lr=1e300, pretrain_epochs=2), [],
                 ("PipelineError", "pretrain: non-finite loss at epoch 1 batch 1: ")),
    "search": (_with(TINY, "search", lr_weights=1e300), [],
               ("SearchError", "non-finite loss at epoch 1 phase train batch 1: ")),
}


@pytest.mark.parametrize("run", DIVERGING_RUNS)
def test_a_diverging_optimizer_step_prints_only_its_error_line(tmp_path, run):
    # numpy's overflow warnings from the forward pass and the optimizer step
    # used to come before the error line; a subprocess shows the real stderr
    import os
    import subprocess
    import sys

    doc, flags, (kind, start) = DIVERGING_RUNS[run]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = ["run-all", "--config", str(config), *flags, "--out-dir", str(tmp_path / "o")]
    done = subprocess.run([sys.executable, "-m", "mmnas.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 1
    (line,) = done.stderr.strip().splitlines()
    err = json.loads(line)
    assert err["type"] == kind
    assert err["error"].startswith(start)
    assert not (tmp_path / "o" / "model.mmnw").exists()


# a config and the command that runs it
GOLDEN_RUNS = {
    "tiny-run-all": (TINY, ["run-all"]),
    "tiny-run-all-seed3-fine-tuned": (TINY, ["run-all", "--seed", "3", "--no-freeze-encoder"]),
    "tiny-sweep-r": (TINY, ["sweep-r", "--r-grid", "0.3", "--seeds", "1"]),
    "derived-pipeline-fixture": (DERIVED_PIPELINE, ["run-all", *DERIVED_GENOTYPE]),
}
GOLDEN_FILES = ("genotype.json", "encoder.mmnw", "model.mmnw", "sweep.csv")
UNPINNED_ROW_FIELDS = ("duration_s", "wallclock_ms", "build_id")  # wall time and version, not results


def _manifest(out_dir) -> dict:
    """SHA-256 of every pinned file under ``out_dir``, and of each ``reports.jsonl``
    row without its unpinned fields, keyed by path relative to ``out_dir``."""
    import hashlib

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    manifest = {}
    for path in sorted(out_dir.rglob("*")):
        name = path.relative_to(out_dir).as_posix()
        if path.name in GOLDEN_FILES:
            manifest[name] = sha(path.read_bytes())
        elif path.name == "reports.jsonl":
            rows = [{k: v for k, v in row.items() if k not in UNPINNED_ROW_FIELDS} for row in _reports(path.parent)]
            manifest[name] = [sha(json.dumps(row, sort_keys=True).encode()) for row in rows]
    return manifest


def test_runs_reproduce_the_golden_manifest(tmp_path):
    # a change that keeps every computed value leaves tests/golden.json alone; one that
    # moves outputs replaces it with the manifest this test prints, in one diff
    computed = {}
    for case, (doc, argv) in GOLDEN_RUNS.items():
        config, out = tmp_path / f"{case}.json", tmp_path / case
        config.write_text(json.dumps(doc))
        assert main([*argv, "--config", str(config), "--out-dir", str(out)]) == 0, case
        computed[case] = _manifest(out)
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    assert computed == golden, "computed manifest:\n" + json.dumps(computed, indent=1, sort_keys=True)
