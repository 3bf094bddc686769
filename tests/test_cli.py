import json

import numpy as np
import pytest

from mmnas.cli import main
from mmnas.config import RunConfig

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
    h1 = [r["genotype_hash"] for r in _reports(out1) if r.get("stage") == "run-all"]
    h2 = [r["genotype_hash"] for r in _reports(out2) if r.get("stage") == "run-all"]
    assert h1 and h1 == h2
    f1 = [r["weighted_f1"] for r in _reports(out1) if r.get("stage") == "run-all"]
    f2 = [r["weighted_f1"] for r in _reports(out2) if r.get("stage") == "run-all"]
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
    # stage rows carry their real wall time
    assert rows[-1]["duration_s"] > 0.0
    assert [r["duration_s"] > 0.0 for r in _reports(s) if r.get("stage") == "search"] == [True]


def test_eval_on_perfect_prediction_fixture(tmp_path, tiny_config, capsys):
    truth = (np.random.default_rng(0).random((10, 3)) < 0.4).astype(int).tolist()
    fixture = tmp_path / "preds.json"
    fixture.write_text(json.dumps({"predictions": truth, "truth": truth}))
    out = tmp_path / "e"
    assert main(["eval", "--config", tiny_config, "--predictions", str(fixture), "--out-dir", str(out)]) == 0
    assert "weighted_f1 = 1.000000" in capsys.readouterr().out
    rows = _reports(out)
    assert rows[-1]["metrics"]["weighted_f1"] == 1.0


def test_run_all_into_a_used_out_dir_starts_a_fresh_log(tmp_path, tiny_config):
    out = tmp_path / "r"
    for _ in range(2):
        assert main(["run-all", "--config", tiny_config, "--seed", "7", "--out-dir", str(out)]) == 0
    stages = [r.get("stage") for r in _reports(out)]
    assert stages.count("run-all") == 1 and stages.count("search") == 1
    sweep = ["sweep-r", "--config", tiny_config, "--out-dir", str(tmp_path / "s"), "--r-grid", "0.3", "--seeds", "0"]
    for _ in range(2):
        assert main(sweep) == 0
    assert [r.get("stage") for r in _reports(tmp_path / "s" / "r0.3_seed0")].count("run-all") == 1


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


def test_failed_run_leaves_incomplete_marker(tmp_path, tiny_config):
    bad = json.loads((open(tiny_config).read()))
    bad["pipeline"]["labeled_ratio"] = 1.0  # empties the unlabeled pool
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "o"
    code = main(["run-all", "--config", str(path), "--out-dir", str(out)])
    assert code == 1
    assert (out / ".incomplete").exists()


def test_search_with_unusable_genotype_writes_nothing(tmp_path, tiny_config, monkeypatch, capsys):
    import mmnas.bilevel
    from mmnas.searchspace import CellGene, Genotype

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
