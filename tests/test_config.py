import json

import pytest

from mmnas.bilevel import SearchConfig
from mmnas.config import ConfigError, RunConfig, build_id
from mmnas.contrastive import ContrastiveConfig, ContrastiveError
from mmnas.pipeline import PipelineConfig
from mmnas.searchspace import SearchSpaceConfig, SpaceError


def test_defaults_materialize_and_hash_is_stable():
    cfg = RunConfig.from_dict({})
    d = cfg.to_dict()
    assert d["space"]["hidden_dim"] == 16
    assert d["contrastive"]["temperature"] == 0.1
    assert cfg.hash() == RunConfig.from_dict({}).hash()
    assert cfg.hash() != cfg.with_seed(99).hash()


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        RunConfig.from_dict({"sead": 3})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="section 'space'"):
        RunConfig.from_dict({"space": {"hidden_dims": 8}})
    with pytest.raises(ConfigError, match="section 'pipeline'"):
        RunConfig.from_dict({"pipeline": {"labelled_ratio": 0.1}})


def test_invalid_value_rejected_with_path():
    with pytest.raises(ConfigError, match="section 'contrastive'"):
        RunConfig.from_dict({"contrastive": {"temperature": -1.0}})


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"data": 5}, "section 'data' must be a JSON object"),
        ({"search": [1]}, "section 'search' must be a JSON object"),
        ({"contrastive": None}, "section 'contrastive' must be a JSON object"),
        ({"seed": None}, "'seed' must be an integer"),
        ({"seed": "3"}, "'seed' must be an integer"),
        ({"seed": 2.5}, "'seed' must be an integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"data": {"seed": None}}, "section 'data'.*seed must be an integer"),
        ([1, 2], "JSON object"),
        ({"search": {"batch_size": 2.5}}, "section 'search'.*batch_size must be an integer"),
        ({"search": {"max_epochs": 1.5}}, "section 'search'.*max_epochs must be an integer"),
        ({"search": {"max_epochs": True}}, "section 'search'.*max_epochs must be an integer"),
        ({"space": {"hidden_dim": 2.5}}, "section 'space'.*hidden_dim must be an integer"),
        ({"space": {"num_cells": 1.5}}, "section 'space'.*num_cells must be an integer"),
        ({"space": {"steps_per_cell": False}}, "section 'space'.*steps_per_cell must be an integer"),
        ({"pipeline": {"pretrain_epochs": 1.5}}, "section 'pipeline'.*pretrain_epochs must be an integer"),
        ({"pipeline": {"clf_batch_size": 2.5}}, "section 'pipeline'.*clf_batch_size must be an integer"),
        ({"contrastive": {"blur_width": 2.5}}, "section 'contrastive'.*blur_width must be an integer"),
        ({"contrastive": {"proj_dim": 3.0}}, "section 'contrastive'.*proj_dim must be an integer"),
        ({"pipeline": {"freeze_encoder": "no"}}, "section 'pipeline'.*freeze_encoder must be true or false"),
        ({"pipeline": {"classifier_loss": "softmax_ce"}}, "section 'pipeline'.*classifier_loss must be 'bce'"),
        ({"contrastive": {"temperature": True}}, "section 'contrastive'.*temperature must be a finite number"),
        ({"pipeline": {"pretrain_lr": True}}, "section 'pipeline'.*pretrain_lr must be a finite number"),
        ({"contrastive": {"noise_scale": float("nan")}}, "section 'contrastive'.*noise_scale must be a finite number"),
        ({"search": {"lr_weights": float("inf")}}, "section 'search'.*lr_weights must be a finite number"),
        ({"contrastive": {"crop_prob": "0.5"}}, "section 'contrastive'.*crop_prob must be a finite number"),
        ({"search": {"lr_arch": None}}, "section 'search'.*lr_arch must be a finite number"),
        ({"space": {"hidden_dim": 0}}, "section 'space'.*hidden_dim must be >= 1"),
        ({"space": {"num_cells": 0}}, "section 'space'.*num_cells must be >= 1"),
        ({"space": {"steps_per_cell": 0}}, "section 'space'.*steps_per_cell must be >= 1"),
        ({"data": {"image_layer_dims": [32.7, 32]}}, "section 'data'.*image_layer_dim must be an integer, got 32.7"),
        ({"data": {"image_layer_dims": [True, 32]}}, "section 'data'.*image_layer_dim must be an integer, got True"),
        ({"data": {"image_layer_dims": ["32", 32]}}, "section 'data'.*image_layer_dim must be an integer, got '32'"),
        ({"data": {"vocab_size": 1000.5}}, "section 'data'.*vocab_size must be an integer"),
        ({"data": {"signal_plan": [["image:0", True], ["text:1", 10]]}},
         "section 'data'.*signal-to-noise ratio of image:0 must be a finite number, got True"),
        ({"data": {"signal_plan": [["image:0", 10], ["text:1", "10"]]}},
         "section 'data'.*signal-to-noise ratio of text:1 must be a finite number, got '10'"),
        ({"data": {"signal_plan": [["image:0", float("nan")], ["text:1", 10]]}},
         "section 'data'.*signal-to-noise ratio of image:0 must be a finite number, got nan"),
    ],
    ids=["int-section", "list-section", "null-section", "null-seed", "string-seed", "float-seed", "bool-seed",
         "null-data-seed", "list-config", "float-batch-size", "float-max-epochs", "bool-max-epochs",
         "float-hidden-dim", "float-num-cells", "bool-steps-per-cell", "float-pretrain-epochs",
         "float-clf-batch-size", "float-blur-width", "float-proj-dim", "string-freeze-encoder", "softmax-ce-loss",
         "bool-temperature", "bool-pretrain-lr", "nan-noise-scale", "inf-lr-weights", "string-crop-prob",
         "null-lr-arch", "zero-hidden-dim", "zero-num-cells", "zero-steps-per-cell", "float-layer-dim",
         "bool-layer-dim", "string-layer-dim", "float-vocab-size", "bool-snr", "string-snr", "nan-snr"],
)
def test_wrongly_typed_values_raise_config_error(doc, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize(
    "make, kwargs, error, match",
    [
        (SearchConfig, {"max_epochs": 1.5}, ValueError, "max_epochs must be an integer"),
        (SearchConfig, {"max_epochs": True}, ValueError, "max_epochs must be an integer"),
        (SearchConfig, {"batch_size": 16.0}, ValueError, "batch_size must be an integer"),
        (SearchConfig, {"seed": "3"}, ValueError, "seed must be an integer"),
        (SearchSpaceConfig, {"num_cells": 1.5}, SpaceError, "num_cells must be an integer"),
        (SearchSpaceConfig, {"steps_per_cell": True}, SpaceError, "steps_per_cell must be an integer"),
        (SearchSpaceConfig, {"hidden_dim": 2.5}, SpaceError, "hidden_dim must be an integer"),
        (SearchSpaceConfig, {"features_per_modality": ((32, 32.5), (32,))}, SpaceError, "layer dim must be an integer"),
        (SearchSpaceConfig, {"features_per_modality": ((32,), (True,))}, SpaceError, "layer dim must be an integer"),
        (PipelineConfig, {"pretrain_epochs": 1.5}, ValueError, "pretrain_epochs must be an integer"),
        (PipelineConfig, {"pretrain_batch_size": True}, ValueError, "pretrain_batch_size must be an integer"),
        (PipelineConfig, {"clf_epochs": 80.0}, ValueError, "clf_epochs must be an integer"),
        (PipelineConfig, {"freeze_encoder": 1}, ValueError, "freeze_encoder must be true or false"),
        (PipelineConfig, {"labeled_ratio": float("nan")}, ValueError, "labeled_ratio must be a finite number"),
        (PipelineConfig, {"pretrain_momentum": "0.9"}, ValueError, "pretrain_momentum must be a finite number"),
        (PipelineConfig, {"clf_lr": float("-inf")}, ValueError, "clf_lr must be a finite number"),
        (PipelineConfig, {"clf_lr": 10**400}, ValueError, "clf_lr must be a finite number"),
        (ContrastiveConfig, {"proj_hidden_dim": 64.0}, ContrastiveError, "proj_hidden_dim must be an integer"),
        (ContrastiveConfig, {"mask_prob": False}, ContrastiveError, "mask_prob must be a finite number"),
        (ContrastiveConfig, {"rotate_max_angle": float("inf")}, ContrastiveError, "rotate_max_angle must be a finite"),
        (SearchConfig, {"momentum": None}, ValueError, "momentum must be a finite number"),
    ],
)
def test_count_fields_must_be_integers_when_constructed(make, kwargs, error, match):
    with pytest.raises(error, match=match):
        make(**kwargs)


def test_integer_snrs_are_stored_as_floats_and_keep_the_hash():
    doc = {"data": {"signal_plan": [["image:0", 10], ["text:1", 10]]}}
    cfg = RunConfig.from_dict(doc)
    assert cfg.data.signal_plan == (("image:0", 10.0), ("text:1", 10.0))
    assert all(type(snr) is float for _, snr in cfg.data.signal_plan)
    assert cfg.hash() == RunConfig().hash()


def test_valid_numbers_keep_their_type_and_the_hash():
    # an int where a float is declared is a valid number, stored as given
    doc = {"contrastive": {"temperature": 1, "noise_scale": 0}, "search": {"lr_arch": 0}}
    cfg = RunConfig.from_dict(doc)
    assert cfg.contrastive.temperature == 1 and type(cfg.contrastive.temperature) is int
    assert cfg.hash() == RunConfig.from_dict(cfg.to_dict()).hash()


def test_seed_lives_at_top_level_only():
    with pytest.raises(ConfigError, match="top level"):
        RunConfig.from_dict({"search": {"seed": 4}})


def test_round_trip_through_effective_dict():
    cfg = RunConfig.from_dict({"seed": 5, "space": {"hidden_dim": 8}, "data": {"num_samples": 10}})
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_from_file_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_file(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.from_file(path)


def test_search_config_carries_run_seed():
    cfg = RunConfig.from_dict({"seed": 123})
    assert cfg.search_config().seed == 123


def test_space_config_uses_dataset_dims():
    cfg = RunConfig.from_dict({"space": {"hidden_dim": 4}})
    space = cfg.space_config((6, 7), (8,))
    assert space.features_per_modality == ((6, 7), (8,))
    assert space.hidden_dim == 4


def test_build_id_mentions_version():
    assert "mmnas-0.1.0" in build_id()


def test_build_id_is_computed_once_per_process():
    assert build_id() is build_id()


@pytest.mark.parametrize("key", ["stage_search", "stage_pretrain", "stage_fit"])
def test_removed_stage_switches_are_unknown_keys(key):
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\] in config section 'pipeline'"):
        RunConfig.from_dict({"pipeline": {key: False}})


@pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps", "arch_init_scale"])
def test_removed_arch_optimizer_constants_are_unknown_keys(key):
    # Adam's betas and eps and the logits' init scale are fixed, not configured
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\] in config section 'search'"):
        RunConfig.from_dict({"search": {key: 0.5}})
