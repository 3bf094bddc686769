import json

import pytest

from mmnas.config import ConfigError, RunConfig, build_id


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
    ],
    ids=["int-section", "list-section", "null-section", "null-seed", "string-seed", "float-seed", "bool-seed",
         "null-data-seed", "list-config"],
)
def test_wrongly_typed_values_raise_config_error(doc, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(doc)


def test_seed_lives_at_top_level_only():
    with pytest.raises(ConfigError, match="top level"):
        RunConfig.from_dict({"search": {"seed": 4}})


def test_round_trip_through_effective_dict():
    cfg = RunConfig.from_dict({"seed": 5, "space": {"hidden_dim": 8}, "data": {"num_samples": 10}})
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.canonical() == cfg.canonical()


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
