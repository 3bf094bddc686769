
import numpy as np
import pytest

from helpers import corruptions

from mmnas.config import RunConfig
from mmnas.data import (
    DataError,
    Dataset,
    FormatError,
    SyntheticSpec,
    audit,
    generate,
    load,
    save,
    split,
)

SPEC = SyntheticSpec(
    num_samples=120,
    image_layer_dims=(10, 8),
    text_layer_dims=(9, 11),
    num_labels=5,
    seed=7,
)


def _matrices(ds):
    """Every matrix of a dataset by name, features in source order."""
    return {**ds.features, "labels": ds.labels}


def _assert_same_bytes(a, b):
    assert a.text_len == b.text_len
    ma, mb = _matrices(a), _matrices(b)
    assert list(ma) == list(mb)
    for name in ma:
        assert ma[name].shape == mb[name].shape, name
        assert ma[name].tobytes() == mb[name].tobytes(), name


def test_generation_is_deterministic():
    a, b = generate(SPEC), generate(SPEC)
    _assert_same_bytes(a, b)
    assert list(a.features) == ["image:0", "image:1", "text:0", "text:1"]
    assert a.features["text:1"].shape == (120, 11) and a.features["text:1"].flags.c_contiguous
    assert len(a) == 120 and a.text_len == 16 and a.labels.shape == (120, 5)


def test_noiseless_limit_features_are_linear_in_latent():
    spec = SyntheticSpec(
        num_samples=400,
        image_layer_dims=(12, 12),
        text_layer_dims=(12, 12),
        latent_dim=3,
        signal_plan=(("image:0", 1e15), ("text:1", 1e15)),
        seed=1,
    )
    ds = generate(spec)
    img0 = ds.features["image:0"]
    txt1 = ds.features["text:1"]
    # both planted blocks are (numerically) exact linear images of one
    # 3-dim latent, so their concatenation has rank 3
    stacked = np.concatenate([img0, txt1], axis=1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    assert sv[3] / sv[0] < 1e-4
    # and the cross-view linear relation is essentially perfect
    coef, *_ = np.linalg.lstsq(img0, txt1, rcond=None)
    residual = txt1 - img0 @ coef
    assert np.abs(residual).max() < 1e-3


def test_audit_gap_at_snr_10():
    spec = SyntheticSpec(num_samples=1000, seed=3)
    report = audit(generate(spec), spec)
    assert report["planted_dominates"]
    assert report["gap_ratio"] >= 5.0


def test_audit_dominance_across_seeds():
    wins = 0
    for seed in range(20):
        spec = SyntheticSpec(num_samples=400, seed=seed)
        if audit(generate(spec), spec)["planted_dominates"]:
            wins += 1
    assert wins == 20


def test_labels_are_imbalanced_multilabel():
    ds = generate(SyntheticSpec(num_samples=2000, seed=5))
    rates = ds.labels.mean(axis=0)
    assert rates.max() > 0.5 and rates.min() < 0.15


def test_signal_plan_validation():
    with pytest.raises(DataError, match="unknown source"):
        SyntheticSpec(signal_plan=(("image:7", 10.0), ("text:0", 10.0)))
    with pytest.raises(DataError, match="per modality"):
        SyntheticSpec(signal_plan=(("image:0", 10.0),))
    with pytest.raises(DataError, match="> 0"):
        SyntheticSpec(signal_plan=(("image:0", 0.0), ("text:0", 1.0)))
    with pytest.raises(DataError, match=">= 1"):
        SyntheticSpec(num_labels=0)
    with pytest.raises(DataError, match="dims"):
        SyntheticSpec(image_layer_dims=(0, 4))


def test_dataset_needs_a_positive_text_len():
    ds = generate(SPEC)
    for bad in (0, 4.5, 4.0, True, "4"):
        with pytest.raises(DataError, match="text_len must be an integer >= 1"):
            Dataset(ds.features, ds.labels, text_len=bad)
    assert Dataset(ds.features, ds.labels, text_len=np.int64(4)).text_len == 4


@pytest.mark.parametrize("name", ["num_samples", "num_labels", "latent_dim", "text_len"])
@pytest.mark.parametrize("value", [2.0, 3.5, True, "4", None])
def test_count_fields_must_be_integers(name, value):
    with pytest.raises(DataError, match=f"{name} must be an integer"):
        SyntheticSpec(**{name: value})


# ---------------------------------------------------------------------------
# MMNF round trip
# ---------------------------------------------------------------------------

def test_mmnf_roundtrip_bit_exact(tmp_path):
    ds = generate(SPEC)
    path = tmp_path / "d.mmnf"
    save(ds, path)
    back = load(path)
    assert len(back) == len(ds)
    assert back.num_labels == ds.num_labels
    _assert_same_bytes(ds, back)


def test_mmnf_unlabeled_roundtrip(tmp_path):
    unlabeled = generate(SPEC).subset(range(30), strip_labels=True)
    path = tmp_path / "u.mmnf"
    save(unlabeled, path)
    back = load(path)
    assert back.labels is None and back.num_labels == 0
    assert all(back.features[k].tobytes() == x.tobytes() for k, x in unlabeled.features.items())


def test_mmnf_double_save_identical_bytes(tmp_path):
    ds = generate(SPEC)
    p1, p2 = tmp_path / "a.mmnf", tmp_path / "b.mmnf"
    save(ds, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mmnf_truncation_names_offset(tmp_path):
    ds = generate(SPEC)
    path = tmp_path / "d.mmnf"
    save(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(FormatError, match=r"offset \d+"):
        load(path)


def test_mmnf_every_truncation_and_byte_flip_is_a_format_error_or_a_clean_load(tmp_path):
    small = SyntheticSpec(num_samples=2, image_layer_dims=(2,), text_layer_dims=(1, 2), num_labels=2, latent_dim=1,
                          signal_plan=(("image:0", 10.0), ("text:1", 10.0)), seed=3)
    src, path = tmp_path / "d.mmnf", tmp_path / "bad.mmnf"
    save(generate(small), src)
    cases = 0
    for what, blob in corruptions(src.read_bytes()):
        path.write_bytes(blob)
        try:
            ds = load(path)
        except FormatError:
            pass
        else:
            assert all(x.shape == (len(ds), x.shape[1]) and np.isfinite(x).all() for x in ds.features.values()), what
            assert ds.labels is None or set(np.unique(ds.labels)) <= {0, 1}, what
        cases += 1
    assert cases > 300


# text:1's block starts this far from the end: 11 float32s, then 5 label bytes, per sample
TEXT1_FROM_END = -(4 * 11 + 5) * SPEC.num_samples


@pytest.mark.parametrize(
    "edits, message",
    [
        ({-1: 2}, r"label values other than 0 and 1 at offset \d+"),
        # exponent bits of text:1's first float all set: Inf or NaN
        ({TEXT1_FROM_END + 2: 0x80, TEXT1_FROM_END + 3: 0x7F}, r"non-finite feature values in text:1 at offset \d+"),
    ],
    ids=["label", "feature"],
)
def test_mmnf_corrupt_payload_names_what_and_where(tmp_path, edits, message):
    path = tmp_path / "d.mmnf"
    save(generate(SPEC), path)
    blob = bytearray(path.read_bytes())
    for pos, value in edits.items():
        blob[pos] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=message):
        load(path)


def test_failed_save_leaves_the_earlier_file(tmp_path):
    path = tmp_path / "d.mmnf"
    save(generate(SPEC), path)
    before = path.read_bytes()

    class Broken:
        def astype(self, dtype):
            raise OSError("disk went away")

    ds = generate(SPEC)
    ds.features["image:1"] = Broken()  # the writer fails after the first block
    with pytest.raises(OSError, match="disk went away"):
        save(ds, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d.mmnf"]


def test_mmnf_bad_magic_and_version(tmp_path):
    ds = generate(SPEC)
    path = tmp_path / "d.mmnf"
    save(ds, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load(path)
    blob = bytearray((tmp_path / "d.mmnf").read_bytes())
    save(ds, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load(path)


def test_mmnf_foreign_endian_header_rejected(tmp_path):
    ds = generate(SPEC)
    path = tmp_path / "d.mmnf"
    save(ds, path)
    blob = bytearray(path.read_bytes())
    # byte-swap the sample-count field as a big-endian writer would produce
    blob[8:12] = blob[8:12][::-1]
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load(path)


def test_mmnf_dim_mismatch_against_expectation(tmp_path):
    ds = generate(SPEC)
    path = tmp_path / "d.mmnf"
    save(ds, path)
    with pytest.raises(FormatError, match="do not match"):
        load(path, expect_dims=((10, 8), (9, 12)))
    load(path, expect_dims=((10, 8), (9, 11)))  # matching dims pass


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def _ids(ds):
    # continuous feature rows do not collide, so a row's bytes identify its sample
    return {row.tobytes() for row in ds.features["image:0"]}


def test_split_sizes_follow_budget_arithmetic():
    ds = generate(SyntheticSpec(num_samples=100, seed=2))
    s = split(ds, 0.5, seed=0)
    # labeled budget 50 (test 5, classifier 45); unlabeled 50 at 80/20
    assert len(s.search_train) == 40
    assert len(s.search_valid) == 10
    assert len(s.labeled_train) == 45
    assert len(s.test) == 5


def test_split_partition_property():
    ds = generate(SyntheticSpec(num_samples=97, seed=4))
    for r in (0.07, 0.3, 0.5, 1.0):
        s = split(ds, r, seed=11)
        groups = [_ids(s.search_train), _ids(s.search_valid), _ids(s.labeled_train), _ids(s.test)]
        union = set().union(*groups)
        assert union == _ids(ds) and len(union) == 97
        total = sum(len(g) for g in groups)
        assert total == 97  # pairwise disjoint given the union size


def test_split_is_deterministic_in_seed():
    ds = generate(SyntheticSpec(num_samples=60, seed=6))
    a, b = split(ds, 0.2, seed=5), split(ds, 0.2, seed=5)
    assert _ids(a.search_train) == _ids(b.search_train)
    assert _ids(a.test) == _ids(b.test)
    c = split(ds, 0.2, seed=6)
    assert _ids(a.search_train) != _ids(c.search_train)


def test_split_and_load_carry_text_len(tmp_path):
    ds = generate(SyntheticSpec(num_samples=40, text_len=5, seed=3))
    s = split(ds, 0.5, seed=0)
    parts = (s.search_train, s.search_valid, s.labeled_train, s.test)
    assert [p.text_len for p in parts] == [5, 5, 5, 5]
    save(ds, tmp_path / "d.mmnf")
    assert load(tmp_path / "d.mmnf", text_len=7).text_len == 7


def test_benchmark_call_contract(tmp_path):
    # the set-up sequence of perfbench/run.py, keyword for keyword: the
    # benchmark is frozen, so these names must keep working
    cfg = RunConfig.from_dict({"seed": 2, "data": {"num_samples": 30, "seed": 2}})
    ds = generate(cfg.data)
    path, again = tmp_path / "dataset.mmnf", tmp_path / "roundtrip.mmnf"
    save(ds, path, text_len=cfg.data.text_len, vocab_size=cfg.data.vocab_size)
    loaded = load(path, text_len=cfg.data.text_len, vocab_size=cfg.data.vocab_size)
    split(loaded, cfg.pipeline.labeled_ratio, cfg.seed)
    save(loaded, again, text_len=cfg.data.text_len, vocab_size=cfg.data.vocab_size)
    assert again.read_bytes() == path.read_bytes()
    _assert_same_bytes(ds, loaded)


def test_unlabeled_splits_expose_no_labels():
    ds = generate(SyntheticSpec(num_samples=50, seed=8))
    s = split(ds, 0.4, seed=0)
    assert s.search_train.labels is None and s.search_valid.labels is None
    assert not s.search_train.labeled
    with pytest.raises(DataError, match="labels"):
        s.search_valid.labels_matrix()
    assert s.labeled_train.labels.shape == (len(s.labeled_train), ds.num_labels)


def test_subset_takes_the_same_rows_of_every_matrix():
    ds = generate(SPEC)
    idx = [5, 0, 119, 5]
    sub = ds.subset(idx)
    for name, x in _matrices(ds).items():
        assert _matrices(sub)[name].tobytes() == x[idx].tobytes(), name
    assert (sub.image_dims, sub.text_dims, sub.text_len) == (ds.image_dims, ds.text_dims, ds.text_len)


def test_split_r_one_empties_unlabeled_pool():
    ds = generate(SyntheticSpec(num_samples=40, seed=9))
    s = split(ds, 1.0, seed=0)
    assert len(s.search_train) == 0 and len(s.search_valid) == 0
    assert len(s.labeled_train) + len(s.test) == 40


def test_split_rejects_bad_ratio():
    ds = generate(SyntheticSpec(num_samples=10, seed=1))
    for r in (0.0, -0.1, 1.5):
        with pytest.raises(DataError, match="ratio"):
            split(ds, r, seed=0)


def test_feature_arrays_are_read_only():
    ds = generate(SyntheticSpec(num_samples=5, seed=1))
    for x in _matrices(ds).values():
        with pytest.raises(ValueError):
            x[0, 0] = 1
    with pytest.raises(ValueError):
        ds.subset([1, 2]).features["image:0"][0, 0] = 1.0
