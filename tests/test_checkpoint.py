import numpy as np
import pytest

from helpers import corruptions

from mmnas.checkpoint import CheckpointError, load_weights, save_weights
from mmnas.util import atomic_open


def _weights(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "proj/image:0/W": rng.standard_normal((6, 4)),
        "proj/image:0/b": rng.standard_normal(4),
        "cell0/out/W": rng.standard_normal((4, 4)),
        "head/b2": rng.standard_normal(3),
    }


def test_roundtrip_bit_exact(tmp_path):
    w = _weights()
    path = tmp_path / "w.mmnw"
    save_weights(path, w)
    back = load_weights(path)
    assert sorted(back) == sorted(w)
    for k in w:
        assert back[k].shape == w[k].shape
        assert back[k].tobytes() == w[k].tobytes()


def test_double_save_identical_bytes(tmp_path):
    w = _weights()
    p1, p2 = tmp_path / "a.mmnw", tmp_path / "b.mmnw"
    save_weights(p1, w)
    save_weights(p2, load_weights(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "w.mmnw"
    save_weights(path, _weights())
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_weights(path)


def test_bad_version(tmp_path):
    path = tmp_path / "w.mmnw"
    save_weights(path, _weights())
    blob = bytearray(path.read_bytes())
    blob[4] = 42
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_weights(path)


def test_truncation_names_offset(tmp_path):
    path = tmp_path / "w.mmnw"
    save_weights(path, _weights())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(CheckpointError, match=r"offset \d+"):
        load_weights(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "w.mmnw"
    save_weights(path, _weights())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_weights(path)


def _entry(name: bytes, dims: tuple, values) -> bytes:
    import struct

    head = struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
    return head + np.asarray(values, dtype="<f8").tobytes()


def test_undecodable_name_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "w.mmnw"
    path.write_bytes(b"MMNW" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + _entry(b"\xff", (1,), [0.0]))
    with pytest.raises(CheckpointError, match="offset 14 is not valid UTF-8"):
        load_weights(path)


def test_huge_dims_are_reported_as_truncation(tmp_path):
    # 2^32-1 x 2^32-1 float64s overflow a C size; the check sees the true size
    path = tmp_path / "w.mmnw"
    path.write_bytes(b"MMNW" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + _entry(b"w", (2**32 - 1,) * 2, []))
    with pytest.raises(CheckpointError, match=f"truncated checkpoint: need {8 * (2**32 - 1) ** 2} bytes"):
        load_weights(path)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "w.mmnw"
    entry = _entry(b"w", (1,), [1.0])
    path.write_bytes(b"MMNW" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + entry + entry)
    with pytest.raises(CheckpointError, match="duplicate parameter name 'w' at offset 30"):
        load_weights(path)


def test_non_finite_values_rejected(tmp_path):
    path = tmp_path / "w.mmnw"
    path.write_bytes(b"MMNW" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + _entry(b"w", (2,), [1.0, np.inf]))
    with pytest.raises(CheckpointError, match="non-finite values in 'w' at offset 20"):
        load_weights(path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_save_refuses_non_finite_values_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "w.mmnw"
    weights = {**_weights(), "cell0/out/b": np.array([0.5, bad, 1.0])}
    with pytest.raises(CheckpointError, match="non-finite values in 'cell0/out/b'"):
        save_weights(path, weights)
    assert list(tmp_path.iterdir()) == []


def test_every_truncation_and_byte_flip_is_a_checkpoint_error_or_a_clean_load(tmp_path):
    src = tmp_path / "w.mmnw"
    save_weights(src, {"cell0/out/W": np.arange(4.0).reshape(2, 2) - 1.5, "head/b": np.array([0.5, -2.0, 3.0])})
    path = tmp_path / "bad.mmnw"
    cases = 0
    for what, blob in corruptions(src.read_bytes()):
        path.write_bytes(blob)
        try:
            loaded = load_weights(path)
        except CheckpointError:
            pass
        else:
            for name, arr in loaded.items():
                assert isinstance(name, str) and arr.dtype == np.float64, what
                assert np.isfinite(arr).all(), what
        cases += 1
    assert cases > 500


def test_failed_save_leaves_the_earlier_checkpoint(tmp_path):
    path = tmp_path / "w.mmnw"
    save_weights(path, _weights())
    before = path.read_bytes()
    # sorted first, so the writer fails after writing the first entry
    with pytest.raises(CheckpointError, match="too long"):
        save_weights(path, {"a": np.ones(3), "b" * 70000: np.ones(2)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.mmnw"]


def test_atomic_open_keeps_the_earlier_file_when_the_writer_fails(tmp_path):
    path = tmp_path / "genotype.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_open(path) as fh:
            fh.write("partial")
            fh.flush()
            raise RuntimeError("midway")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["genotype.json"]
    with atomic_open(path, "w", newline="") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["genotype.json"]
