"""Versioned binary checkpoints: a named table of float64 tensors.

Layout (integers little-endian):

  magic b"MMNW" | version u32 | entry_count u32
  per entry (sorted by name for byte-stable output):
    name_len u16 | name utf-8 | ndim u8 | dims u32 x ndim | data f64 LE

Round-trips are bit-exact and writes are atomic. Readers raise
``CheckpointError`` for wrong magic/version, truncation, names that are not
UTF-8, duplicate names, non-finite values and trailing bytes, each reported
with the failing offset where there is one. The writer refuses non-finite
values before it opens the file, so it never writes what they refuse.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .util import atomic_open

MMNW_MAGIC = b"MMNW"
MMNW_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_weights(path, weights: dict) -> None:
    names = sorted(weights)
    arrays = [np.ascontiguousarray(weights[name], dtype="<f8") for name in names]
    for name, arr in zip(names, arrays):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"refusing to save non-finite values in {name!r}")
    with atomic_open(path, "wb") as fh:
        fh.write(MMNW_MAGIC)
        fh.write(struct.pack("<II", MMNW_VERSION, len(names)))
        for name, arr in zip(names, arrays):
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise CheckpointError(f"parameter name too long: {name[:40]}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_weights(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()

    def need(offset, count, what):
        if offset + count > len(raw):
            raise CheckpointError(
                f"truncated checkpoint: need {count} bytes for {what} at offset {offset}, "
                f"have {len(raw) - offset}"
            )

    need(0, 4, "magic")
    if raw[:4] != MMNW_MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MMNW_MAGIC!r}")
    need(4, 8, "header")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != MMNW_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    off = 12
    out = {}
    for _ in range(count):
        need(off, 2, "name length")
        (name_len,) = struct.unpack_from("<H", raw, off)
        off += 2
        need(off, name_len, "name")
        try:
            name = raw[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"parameter name at offset {off} is not valid UTF-8") from None
        if name in out:
            raise CheckpointError(f"duplicate parameter name {name!r} at offset {off}")
        off += name_len
        need(off, 1, "ndim")
        ndim = raw[off]
        off += 1
        need(off, 4 * ndim, "dims")
        dims = struct.unpack_from(f"<{ndim}I", raw, off)
        off += 4 * ndim
        size = math.prod(dims)  # python ints: no overflow to hide a short file
        need(off, 8 * size, f"tensor data for {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=size, offset=off).reshape(dims)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite values in {name!r} at offset {off}")
        off += 8 * size
        out[name] = arr.astype(np.float64)
    if off != len(raw):
        raise CheckpointError(f"{len(raw) - off} trailing bytes after the parameter table")
    return out
