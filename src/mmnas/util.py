"""Shared helpers: canonical JSON, short hashes, deterministic RNG streams,
linear weight initialization, flat parameter storage, atomic file writes."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np


def canonical_json(obj) -> str:
    """Bit-stable JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def short_hash(obj) -> str:
    """16-hex-char digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def seeded_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for (seed, purpose tags)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *map(int, tags)]))


def integer(value, name: str, error=ValueError):
    """``value`` if it is an int (a bool is not one); else ``error`` naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def real(value, name: str, error=ValueError):
    """``value`` if it is an int or float that a finite float can hold (a bool
    is not one); else ``error`` naming it."""
    # NaN fails the comparison, and an int too large for a float exceeds the bound
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be a finite number, got {value!r}")
    return value


def init_linear(rng: np.random.Generator, shapes: dict) -> dict:
    """Zeros for vectors (biases), N(0, 1) / sqrt(fan_in) for matrices, drawn
    from ``rng`` in the key order of ``shapes``."""
    return {
        name: np.zeros(shape) if len(shape) == 1 else rng.standard_normal(shape) / np.sqrt(shape[0])
        for name, shape in shapes.items()
    }


def flat_views(arrays: dict) -> tuple:
    """Copy ``arrays`` into one new float64 vector; return it and a dict of views.

    The views have the keys, key order and shapes of ``arrays`` and lie in
    the vector in that order, so writing to the vector writes to every view
    and an optimizer can step all of them with one whole-vector update.
    """
    flat = np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays.values()], axis=None)
    views, offset = {}, 0
    for name, a in arrays.items():
        size = np.size(a)
        views[name] = flat[offset : offset + size].reshape(np.shape(a))
        offset += size
    return flat, views


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temporary file for writing; rename it over ``path`` on success.

    Readers see the old file or the whole new one, never a partial write.
    If the block raises, the temporary file is removed and ``path`` is left
    as it was. (No fsync: this guards against a failed or killed writer,
    not against power loss.)
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# purpose tags for seeded_rng; every consumer uses one of these so streams
# never collide across stages
TAG_WEIGHT_INIT = 1
TAG_ARCH_INIT = 2
TAG_SHUFFLE = 3
TAG_AUGMENT = 4
TAG_PRETRAIN_INIT = 5
TAG_PRETRAIN_EPOCH = 6
TAG_CLASSIFIER_INIT = 7
TAG_CLASSIFIER_EPOCH = 8
TAG_SPLIT = 9
TAG_DATA_LATENT = 10
TAG_DATA_MAPS = 11
TAG_DATA_NOISE = 12
TAG_DATA_LABELS = 13

