"""Synthetic paired-modality benchmark with planted cross-modal structure,
plus the MMNF on-disk feature format and deterministic splitting.

Generation model: each sample draws a latent factor u ~ N(0, I). A feature
layer named in the signal plan becomes  X = U A + noise / snr  with
unit-norm columns of A (so per-coordinate signal variance is 1); every
other layer is pure N(0, 1) noise. Labels are thresholded linear readouts
of the latent with staggered thresholds, so positive rates range from
common to rare. Features pass through float32 once at creation, making the
float32 file payload bit-exact under round-trip.

A dataset holds no text token values, only ``text_len``, the length of
the text mask (see ``contrastive``). MMNF does not store it: the loader
takes it from its caller.

MMNF layout, all integers little-endian:

  magic  b"MMNF" | version u32 | num_samples u32 | num_modalities u32
  per modality: layer_count u32, then one u32 dim per layer
  num_labels u32 (0 means unlabeled)
  payload: per modality, per layer, a float32 block (num_samples x dim,
  row-major), then a u8 label block (num_samples x num_labels) if labeled.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass

import numpy as np

from .util import (
    TAG_DATA_LABELS,
    TAG_DATA_LATENT,
    TAG_DATA_MAPS,
    TAG_DATA_NOISE,
    TAG_SPLIT,
    atomic_open,
    integer,
    seeded_rng,
)

MMNF_MAGIC = b"MMNF"
MMNF_VERSION = 1


class DataError(ValueError):
    pass


class FormatError(DataError):
    """Malformed or truncated MMNF payload."""


@dataclass(frozen=True)
class SyntheticSpec:
    num_samples: int = 2000
    image_layer_dims: tuple = (32, 32)
    text_layer_dims: tuple = (32, 32)
    num_labels: int = 8
    latent_dim: int = 4
    signal_plan: tuple = (("image:0", 10.0), ("text:1", 10.0))
    text_len: int = 16
    vocab_size: int = 1000  # read by the benchmark only; ROADMAP item 10 removes it
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "image_layer_dims", tuple(int(d) for d in self.image_layer_dims))
        object.__setattr__(self, "text_layer_dims", tuple(int(d) for d in self.text_layer_dims))
        object.__setattr__(
            self, "signal_plan", tuple((str(s), float(snr)) for s, snr in self.signal_plan)
        )
        for name in ("seed", "num_samples", "num_labels", "latent_dim", "text_len"):
            integer(getattr(self, name), name, DataError)
        if self.num_samples < 1:
            raise DataError("num_samples must be >= 1")
        if self.num_labels < 1:
            raise DataError("num_labels must be >= 1")
        if self.latent_dim < 1:
            raise DataError("latent_dim must be >= 1")
        if not self.image_layer_dims or not self.text_layer_dims:
            raise DataError("both modalities need at least one layer")
        if any(d < 1 for d in self.image_layer_dims + self.text_layer_dims):
            raise DataError("layer dims must be >= 1")
        if self.text_len < 1 or self.vocab_size < 2:
            raise DataError("text_len >= 1 and vocab_size >= 2 required")
        sources = self.sources()
        planted_modalities = set()
        for src, snr in self.signal_plan:
            if src not in sources:
                raise DataError(f"signal plan names unknown source {src!r}")
            if snr <= 0:
                raise DataError("signal-to-noise ratio must be > 0")
            planted_modalities.add(src.split(":", 1)[0])
        if planted_modalities != {"image", "text"}:
            raise DataError("signal plan needs at least one planted layer per modality")

    def sources(self) -> list:
        out = [f"image:{l}" for l in range(len(self.image_layer_dims))]
        out += [f"text:{l}" for l in range(len(self.text_layer_dims))]
        return out

    def to_dict(self) -> dict:
        return asdict(self)


class Dataset:
    """Read-only columnar paired dataset; row i of every matrix is sample i.

    ``features`` maps each backbone source ("image:0", ..., "text:0", ...),
    in canonical order, to a C-contiguous ``n x d`` float64 matrix;
    ``labels`` is the ``n x num_labels`` u8 matrix, or None when the data is
    unlabeled; ``text_len`` is the number of maskable text positions.
    """

    def __init__(self, features: dict, labels: np.ndarray | None, text_len: int):
        if isinstance(text_len, bool) or not isinstance(text_len, (int, np.integer)) or text_len < 1:
            raise DataError(f"text_len must be an integer >= 1, got {text_len!r}")
        self.features = {src: _freeze(x) for src, x in features.items()}
        self.labels = None if labels is None else _freeze(labels)
        self.text_len = int(text_len)
        self.image_dims = tuple(x.shape[1] for src, x in self.features.items() if src.startswith("image:"))
        self.text_dims = tuple(x.shape[1] for src, x in self.features.items() if src.startswith("text:"))

    def __len__(self) -> int:
        return len(next(iter(self.features.values())))

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    @property
    def num_labels(self) -> int:
        return 0 if self.labels is None else self.labels.shape[1]

    def labels_matrix(self) -> np.ndarray:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return self.labels.astype(np.float64)

    def subset(self, indices, strip_labels: bool = False) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            {src: x[idx] for src, x in self.features.items()},
            None if strip_labels or self.labels is None else self.labels[idx],
            self.text_len,
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw the planted dataset; deterministic in spec.seed."""
    n = spec.num_samples
    rng_latent = seeded_rng(spec.seed, TAG_DATA_LATENT)
    rng_maps = seeded_rng(spec.seed, TAG_DATA_MAPS)
    rng_noise = seeded_rng(spec.seed, TAG_DATA_NOISE)
    rng_labels = seeded_rng(spec.seed, TAG_DATA_LABELS)

    latent = rng_latent.standard_normal((n, spec.latent_dim))
    snr_by_source = dict(spec.signal_plan)
    features = {}
    for src in spec.sources():
        modality, layer = src.split(":", 1)
        dims = spec.image_layer_dims if modality == "image" else spec.text_layer_dims
        d = dims[int(layer)]
        if src in snr_by_source:
            a = rng_maps.standard_normal((spec.latent_dim, d))
            a /= np.linalg.norm(a, axis=0, keepdims=True)
            x = latent @ a + rng_noise.standard_normal((n, d)) / snr_by_source[src]
        else:
            x = rng_noise.standard_normal((n, d))
        # one pass through float32 so the on-disk payload round-trips exactly
        features[src] = x.astype(np.float32).astype(np.float64)

    w_lab = rng_labels.standard_normal((spec.latent_dim, spec.num_labels))
    w_lab /= np.linalg.norm(w_lab, axis=0, keepdims=True)
    thresholds = np.linspace(-0.5, 1.5, spec.num_labels)
    labels = (latent @ w_lab > thresholds).astype(np.uint8)
    return Dataset(features, labels, spec.text_len)


# ---------------------------------------------------------------------------
# MMNF read/write
# ---------------------------------------------------------------------------

def save(dataset: Dataset, path, text_len: int = 16, vocab_size: int = 1000) -> None:
    """Write features (float32) and labels (u8) in MMNF layout.

    text_len, vocab_size: ignored; the benchmark passes them, and ROADMAP item 10 removes them.
    """
    n = len(dataset)
    per_modality = [dataset.image_dims, dataset.text_dims]
    header = bytearray()
    header += MMNF_MAGIC
    header += struct.pack("<III", MMNF_VERSION, n, len(per_modality))
    for dims in per_modality:
        header += struct.pack("<I", len(dims))
        header += struct.pack(f"<{len(dims)}I", *dims)
    num_labels = dataset.num_labels
    header += struct.pack("<I", num_labels)

    with atomic_open(path, "wb") as fh:
        fh.write(bytes(header))
        for x in dataset.features.values():
            fh.write(x.astype("<f4").tobytes())
        if num_labels:
            fh.write(dataset.labels.tobytes())


def load(path, text_len: int = 16, vocab_size: int = 1000) -> Dataset:
    """Parse an MMNF file; rejects wrong magic/version and any length drift.

    vocab_size: ignored; the benchmark passes it, and ROADMAP item 10 removes it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    def need(offset, count, what):
        if offset + count > len(raw):
            raise FormatError(
                f"truncated file: need {count} bytes for {what} at offset {offset}, have {len(raw) - offset}"
            )

    need(0, 4, "magic")
    if raw[:4] != MMNF_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {MMNF_MAGIC!r}")
    need(4, 12, "header")
    version, n, num_modalities = struct.unpack_from("<III", raw, 4)
    if version != MMNF_VERSION:
        raise FormatError(f"unsupported version {version}")
    if num_modalities != 2:
        raise FormatError(f"expected 2 modalities (image, text), found {num_modalities}")
    off = 16
    per_modality = []
    for _ in range(num_modalities):
        need(off, 4, "layer count")
        (count,) = struct.unpack_from("<I", raw, off)
        off += 4
        need(off, 4 * count, "layer dims")
        dims = struct.unpack_from(f"<{count}I", raw, off)
        off += 4 * count
        if count == 0 or any(d == 0 for d in dims):
            raise FormatError("zero layer count or zero dim in header")
        per_modality.append(tuple(dims))
    need(off, 4, "label count")
    (num_labels,) = struct.unpack_from("<I", raw, off)
    off += 4

    expected_payload = sum(4 * n * d for dims in per_modality for d in dims) + n * num_labels
    if len(raw) - off != expected_payload:
        raise FormatError(
            f"payload length mismatch at offset {off}: header implies {expected_payload} bytes, "
            f"found {len(raw) - off}"
        )

    features = {}
    for modality, dims in zip(("image", "text"), per_modality):
        for l, d in enumerate(dims):
            block = np.frombuffer(raw, dtype="<f4", count=n * d, offset=off)
            if not np.isfinite(block).all():
                raise FormatError(f"non-finite feature values in {modality}:{l} at offset {off} (corrupt payload)")
            features[f"{modality}:{l}"] = block.reshape(n, d).astype(np.float64)
            off += 4 * n * d
    labels = None
    if num_labels:
        labels = np.frombuffer(raw, dtype=np.uint8, count=n * num_labels, offset=off).reshape(n, num_labels).copy()
        if np.any(labels > 1):
            raise FormatError(f"label values other than 0 and 1 at offset {off}")
    return Dataset(features, labels, text_len)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass
class SplitSet:
    search_train: Dataset
    search_valid: Dataset
    labeled_train: Dataset
    test: Dataset


def split_sizes(n: int, r: float) -> tuple:
    """``(labeled, test)``: how many of n samples ``split`` labels at ratio
    r, floor(n r), and how many of those it keeps for testing, floor(0.1 floor(n r))."""
    if not 0.0 < r <= 1.0:
        raise DataError(f"labeled ratio must lie in (0, 1], got {r}")
    labeled_total = int(np.floor(n * r))
    return labeled_total, int(np.floor(0.1 * labeled_total))


def split(dataset: Dataset, r: float, seed: int) -> SplitSet:
    """Disjoint deterministic splits under the labeled budget floor(n * r).

    The labeled budget is split 90/10 into classifier-training and test
    samples; the unlabeled complement is split 80/20 into the search train
    and valid phases with labels stripped.
    """
    n = len(dataset)
    labeled_total, n_test = split_sizes(n, r)
    if n < 1:
        raise DataError("cannot split an empty dataset")
    rng = seeded_rng(seed, TAG_SPLIT)
    perm = rng.permutation(n)
    unlabeled = perm[: n - labeled_total]
    labeled = perm[n - labeled_total :]
    test_idx = labeled[:n_test]
    labeled_train_idx = labeled[n_test:]
    n_train = int(np.floor(0.8 * len(unlabeled)))
    return SplitSet(
        search_train=dataset.subset(unlabeled[:n_train], strip_labels=True),
        search_valid=dataset.subset(unlabeled[n_train:], strip_labels=True),
        labeled_train=dataset.subset(labeled_train_idx),
        test=dataset.subset(test_idx),
    )


# ---------------------------------------------------------------------------
# planted-structure audit
# ---------------------------------------------------------------------------

def _mean_abs_crosscorr(x: np.ndarray, y: np.ndarray) -> float:
    xs = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-12)
    ys = (y - y.mean(axis=0)) / np.maximum(y.std(axis=0), 1e-12)
    corr = xs.T @ ys / x.shape[0]
    return float(np.mean(np.abs(corr)))


def audit(dataset: Dataset, spec: SyntheticSpec) -> dict:
    """Cross-modal correlation audit: planted pairs must dominate the rest.

    Returns per-pair statistics, the planted/non-planted margin, and the
    dominance verdict. The statistic per (image layer, text layer) pair is
    the mean absolute coordinate-wise Pearson correlation.
    """
    planted = {src for src, _ in spec.signal_plan}
    pair_stats = {}
    planted_vals, other_vals = [], []
    for li in range(len(dataset.image_dims)):
        for lt in range(len(dataset.text_dims)):
            img, txt = f"image:{li}", f"text:{lt}"
            stat = _mean_abs_crosscorr(dataset.features[img], dataset.features[txt])
            is_planted = img in planted and txt in planted
            pair_stats[f"{img}|{txt}"] = {"mean_abs_corr": stat, "planted": is_planted}
            (planted_vals if is_planted else other_vals).append(stat)
    min_planted = min(planted_vals)
    max_other = max(other_vals) if other_vals else 0.0
    return {
        "pairs": pair_stats,
        "min_planted": min_planted,
        "max_non_planted": max_other,
        "gap_ratio": min_planted / max(max_other, 1e-12),
        "planted_dominates": bool(min_planted > max_other),
        "num_samples": len(dataset),
    }
