"""Stochastic two-view augmentation, projection head, and the contrastive loss.

The engine ingests precomputed backbone features, so image augmentations are
declared feature-space proxies of the usual pixel ops, applied per layer
vector, each with its own probability:

  crop    zero a contiguous span of crop_fraction * dim coordinates
  flip    multiply by the fixed alternating sign pattern (+1, -1, +1, ...)
  color   per-channel affine jitter: split into 4 contiguous channels, each
          scaled by U(1-s, 1+s) and shifted by N(0, s)
  blur    moving-average smoothing over coordinates (window blur_width)
  rotate  Givens rotation of disjoint adjacent coordinate pairs by a single
          random angle in [-rotate_max_angle, rotate_max_angle]

plus optional additive Gaussian noise (noise_scale). Text augmentation is
token masking: each token independently becomes the reserved MASK id
(vocab_size - 1) with probability mask_prob. A masked position also zeroes
the text-feature coordinates assigned to it round-robin (coordinate c of a
text layer belongs to position c mod seq_len), which is the declared
feature-space effect of masking when only precomputed features exist.

The loss is the normalized temperature-scaled cross entropy over 2N
projections ordered pairwise: rows (2k, 2k+1) are the two views of sample
k. Cosine similarities, the positive-pair term in the numerator, every
non-self term in the denominator, log-sum-exp stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ContrastiveError(ValueError):
    pass


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.1
    # image feature-space proxies; magnitudes balanced against the text
    # masking strength so neither modality is trivially view-stable
    crop_prob: float = 0.8
    crop_fraction: float = 0.3
    flip_prob: float = 0.5
    jitter_prob: float = 0.8
    jitter_scale: float = 0.2
    blur_prob: float = 0.3
    blur_width: int = 3
    rotate_prob: float = 0.5
    rotate_max_angle: float = 0.7853981633974483  # pi/4
    noise_scale: float = 0.3
    # text token masking
    mask_prob: float = 0.55
    text_vocab_size: int = 1000
    # projection head g(.)
    proj_hidden_dim: int = 64
    proj_dim: int = 64

    def __post_init__(self):
        if self.temperature <= 0:
            raise ContrastiveError("temperature must be > 0")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ContrastiveError("mask_prob must lie in [0, 1)")
        for name in ("crop_prob", "flip_prob", "jitter_prob", "blur_prob", "rotate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ContrastiveError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.crop_fraction <= 1.0:
            raise ContrastiveError("crop_fraction must lie in [0, 1]")
        if self.blur_width < 1:
            raise ContrastiveError("blur_width must be >= 1")
        if self.text_vocab_size < 2:
            raise ContrastiveError("text_vocab_size must reserve room for the MASK id")
        if self.proj_hidden_dim < 1 or self.proj_dim < 1:
            raise ContrastiveError("projection head dims must be >= 1")

    @property
    def mask_token(self) -> int:
        return self.text_vocab_size - 1

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


_FLIP_CACHE: dict = {}


def _flip_pattern(dim: int) -> np.ndarray:
    pat = _FLIP_CACHE.get(dim)
    if pat is None:
        pat = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
        _FLIP_CACHE[dim] = pat
    return pat


def _augment_image_layer(x: np.ndarray, cfg: ContrastiveConfig, rng: np.random.Generator) -> np.ndarray:
    if x.size == 0:
        raise ContrastiveError("empty feature vector")
    out = np.array(x, dtype=np.float64)
    d = out.shape[0]
    # gates are drawn unconditionally so the rng stream does not depend on
    # the config, only on the draw order
    if rng.random() < cfg.crop_prob:
        span = int(round(cfg.crop_fraction * d))
        if span > 0:
            start = int(rng.integers(0, d - span + 1))
            out[start : start + span] = 0.0
    if rng.random() < cfg.flip_prob:
        out *= _flip_pattern(d)
    if rng.random() < cfg.jitter_prob:
        chunks = np.array_split(np.arange(d), min(4, d))
        for idx in chunks:
            a = rng.uniform(1.0 - cfg.jitter_scale, 1.0 + cfg.jitter_scale)
            b = rng.normal(0.0, cfg.jitter_scale)
            out[idx] = out[idx] * a + b
    if rng.random() < cfg.blur_prob and cfg.blur_width > 1:
        kernel = np.full(cfg.blur_width, 1.0 / cfg.blur_width)
        out = np.convolve(out, kernel, mode="same")
    if rng.random() < cfg.rotate_prob and d >= 2:
        theta = rng.uniform(-cfg.rotate_max_angle, cfg.rotate_max_angle)
        c, s = np.cos(theta), np.sin(theta)
        even = out[0 : 2 * (d // 2) : 2].copy()
        odd = out[1 : 2 * (d // 2) : 2].copy()
        out[0 : 2 * (d // 2) : 2] = c * even - s * odd
        out[1 : 2 * (d // 2) : 2] = s * even + c * odd
    if cfg.noise_scale > 0:
        out += rng.normal(0.0, cfg.noise_scale, d)
    return out


def augment_view(image: list, tokens: np.ndarray, text: list, cfg: ContrastiveConfig, rng: np.random.Generator):
    """One augmented view of one sample row: (image layers, tokens, text layers).

    ``image`` and ``text`` hold one feature vector per layer. Image layers
    draw from ``rng`` first, in layer order, then the text mask; the view is
    pure given the rng state and never writes to its inputs.
    """
    if tokens.size == 0:
        raise ContrastiveError("text view requires a non-empty token sequence")
    if any(f.size == 0 for f in text):
        raise ContrastiveError("empty feature vector")
    if np.any(tokens >= cfg.text_vocab_size) or np.any(tokens < 0):
        raise ContrastiveError("token id out of vocabulary range")
    image_view = [_augment_image_layer(x, cfg, rng) for x in image]
    mask = rng.random(tokens.shape[0]) < cfg.mask_prob
    text_view = [np.array(f, dtype=np.float64) * ~mask[np.arange(f.shape[0]) % tokens.shape[0]] for f in text]
    return image_view, np.where(mask, cfg.mask_token, tokens).astype(np.int64), text_view


class ProjectionHead:
    """Two-layer MLP g(.): hidden -> relu -> projection space (no norm here)."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim

    def weight_shapes(self) -> dict:
        return {
            "head/W1": (self.in_dim, self.hidden_dim),
            "head/b1": (self.hidden_dim,),
            "head/W2": (self.hidden_dim, self.out_dim),
            "head/b2": (self.out_dim,),
        }

    def init_weights(self, rng: np.random.Generator) -> dict:
        out = {}
        for name, shape in self.weight_shapes().items():
            out[name] = np.zeros(shape) if len(shape) == 1 else rng.standard_normal(shape) / np.sqrt(shape[0])
        return out

    def forward(self, weights: dict, h: Tensor) -> Tensor:
        if h.data.ndim != 2 or h.shape[1] != self.in_dim:
            raise ContrastiveError(f"projection head expects batch x {self.in_dim}, got {h.shape}")
        z1 = ad.relu(ad.add(ad.matmul(h, weights["head/W1"]), weights["head/b1"]))
        return ad.add(ad.matmul(z1, weights["head/W2"]), weights["head/b2"])


def pair_partner_matrix(rows: int) -> np.ndarray:
    """One-hot (i, partner(i)) matrix for interleaved view pairs."""
    p = np.zeros((rows, rows))
    for i in range(rows):
        p[i, i ^ 1] = 1.0
    return p


def ntxent_loss(z: Tensor, temperature: float) -> Tensor:
    """Mean over all 2N rows of -log softmax(positive | non-self rows).

    Rows must be ordered (view_a of sample 0, view_b of sample 0, view_a of
    sample 1, ...). Differentiable through z.
    """
    if temperature <= 0:
        raise ContrastiveError("temperature must be > 0")
    if z.data.ndim != 2:
        raise ContrastiveError(f"expected 2-D projections, got shape {z.shape}")
    rows = z.shape[0]
    if rows < 2 or rows % 2 != 0:
        raise ContrastiveError(f"need an even number >= 2 of projection rows, got {rows}")
    row_norms = np.sqrt(np.sum(z.data * z.data, axis=1))
    if np.any(row_norms == 0.0):
        raise ContrastiveError("zero-norm projection row: cosine similarity undefined")

    norms = ad.l2norm(z, axis=1, keepdims=True)
    zn = ad.div(z, norms)
    logits = ad.scale(ad.matmul(zn, ad.transpose(zn)), 1.0 / temperature)
    masked = ad.add(logits, ad.constant(np.diag(np.full(rows, -1e9))))
    row_max = np.max(masked.data, axis=1, keepdims=True)  # detached shift
    lse = ad.add(
        ad.log(ad.tsum(ad.exp(ad.sub(masked, ad.constant(row_max))), axis=1, keepdims=True)),
        ad.constant(row_max),
    )
    pos = ad.tsum(ad.mul(logits, ad.constant(pair_partner_matrix(rows))), axis=1, keepdims=True)
    return ad.mean(ad.sub(lse, pos))
