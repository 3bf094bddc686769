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

plus optional additive Gaussian noise (noise_scale). Crop needs a span of at
least one coordinate, blur a window no wider than the vector, and rotate at
least two coordinates; otherwise the op leaves the vector as it is.

Text augmentation is token masking: each of seq_len positions is masked
with probability mask_prob. There are no token ids; a masked position
zeroes the text-feature coordinates assigned to it round-robin
(coordinate c of a text layer belongs to position c mod seq_len).

Draw-order contract: ``augment_views`` augments a whole batch, and the
views it gives are exactly the views that calls on one row at a time,
in row order and sharing the rng, would give. Each row draws its image
layers in layer order, then its text mask. Each image layer draws its
crop gate (then the span start), flip gate, jitter gate (then a scale
and a shift per channel), blur gate, rotate gate (then the angle) and,
when noise_scale > 0, its noise vector. Gates are drawn even when the op
cannot apply. The batch first draws every parameter row by row in this
order, then applies each op once to all the rows that drew it.

A caller that reads only some layers passes an unread image layer as its
width and leaves an unread text layer out (text layers draw nothing of
their own). An unread image layer is drawn, call for call, as a read one
is, so the rng ends where it would and every read view is the same; its
draws are not applied, gathered or returned.

The loss is the normalized temperature-scaled cross entropy over 2N
projections ordered pairwise: rows (2k, 2k+1) are the two views of sample
k. Cosine similarities, the positive-pair term in the numerator, every
non-self term in the denominator, log-sum-exp stabilized. It is one tape
node with a closed-form gradient. With unit rows zn = z / |z|, logits
zn zn^T / tau, the self terms masked out of the softmax and P the one-hot
partner matrix:

  G      = (softmax(masked logits) - P) / (2N tau)    gradient in zn zn^T
  dL/dzn = (G + G^T) zn
  dL/dz  = (dL/dzn - zn <dL/dzn, zn>) / |z|           row by row
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .util import init_linear, integer, real


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
    # projection head g(.)
    proj_hidden_dim: int = 64
    proj_dim: int = 64

    def __post_init__(self):
        for name in ("blur_width", "proj_hidden_dim", "proj_dim"):
            integer(getattr(self, name), name, ContrastiveError)
        for name in ("temperature", "crop_prob", "crop_fraction", "flip_prob", "jitter_prob", "jitter_scale",
                     "blur_prob", "rotate_prob", "rotate_max_angle", "noise_scale", "mask_prob"):
            real(getattr(self, name), name, ContrastiveError)
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
        for name in ("jitter_scale", "noise_scale"):
            if getattr(self, name) < 0:
                raise ContrastiveError(f"{name} must be >= 0")
        if self.blur_width < 1:
            raise ContrastiveError("blur_width must be >= 1")
        if self.proj_hidden_dim < 1 or self.proj_dim < 1:
            raise ContrastiveError("projection head dims must be >= 1")


class _LayerDraws:
    """Random parameters one image layer drew, gathered over the batch rows."""

    __slots__ = ("crop_rows", "crop_starts", "flip_rows", "jitter_rows", "jitter", "blur_rows",
                 "rotate_rows", "angles", "noise")

    def __init__(self, n: int, d: int, noise: bool):
        self.crop_rows, self.crop_starts, self.flip_rows = [], [], []
        self.jitter_rows, self.jitter = [], []  # jitter: (scale, shift) per channel, flat
        self.blur_rows, self.rotate_rows, self.angles = [], [], []
        self.noise = np.empty((n, d)) if noise else None


def _apply_image_layer(x: np.ndarray, dr: _LayerDraws, cfg: ContrastiveConfig) -> np.ndarray:
    out = np.array(x, dtype=np.float64)
    d = out.shape[1]
    if dr.crop_rows:
        span = int(round(cfg.crop_fraction * d))
        starts = np.array(dr.crop_starts)[:, None]
        cols = np.arange(d)
        hit = (cols >= starts) & (cols < starts + span)
        out[dr.crop_rows] = np.where(hit, 0.0, out[dr.crop_rows])
    if dr.flip_rows:
        out[dr.flip_rows, 1::2] *= -1.0
    if dr.jitter_rows:
        # contiguous channels sized as np.array_split(range(d), k) sizes them
        k = min(4, d)
        channel = np.repeat(np.arange(k), [d // k + (c < d % k) for c in range(k)])
        ab = np.array(dr.jitter).reshape(len(dr.jitter_rows), k, 2)[:, channel]
        out[dr.jitter_rows] = out[dr.jitter_rows] * ab[..., 0] + ab[..., 1]
    if dr.blur_rows:
        kernel = np.full(cfg.blur_width, 1.0 / cfg.blur_width)
        for r in dr.blur_rows:
            out[r] = np.convolve(out[r], kernel, mode="same")
    if dr.rotate_rows:
        theta = np.array(dr.angles)[:, None]
        c, s = np.cos(theta), np.sin(theta)
        pairs = slice(0, 2 * (d // 2), 2), slice(1, 2 * (d // 2), 2)
        even, odd = out[dr.rotate_rows, pairs[0]], out[dr.rotate_rows, pairs[1]]
        out[dr.rotate_rows, pairs[0]] = c * even - s * odd
        out[dr.rotate_rows, pairs[1]] = s * even + c * odd
    if dr.noise is not None:
        # rng.normal(0, s, d) is 0.0 + s * z element by element
        noise = np.multiply(dr.noise, cfg.noise_scale, out=dr.noise)
        noise += 0.0
        out += noise
    return out


def augment_views(image: list, text: list, seq_len: int, cfg: ContrastiveConfig, rng: np.random.Generator):
    """One augmented view of every row of a batch: (image views, mask, text views).

    ``image`` and ``text`` hold one ``(n, d)`` matrix per layer; an image
    layer the caller does not read may be given as its width ``d`` instead,
    and its view is None (see the module docstring). ``mask`` is the
    ``(n, seq_len)`` boolean matrix of masked text positions. Row r of
    every output is the view row r gets when the rows are augmented one by
    one in row order. Inputs are never written to.
    """
    if seq_len < 1:
        raise ContrastiveError(f"text view requires seq_len >= 1, got {seq_len}")
    read = [x for x in image if not isinstance(x, numbers.Integral)] + list(text)
    if not read:
        raise ContrastiveError("a batch needs at least one matrix to augment")
    dims = [int(x) if isinstance(x, numbers.Integral) else x.shape[1] for x in image]
    if min(dims + [f.shape[1] for f in text]) < 1:
        raise ContrastiveError("empty feature vector")
    n = read[0].shape[0]
    if any(f.shape[0] != n for f in read):
        raise ContrastiveError(f"every image and text matrix must hold the batch's {n} rows")
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random() and rng.normal(0, s)
    # is 0.0 + s * rng.standard_normal(): the same draws, without the per-call
    # argument handling
    s = cfg.jitter_scale
    scale_lo, scale_range = 1.0 - s, (1.0 + s) - (1.0 - s)
    angle_lo, angle_range = -cfg.rotate_max_angle, cfg.rotate_max_angle - -cfg.rotate_max_angle
    noise = cfg.noise_scale > 0
    layers = []
    for d in dims:
        span = int(round(cfg.crop_fraction * d))
        blur = 1 < cfg.blur_width <= d
        layers.append((_LayerDraws(n, d, noise), d, span, d - span + 1, min(4, d), blur))
    uniform, normal, integers = rng.random, rng.standard_normal, rng.integers
    mask_draws = np.empty((n, seq_len))
    # draw pass: row by row, every parameter in the order a single row draws it
    for r in range(n):
        for dr, d, span, crop_end, channels, blur in layers:
            # gates are drawn unconditionally so the rng stream does not
            # depend on the config, only on the draw order
            if uniform() < cfg.crop_prob and span > 0:
                dr.crop_rows.append(r)
                dr.crop_starts.append(int(integers(0, crop_end)))
            if uniform() < cfg.flip_prob:
                dr.flip_rows.append(r)
            if uniform() < cfg.jitter_prob:
                dr.jitter_rows.append(r)
                for _ in range(channels):
                    dr.jitter.append(scale_lo + scale_range * uniform())
                    dr.jitter.append(0.0 + s * normal())
            if uniform() < cfg.blur_prob and blur:
                dr.blur_rows.append(r)
            if uniform() < cfg.rotate_prob and d >= 2:
                dr.rotate_rows.append(r)
                dr.angles.append(angle_lo + angle_range * uniform())
            if noise:
                normal(out=dr.noise[r])
        uniform(out=mask_draws[r])
    # apply pass: each op once over all the rows that drew it; the draws of
    # an unread layer are dropped
    image_view = [
        None if isinstance(x, numbers.Integral) else _apply_image_layer(x, dr, cfg)
        for x, (dr, *_) in zip(image, layers)
    ]
    mask = mask_draws < cfg.mask_prob
    keep = ~mask
    text_view = [np.asarray(f, dtype=np.float64) * keep[:, np.arange(f.shape[1]) % seq_len] for f in text]
    return image_view, mask, text_view


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
        return init_linear(rng, self.weight_shapes())

    def forward(self, weights: dict, h: Tensor) -> Tensor:
        if h.data.ndim != 2 or h.shape[1] != self.in_dim:
            raise ContrastiveError(f"projection head expects batch x {self.in_dim}, got {h.shape}")
        z1 = ad.relu(ad.linear(h, weights["head/W1"], weights["head/b1"]))
        return ad.linear(z1, weights["head/W2"], weights["head/b2"])


def ntxent_loss(z: Tensor, temperature: float) -> Tensor:
    """Mean over all 2N rows of -log softmax(positive | non-self rows), one tape node.

    Rows must be ordered (view_a of sample 0, view_b of sample 0, view_a of
    sample 1, ...). Differentiable through z; the gradient is the closed form
    given in the module docstring.
    """
    if temperature <= 0:
        raise ContrastiveError("temperature must be > 0")
    if z.data.ndim != 2:
        raise ContrastiveError(f"expected 2-D projections, got shape {z.shape}")
    rows = z.shape[0]
    if rows < 2 or rows % 2 != 0:
        raise ContrastiveError(f"need an even number >= 2 of projection rows, got {rows}")
    norms = np.sqrt(np.sum(z.data * z.data, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise ContrastiveError("zero-norm projection row: cosine similarity undefined")
    if not np.all(np.isfinite(norms)):
        raise ad.NonFiniteError("ntxent: non-finite projection row norm")

    zn = z.data / norms
    c = 1.0 / temperature
    # a contiguous copy of the transpose keeps the general matrix product:
    # numpy sends zn @ zn.T to a symmetric kernel that rounds differently
    logits = (zn @ zn.T.copy()) * c
    masked = logits + np.diag(np.full(rows, -1e9))
    row_max = np.max(masked, axis=1, keepdims=True)
    e = np.exp(masked - row_max)
    sum_e = np.sum(e, axis=1, keepdims=True)
    i = np.arange(rows)
    partner = i ^ 1
    value = np.mean((np.log(sum_e) + row_max) - logits[i, partner][:, None])

    def backward(g):
        d_logits = e / sum_e
        d_logits[i, partner] -= 1.0
        d_sims = d_logits * (g * c / rows)
        d_zn = (d_sims + d_sims.T) @ zn
        return ((d_zn - zn * np.sum(d_zn * zn, axis=1, keepdims=True)) / norms,)

    return ad.fused("ntxent", [z], value, backward)
