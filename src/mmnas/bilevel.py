"""Alternating bilevel architecture search driven by the contrastive loss.

Each epoch runs two phases over disjoint unlabeled splits: the train phase
steps only the operator weights w (momentum SGD), the valid phase steps
only the architecture logits alpha/beta/gamma (Adam). Both phases minimize
the same two-view contrastive objective; no inner-loop unrolling, plain
first-order alternation. After the phases, a no-update evaluation pass
over the valid split scores the current architecture, and the best
(lowest) validation loss snapshots the logits. The returned genotype is
derived from that best snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, Tape
from .contrastive import ContrastiveConfig, ProjectionHead, augment_views, ntxent_loss
from .data import Dataset
from .optim import Adam, MomentumSGD
from .searchspace import (
    ArchParams,
    GenotypeError,
    MixedFusionEncoder,
    SearchSpaceConfig,
    derive_genotype,
    validate_genotype,
)
from .util import TAG_ARCH_INIT, TAG_AUGMENT, TAG_SHUFFLE, TAG_WEIGHT_INIT, seeded_rng


class SearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    max_epochs: int = 30
    batch_size: int = 16
    lr_weights: float = 0.05
    momentum: float = 0.9
    lr_arch: float = 0.03
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    arch_init_scale: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (contrastive loss needs negatives)")
        # zero rates are allowed so a run can be frozen into a no-op probe
        if self.lr_weights < 0 or self.lr_arch < 0:
            raise ValueError("learning rates must be >= 0")

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


@dataclass
class SearchState:
    arch: ArchParams
    weights: dict
    best_arch: ArchParams
    best_valid_loss: float = float("inf")
    epoch: int = 0
    history: list = field(default_factory=list)


def batch_indices(n: int, batch_size: int, rng: np.random.Generator | None = None) -> list:
    """Deterministic minibatch index chunks; singleton remainders dropped."""
    order = rng.permutation(n) if rng is not None else np.arange(n)
    chunks = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    return [c for c in chunks if len(c) >= 2]


def stack_view_features(ds: Dataset, idx, ccfg: ContrastiveConfig, rng: np.random.Generator) -> list:
    """Augment rows ``idx`` of ``ds`` twice into per-source ``(2B, d)`` matrices.

    Output rows are interleaved (view_i of row idx[0], view_j of row idx[0],
    view_i of row idx[1], ...), matching the loss's pairing convention; the
    returned list is aligned with the canonical source order (image layers
    then text layers).
    """
    rows = np.repeat(idx, 2)
    mats = [m[rows] for m in ds.features.values()]
    n_img = len(ds.image_dims)
    image, _, text = augment_views(mats[:n_img], ds.tokens[rows], mats[n_img:], ccfg, rng)
    return image + text


def _check_compatible(space: SearchSpaceConfig, ds: Dataset) -> None:
    if tuple(space.modality_names) != ("image", "text"):
        raise SearchError("dataset pipeline expects modalities ('image', 'text')")
    if space.features_per_modality != (ds.image_dims, ds.text_dims):
        raise SearchError(
            f"search space dims {space.features_per_modality} do not match dataset "
            f"dims {(ds.image_dims, ds.text_dims)}"
        )


def contrastive_batch_loss(encoder, head, weights, arch, feats, temperature):
    """Forward pass to the scalar loss; weights/arch may be leaves or arrays."""
    h = encoder.forward(weights, arch, feats) if arch is not None else encoder.forward(weights, feats)
    z = head.forward(weights, h)
    return ntxent_loss(z, temperature)


def search_epoch(
    state: SearchState,
    train: Dataset,
    valid: Dataset,
    scfg: SearchConfig,
    ccfg: ContrastiveConfig,
    encoder: MixedFusionEncoder,
    head: ProjectionHead,
    opt_w: MomentumSGD,
    opt_arch: Adam,
    report=None,
) -> list:
    """One train+valid alternation plus the checkpoint evaluation pass."""
    records = []

    def emit(rec):
        records.append(rec)
        if report is not None:
            report(rec)

    epoch = state.epoch + 1
    for phase_idx, (phase, ds) in enumerate((("train", train), ("valid", valid))):
        rng_shuffle = seeded_rng(scfg.seed, TAG_SHUFFLE, state.epoch, phase_idx)
        rng_aug = seeded_rng(scfg.seed, TAG_AUGMENT, state.epoch, phase_idx)
        batches = batch_indices(len(ds), scfg.batch_size, rng_shuffle)
        if not batches:
            raise SearchError(f"{phase} split too small for one batch (needs >= 2 samples)")
        losses = []
        t0 = time.perf_counter()
        for bi, idx in enumerate(batches):
            feats = stack_view_features(ds, idx, ccfg, rng_aug)
            tape = Tape()
            try:
                w_leaves = {k: tape.leaf(v, k) for k, v in state.weights.items()}
                a_leaves = {k: tape.leaf(v, k) for k, v in state.arch.named().items()}
                loss = contrastive_batch_loss(encoder, head, w_leaves, a_leaves, feats, ccfg.temperature)
            except NonFiniteError as e:
                raise SearchError(
                    f"non-finite loss at epoch {epoch} phase {phase} batch {bi}: {e}"
                ) from e
            grads = tape.backward(loss)
            if phase == "train":
                opt_w.step(state.weights, {k: grads.of(t) for k, t in w_leaves.items()})
            else:
                named = state.arch.named()
                opt_arch.step(named, {k: grads.of(a_leaves[k]) for k in named})
            losses.append(float(loss.data))
        emit(
            {
                "epoch": epoch,
                "phase": phase,
                "mean_loss": float(np.mean(losses)),
                "lr": scfg.lr_weights if phase == "train" else scfg.lr_arch,
                "wallclock_ms": round(1000.0 * (time.perf_counter() - t0), 3),
                "best_so_far": None if np.isinf(state.best_valid_loss) else state.best_valid_loss,
            }
        )

    # checkpoint pass: score the post-update architecture, no updates
    rng_aug = seeded_rng(scfg.seed, TAG_AUGMENT, state.epoch, 2)
    t0 = time.perf_counter()
    losses = []
    for idx in batch_indices(len(valid), scfg.batch_size):
        feats = stack_view_features(valid, idx, ccfg, rng_aug)
        loss = contrastive_batch_loss(encoder, head, state.weights, state.arch.named(), feats, ccfg.temperature)
        losses.append(float(loss.data))
    eval_loss = float(np.mean(losses))
    if eval_loss < state.best_valid_loss:
        state.best_valid_loss = eval_loss
        state.best_arch = state.arch.copy()
    emit(
        {
            "epoch": epoch,
            "phase": "eval",
            "mean_loss": eval_loss,
            "lr": 0.0,
            "wallclock_ms": round(1000.0 * (time.perf_counter() - t0), 3),
            "best_so_far": state.best_valid_loss,
        }
    )
    state.epoch = epoch
    state.history.extend(records)
    return records


def init_search_state(scfg: SearchConfig, space: SearchSpaceConfig, ccfg: ContrastiveConfig) -> SearchState:
    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim)
    rng_w = seeded_rng(scfg.seed, TAG_WEIGHT_INIT)
    weights = encoder.init_weights(rng_w)
    weights.update(head.init_weights(rng_w))
    arch = ArchParams.init(space, seeded_rng(scfg.seed, TAG_ARCH_INIT), scfg.arch_init_scale)
    return SearchState(arch=arch, weights=weights, best_arch=arch.copy())


def run_search(
    scfg: SearchConfig,
    space: SearchSpaceConfig,
    ccfg: ContrastiveConfig,
    train: Dataset,
    valid: Dataset,
    report=None,
):
    """Full search: T_e epochs, checkpointing, genotype from the best logits.

    The derived genotype is validated before it is returned; one that no
    later stage could instantiate raises ``SearchError``. Returns
    (genotype, state). Deterministic in (scfg.seed, configs, data).
    """
    if len(train) < 2 or len(valid) < 2:
        raise SearchError(
            f"unlabeled splits too small for one batch: train={len(train)}, valid={len(valid)}"
        )
    _check_compatible(space, train)
    _check_compatible(space, valid)
    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim)
    state = init_search_state(scfg, space, ccfg)
    opt_w = MomentumSGD(scfg.lr_weights, scfg.momentum)
    opt_arch = Adam(scfg.lr_arch, scfg.adam_beta1, scfg.adam_beta2, scfg.adam_eps)
    for _ in range(scfg.max_epochs):
        search_epoch(state, train, valid, scfg, ccfg, encoder, head, opt_w, opt_arch, report)
    genotype = derive_genotype(state.best_arch)
    try:
        validate_genotype(genotype, space)
    except GenotypeError as e:
        raise SearchError(f"search derived an unusable genotype: {e}") from e
    return genotype, state
