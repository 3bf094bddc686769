"""Three-stage training pipeline on top of a frozen-feature dataset.

Stage 1 searches the fusion architecture with the contrastive objective,
stage 2 pretrains the derived network with the same objective, stage 3
drops the projection head, adds a linear classification layer and fits it
on the scarce labeled split (encoder frozen by default). Evaluation
reports the support-weighted F1 over the held-out test split.

Pretraining takes the augmented view batches of all its epochs from one
``bilevel.view_stream``: a forked worker computes them ahead of training
when the process may use two or more CPUs, and they are computed inline
otherwise, with identical results.

The classification loss is per-label sigmoid binary cross entropy (the
benchmark is multilabel); a mutually exclusive softmax cross entropy mode
exists behind ``classifier_loss="softmax_ce"`` for single-label data.
Prediction threshold is fixed at 0.5.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tape
from .bilevel import (
    SearchConfig,
    batch_indices,
    contrastive_batch_loss,
    loss_failure,
    run_search,
    view_stream,
)
from .checkpoint import save_weights
from .contrastive import ContrastiveConfig, ContrastiveError, ProjectionHead
from .data import Dataset, SplitSet, split
from .optim import Adam, MomentumSGD
from .searchspace import Genotype, SearchSpaceConfig, instantiate
from .util import (
    TAG_CLASSIFIER_EPOCH,
    TAG_CLASSIFIER_INIT,
    TAG_PRETRAIN_EPOCH,
    TAG_PRETRAIN_INIT,
    seeded_rng,
)

PREDICTION_THRESHOLD = 0.5


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    labeled_ratio: float = 0.05
    stage_search: bool = True
    stage_pretrain: bool = True
    stage_fit: bool = True
    pretrain_epochs: int = 8
    pretrain_lr: float = 0.05
    pretrain_momentum: float = 0.9
    pretrain_batch_size: int = 16
    clf_epochs: int = 80
    clf_lr: float = 0.05
    clf_batch_size: int = 64
    freeze_encoder: bool = True
    classifier_loss: str = "bce"

    def __post_init__(self):
        if not 0.0 < self.labeled_ratio <= 1.0:
            raise ValueError("labeled_ratio must lie in (0, 1]")
        if self.pretrain_epochs < 0 or self.clf_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.pretrain_lr < 0 or self.clf_lr < 0:
            raise ValueError("learning rates must be >= 0")
        if self.pretrain_batch_size < 2 or self.clf_batch_size < 1:
            raise ValueError("pretrain batches need >= 2 samples, classifier batches >= 1")
        if self.classifier_loss not in ("bce", "softmax_ce"):
            raise ValueError("classifier_loss must be 'bce' or 'softmax_ce'")

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


@dataclass
class StageReport:
    stage: str
    seed: int
    metrics: dict
    genotype_hash: str | None
    duration_s: float
    config_hash: str = ""
    build_id: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "seed": self.seed,
            "metrics": self.metrics,
            "genotype_hash": self.genotype_hash,
            "duration_s": round(self.duration_s, 6),
            "config_hash": self.config_hash,
            "build_id": self.build_id,
            **({"extra": self.extra} if self.extra else {}),
        }


# ---------------------------------------------------------------------------
# stage 2: contrastive pretraining of the derived network
# ---------------------------------------------------------------------------

def pretrain(
    genotype: Genotype,
    space: SearchSpaceConfig,
    ccfg: ContrastiveConfig,
    train: Dataset,
    *,
    epochs: int,
    lr: float,
    momentum: float = 0.9,
    batch_size: int = 16,
    seed: int = 0,
    report=None,
) -> dict:
    """Train w of the instantiated network plus projection head; returns weights."""
    encoder = instantiate(genotype, space)
    head = ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim)
    rng = seeded_rng(seed, TAG_PRETRAIN_INIT)
    weights = encoder.init_weights(rng)
    weights.update(head.init_weights(rng))
    if epochs == 0:
        return weights
    if len(train) < 2:
        raise PipelineError(f"pretraining split too small for one batch: {len(train)} samples")
    opt = MomentumSGD(lr, momentum)
    epoch_losses = []
    # each epoch's rng shuffles its batches, then augments them
    rngs = [seeded_rng(seed, TAG_PRETRAIN_EPOCH, epoch) for epoch in range(epochs)]
    n_batches = len(batch_indices(len(train), batch_size))  # the same for every shuffle
    with view_stream([(train, rng, rng) for rng in rngs], batch_size, ccfg) as views:
        for epoch in range(epochs):
            losses = []
            t0 = time.perf_counter()
            for bi, feats in enumerate(itertools.islice(views, n_batches)):
                tape = Tape()
                try:
                    leaves = {k: tape.leaf(v, k) for k, v in weights.items()}
                    loss = contrastive_batch_loss(encoder, head, leaves, None, feats, ccfg.temperature)
                except (NonFiniteError, ContrastiveError) as e:
                    raise PipelineError(
                        f"pretrain: {loss_failure(e)} at epoch {epoch + 1} batch {bi}: {e}"
                    ) from e
                grads = tape.backward(loss)
                opt.step(weights, {k: grads.of(t) for k, t in leaves.items()})
                losses.append(float(loss.data))
            epoch_losses.append(float(np.mean(losses)))
            if report is not None:
                report(
                    {
                        "epoch": epoch + 1,
                        "phase": "pretrain",
                        "mean_loss": epoch_losses[-1],
                        "lr": lr,
                        "wallclock_ms": round(1000.0 * (time.perf_counter() - t0), 3),
                        "best_so_far": min(epoch_losses),
                    }
                )
    if len(epoch_losses) > 1 and epoch_losses[-1] >= epoch_losses[0]:
        warnings.warn(
            f"contrastive pretraining loss did not decrease "
            f"({epoch_losses[0]:.4f} -> {epoch_losses[-1]:.4f})",
            RuntimeWarning,
            stacklevel=2,
        )
    return weights


# ---------------------------------------------------------------------------
# stage 3: classifier fitting and evaluation
# ---------------------------------------------------------------------------

def _softplus(x):
    absx = ad.add(ad.relu(x), ad.relu(ad.neg(x)))
    return ad.add(ad.relu(x), ad.log(ad.add(ad.exp(ad.neg(absx)), 1.0)))


def bce_with_logits(logits, targets: np.ndarray):
    """Mean per-label sigmoid cross entropy, stable in both logit tails."""
    return ad.mean(ad.sub(_softplus(logits), ad.mul(logits, ad.constant(targets))))


def softmax_cross_entropy(logits, targets: np.ndarray):
    """Mean row-wise cross entropy; targets must be one-hot rows."""
    m = np.max(logits.data, axis=1, keepdims=True)
    lse = ad.add(
        ad.log(ad.tsum(ad.exp(ad.sub(logits, ad.constant(m))), axis=1, keepdims=True)),
        ad.constant(m),
    )
    picked = ad.tsum(ad.mul(logits, ad.constant(targets)), axis=1, keepdims=True)
    return ad.mean(ad.sub(lse, picked))


def encode_dataset(encoder, weights: dict, ds: Dataset) -> np.ndarray:
    """Frozen-encoder embedding of every sample, one forward pass."""
    return encoder.forward(weights, ds.features).data


def fit_classifier(
    encoder,
    encoder_weights: dict,
    labeled: Dataset,
    *,
    epochs: int,
    lr: float,
    batch_size: int = 64,
    seed: int = 0,
    freeze_encoder: bool = True,
    classifier_loss: str = "bce",
    report=None,
) -> dict:
    """Fit the linear classification layer on labeled data.

    Returns the full model weight dict (encoder entries plus clf/W, clf/b).
    With ``freeze_encoder`` the encoder arrays are reused untouched;
    otherwise they are copied and fine-tuned alongside the classifier.
    """
    if len(labeled) == 0:
        raise PipelineError("labeled split is empty")
    if not labeled.labeled:
        raise PipelineError("classifier fitting needs labels on every sample")
    targets = labeled.labels_matrix()
    num_labels = targets.shape[1]
    hidden = encoder.config.hidden_dim
    rng = seeded_rng(seed, TAG_CLASSIFIER_INIT)
    model = dict(encoder_weights) if freeze_encoder else {k: v.copy() for k, v in encoder_weights.items()}
    model["clf/W"] = rng.standard_normal((hidden, num_labels)) / np.sqrt(hidden)
    model["clf/b"] = np.zeros(num_labels)
    loss_fn = bce_with_logits if classifier_loss == "bce" else softmax_cross_entropy
    opt = Adam(lr)
    h_frozen = encode_dataset(encoder, model, labeled) if freeze_encoder else None

    for epoch in range(epochs):
        rng_ep = seeded_rng(seed, TAG_CLASSIFIER_EPOCH, epoch)
        order = rng_ep.permutation(len(labeled))
        chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
        losses = []
        t0 = time.perf_counter()
        for idx in chunks:
            tape = Tape()
            if freeze_encoder:
                trainable = {k: model[k] for k in ("clf/W", "clf/b")}
                leaves = {k: tape.leaf(v, k) for k, v in trainable.items()}
                h = ad.constant(h_frozen[idx])
            else:
                trainable = model
                leaves = {k: tape.leaf(v, k) for k, v in trainable.items()}
                h = encoder.forward(leaves, {src: x[idx] for src, x in labeled.features.items()})
            logits = ad.add(ad.matmul(h, leaves["clf/W"]), leaves["clf/b"])
            loss = loss_fn(logits, targets[idx])
            grads = tape.backward(loss)
            opt.step(trainable, {k: grads.of(t) for k, t in leaves.items()})
            losses.append(float(loss.data))
        if report is not None:
            report(
                {
                    "epoch": epoch + 1,
                    "phase": "fit",
                    "mean_loss": float(np.mean(losses)),
                    "lr": lr,
                    "wallclock_ms": round(1000.0 * (time.perf_counter() - t0), 3),
                    "best_so_far": None,
                }
            )
    return model


def predict_bits(encoder, model: dict, ds: Dataset, classifier_loss: str = "bce") -> np.ndarray:
    """Hard multilabel predictions: sigmoid >= 0.5, or argmax one-hot."""
    h = encode_dataset(encoder, model, ds)
    logits = h @ model["clf/W"] + model["clf/b"]
    if classifier_loss == "softmax_ce":
        bits = np.zeros_like(logits, dtype=np.uint8)
        bits[np.arange(len(logits)), logits.argmax(axis=1)] = 1
        return bits
    probs = 1.0 / (1.0 + np.exp(-logits))
    return (probs >= PREDICTION_THRESHOLD).astype(np.uint8)


def weighted_f1(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Per-label F1 averaged with support-proportional weights.

    Support is the count of true positives available per label (the number
    of samples truly carrying it); zero-support labels are excluded from
    the weight mass. Precision/recall/F1 degrade to 0 when their
    denominators vanish. Returns 0.0 when no label has support.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.size == 0 or truth.size == 0:
        raise PipelineError("weighted_f1 needs non-empty predictions and truth")
    if predictions.shape != truth.shape or predictions.ndim != 2:
        raise PipelineError(f"shape mismatch: {predictions.shape} vs {truth.shape}")
    pred = predictions.astype(bool)
    true = truth.astype(bool)
    tp = np.sum(pred & true, axis=0).astype(np.float64)
    fp = np.sum(pred & ~true, axis=0).astype(np.float64)
    fn = np.sum(~pred & true, axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    support = np.sum(true, axis=0).astype(np.float64)
    mass = support.sum()
    if mass == 0:
        return 0.0
    return float(np.sum(f1 * support) / mass)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_pipeline(
    dataset: Dataset,
    space: SearchSpaceConfig,
    scfg: SearchConfig,
    ccfg: ContrastiveConfig,
    pcfg: PipelineConfig,
    seed: int,
    out_dir=None,
    genotype: Genotype | None = None,
    pretrained: dict | None = None,
    config_hash: str = "",
    build_id: str = "",
    report=None,
):
    """Run stages 1..3 (any prefix replaced by supplied artifacts).

    Returns (reports, artifacts). Artifacts hold the genotype, encoder
    weights, fitted model and the test weighted F1. When ``out_dir`` is
    given, genotype JSON and MMNW checkpoints are written there.
    """
    import pathlib

    reports: list[StageReport] = []
    splits: SplitSet = split(dataset, pcfg.labeled_ratio, seed)
    out = pathlib.Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def stamp(stage, metrics, genotype_hash, t0, extra=None):
        rep = StageReport(
            stage=stage,
            seed=seed,
            metrics=metrics,
            genotype_hash=genotype_hash,
            duration_s=time.perf_counter() - t0,
            config_hash=config_hash,
            build_id=build_id,
            extra=extra or {},
        )
        reports.append(rep)
        if report is not None:
            report(rep.to_dict())
        return rep

    scfg = SearchConfig(**{**scfg.to_dict(), "seed": seed})

    if pcfg.stage_search and genotype is None:
        if len(splits.search_train) == 0 or len(splits.search_valid) == 0:
            raise PipelineError(
                "architecture search needs unlabeled samples, but the unlabeled pool is empty "
                f"(labeled_ratio={pcfg.labeled_ratio})"
            )
        t0 = time.perf_counter()
        genotype, state = run_search(scfg, space, ccfg, splits.search_train, splits.search_valid, report=report)
        stamp(
            "search",
            {"best_valid_loss": state.best_valid_loss, "epochs": state.epoch},
            genotype.hash(),
            t0,
        )
        if out is not None:
            (out / "genotype.json").write_text(genotype.to_json() + "\n")
    elif genotype is None:
        raise PipelineError("search stage disabled and no genotype supplied")

    encoder = instantiate(genotype, space)

    if pcfg.stage_pretrain and pretrained is None:
        if len(splits.search_train) == 0:
            raise PipelineError("pretraining needs unlabeled samples (labeled_ratio leaves none)")
        t0 = time.perf_counter()
        pretrained = pretrain(
            genotype,
            space,
            ccfg,
            splits.search_train,
            epochs=pcfg.pretrain_epochs,
            lr=pcfg.pretrain_lr,
            momentum=pcfg.pretrain_momentum,
            batch_size=pcfg.pretrain_batch_size,
            seed=seed,
            report=report,
        )
        stamp("pretrain", {"epochs": pcfg.pretrain_epochs}, genotype.hash(), t0)
        if out is not None:
            save_weights(out / "encoder.mmnw", pretrained)
    elif pretrained is None:
        # sanctioned baseline: stage 2 skipped without weights = random encoder
        rng = seeded_rng(seed, TAG_PRETRAIN_INIT)
        head = ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim)
        pretrained = encoder.init_weights(rng)
        pretrained.update(head.init_weights(rng))

    artifacts = {"genotype": genotype, "encoder_weights": pretrained}

    if pcfg.stage_fit:
        if len(splits.labeled_train) == 0:
            raise PipelineError("classifier fitting needs a non-empty labeled split")
        t0 = time.perf_counter()
        model = fit_classifier(
            encoder,
            pretrained,
            splits.labeled_train,
            epochs=pcfg.clf_epochs,
            lr=pcfg.clf_lr,
            batch_size=pcfg.clf_batch_size,
            seed=seed,
            freeze_encoder=pcfg.freeze_encoder,
            classifier_loss=pcfg.classifier_loss,
            report=report,
        )
        metrics = {"labeled_samples": len(splits.labeled_train)}
        if len(splits.test) > 0:
            preds = predict_bits(encoder, model, splits.test, pcfg.classifier_loss)
            metrics["weighted_f1"] = weighted_f1(preds, splits.test.labels_matrix())
            metrics["test_samples"] = len(splits.test)
            artifacts["weighted_f1"] = metrics["weighted_f1"]
        stamp("fit", metrics, genotype.hash(), t0)
        if out is not None:
            save_weights(out / "model.mmnw", model)
        artifacts["model_weights"] = model

    return reports, artifacts
