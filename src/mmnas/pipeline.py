"""Three-stage training pipeline on top of a frozen-feature dataset.

Stage 1 searches the fusion architecture with the contrastive objective,
stage 2 pretrains the derived network with the same objective, stage 3
drops the projection head, adds a linear classification layer and fits it
on the scarce labeled split (encoder frozen by default). Evaluation
reports the support-weighted F1 over the held-out test split.

Each stage function reads its settings from its validated config section:
``run_search`` from a ``SearchConfig``, ``pretrain`` and ``fit_classifier``
from the run's ``PipelineConfig``. So every pretraining and fitting
setting has one default and one check, both in ``PipelineConfig``.

``run_pipeline`` is the only code that runs the stages: every CLI command
that trains (search, pretrain, fit, run-all, sweep-r) calls it, stopping
after its last stage and starting from the artifacts it is given. Each
stage it runs gives one plain row, ``{stage, metrics, genotype_hash,
duration_s}``; provenance is stamped by the caller's ``report`` (the CLI
adds the config hash, build id and seed to every row). Both training
stages here run each epoch through ``bilevel.train_epoch``, as the search
does; each keeps its own seeded draws, batches and ``best_so_far`` rule,
and a failed loss or optimizer step raises ``PipelineError`` naming the
stage, epoch and batch. That error is a stage's one signal of a non-finite
value: batches and ``encode_dataset`` run with numpy's overflow warnings
off, and no stage warns (each pretraining epoch's loss is a report row).

Pretraining takes the augmented view batches of all its epochs from one
``bilevel.view_stream``: when the process may use two or more CPUs, a
forked worker and this process compute them between them, a section (an
epoch) at a time, and they are computed inline otherwise, with identical
results. A batch holds views of only the sources the derived encoder reads
(``DerivedFusionEncoder.sources``); the other image layers are drawn and
dropped, so the views are those of a batch of every source.

The classifier's loss is per-label sigmoid binary cross entropy (the
benchmark is multilabel), and it predicts a label where its logit is >= 0,
that is, where the label's probability is >= 0.5. ``score`` alone turns
those predictions into the weighted F1, for the fit stage and ``eval``.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .bilevel import SearchConfig, contrastive_batch_loss, run_search, train_epoch, view_stream
from .checkpoint import save_weights
from .contrastive import ContrastiveConfig, ProjectionHead
from .data import Dataset, SplitSet, split
from .optim import Adam, MomentumSGD
from .searchspace import Genotype, SearchSpaceConfig, instantiate
from .util import (
    TAG_CLASSIFIER_EPOCH,
    TAG_CLASSIFIER_INIT,
    TAG_PRETRAIN_EPOCH,
    TAG_PRETRAIN_INIT,
    atomic_open,
    flat_views,
    integer,
    real,
    seeded_rng,
)

class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    labeled_ratio: float = 0.05
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
        for name in ("pretrain_epochs", "pretrain_batch_size", "clf_epochs", "clf_batch_size"):
            integer(getattr(self, name), name)
        for name in ("labeled_ratio", "pretrain_lr", "pretrain_momentum", "clf_lr"):
            real(getattr(self, name), name)
        if not isinstance(self.freeze_encoder, bool):
            raise ValueError(f"freeze_encoder must be true or false, got {self.freeze_encoder!r}")
        if not 0.0 < self.labeled_ratio <= 1.0:
            raise ValueError("labeled_ratio must lie in (0, 1]")
        if self.pretrain_epochs < 0 or self.clf_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.pretrain_lr < 0 or self.clf_lr < 0:
            raise ValueError("learning rates must be >= 0")
        if self.pretrain_batch_size < 2 or self.clf_batch_size < 1:
            raise ValueError("pretrain batches need >= 2 samples, classifier batches >= 1")
        if self.classifier_loss != "bce":  # the benchmark reads the field; ROADMAP item 10 removes it
            raise ValueError("classifier_loss must be 'bce'")


def _error(stage: str, epoch: int):
    """The ``train_epoch`` error factory of a pipeline stage's epoch."""
    return lambda failure, at: PipelineError(f"{stage}: {failure} at epoch {epoch} {at}")


# ---------------------------------------------------------------------------
# stage 2: contrastive pretraining of the derived network
# ---------------------------------------------------------------------------

def pretrain(
    genotype: Genotype, space: SearchSpaceConfig, ccfg: ContrastiveConfig, pcfg: PipelineConfig, train: Dataset,
    seed: int, report=None,
) -> dict:
    """Train w of the instantiated network plus projection head; returns weights."""
    encoder = instantiate(genotype, space)
    head = ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim)
    rng = seeded_rng(seed, TAG_PRETRAIN_INIT)
    weights = encoder.init_weights(rng)
    weights.update(head.init_weights(rng))
    if pcfg.pretrain_epochs == 0:
        return weights
    if len(train) < 2:
        raise PipelineError(f"pretraining split too small for one batch: {len(train)} samples")
    flat, weights = flat_views(weights)
    opt = MomentumSGD(pcfg.pretrain_lr, pcfg.pretrain_momentum)
    epoch_losses = []

    def best(mean_loss):
        epoch_losses.append(mean_loss)
        return min(epoch_losses)

    def batch_loss(bi, feats, leaves):
        return contrastive_batch_loss(encoder, head, leaves, None, feats, ccfg.temperature)

    # each epoch's rng shuffles its batches, then augments them
    rngs = [seeded_rng(seed, TAG_PRETRAIN_EPOCH, epoch) for epoch in range(pcfg.pretrain_epochs)]
    with view_stream([(train, rng, rng) for rng in rngs], pcfg.pretrain_batch_size, ccfg, encoder.sources) as views:
        for epoch, batches in enumerate(views, 1):
            train_epoch(batches, batch_loss, (weights, flat), opt, _error("pretrain", epoch),
                        epoch=epoch, phase="pretrain", lr=pcfg.pretrain_lr, best=best, report=report)
    return weights


# ---------------------------------------------------------------------------
# stage 3: classifier fitting and evaluation
# ---------------------------------------------------------------------------

def bce_with_logits(logits, targets: np.ndarray):
    """Mean per-label sigmoid cross entropy, stable in both logit tails, one tape node.

    The value is mean(softplus(x) - x t), softplus(x) = relu(x) + log(1 +
    exp(-|x|)); the gradient is (sigmoid(x) - t) / x.size, with sigmoid(x)
    taken from the same exp(-|x|), so neither tail overflows.
    """
    x = logits.data
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != x.shape:
        raise PipelineError(f"bce_with_logits: targets of shape {t.shape} for logits of shape {x.shape}")
    e = np.exp(-np.abs(x))
    value = np.mean(x * (x > 0.0) + np.log(e + 1.0) - x * t)

    def backward(g):
        return ((np.where(x >= 0.0, 1.0, e) / (1.0 + e) - t) * (g / x.size),)

    return ad.fused("bce", [logits], value, backward)


def encode_dataset(encoder, weights: dict, ds: Dataset) -> np.ndarray:
    """Frozen-encoder embedding of every sample, one forward pass; an overflow
    raises the ``NonFiniteError`` of the node it reaches, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return encoder.forward(weights, ds.features).data


def fit_classifier(
    encoder, encoder_weights: dict, labeled: Dataset, pcfg: PipelineConfig, seed: int, report=None
) -> dict:
    """Fit the linear classification layer on labeled data.

    Returns the full model weight dict (encoder entries plus clf/W, clf/b).
    With ``pcfg.freeze_encoder`` the encoder arrays are reused untouched;
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
    clf = {"clf/W": rng.standard_normal((hidden, num_labels)) / np.sqrt(hidden), "clf/b": np.zeros(num_labels)}
    # the trainables are views of one vector, copied from the encoder's arrays when fine-tuned
    flat, trainable = flat_views(clf if pcfg.freeze_encoder else {**encoder_weights, **clf})
    model = {**encoder_weights, **trainable}
    opt = Adam(pcfg.clf_lr)
    h_frozen = None
    if pcfg.freeze_encoder:
        try:
            h_frozen = encode_dataset(encoder, model, labeled)
        except ad.NonFiniteError as e:
            raise PipelineError(f"fit: non-finite frozen encoding: {e}") from e

    def batch_loss(bi, idx, leaves):
        if pcfg.freeze_encoder:
            h = ad.constant(h_frozen[idx])
        else:
            h = encoder.forward(leaves, {src: x[idx] for src, x in labeled.features.items()})
        return bce_with_logits(ad.linear(h, leaves["clf/W"], leaves["clf/b"]), targets[idx])

    for epoch in range(pcfg.clf_epochs):
        order = seeded_rng(seed, TAG_CLASSIFIER_EPOCH, epoch).permutation(len(labeled))
        chunks = [order[i : i + pcfg.clf_batch_size] for i in range(0, len(order), pcfg.clf_batch_size)]
        train_epoch(chunks, batch_loss, (trainable, flat), opt, _error("fit", epoch + 1),
                    epoch=epoch + 1, phase="fit", lr=pcfg.clf_lr, report=report)
    return model


def predict_bits(encoder, model: dict, ds: Dataset, classifier_loss: str = "bce") -> np.ndarray:
    """Hard multilabel predictions: 1 where the logit is >= 0 (probability >= 0.5).

    classifier_loss: ignored; the benchmark passes it, and ROADMAP item 10 removes it.
    """
    h = encode_dataset(encoder, model, ds)
    with np.errstate(over="ignore", invalid="ignore"):
        return (ad.linear(h, model["clf/W"], model["clf/b"]).data >= 0.0).astype(np.uint8)


def score(encoder, model: dict, test: Dataset) -> float:
    """Weighted F1 of a fitted model on ``test``; a non-finite encoding or logit is a ``PipelineError``."""
    try:
        bits = predict_bits(encoder, model, test)
    except ad.NonFiniteError as e:
        raise PipelineError(f"score: non-finite test-set prediction: {e}") from e
    return weighted_f1(bits, test.labels_matrix())


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
    report=None,
    last_stage: str = "fit",
):
    """Run the stages in order up to ``last_stage`` ("search", "pretrain" or "fit").

    A supplied ``genotype`` skips the search and supplied ``pretrained``
    weights skip pretraining; ``pcfg.pretrain_epochs=0`` pretrains to the
    initialization, the random-encoder baseline. Every stage that runs
    appends a row ``{stage, metrics, genotype_hash, duration_s}`` (also
    passed to ``report``, which stamps any provenance) and, when
    ``out_dir`` is given, writes its artifact there: ``genotype.json``,
    ``encoder.mmnw``, ``model.mmnw``. Returns (rows, artifacts);
    artifacts hold the genotype and, as their stages are reached, the
    encoder weights, the fitted model and the test weighted F1 (absent
    when the test split is empty).
    """
    stages = ("search", "pretrain", "fit")
    if last_stage not in stages:
        raise PipelineError(f"last_stage must be one of {stages}, got {last_stage!r}")
    reports: list[dict] = []
    splits: SplitSet = split(dataset, pcfg.labeled_ratio, seed)
    out = pathlib.Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def record(stage, metrics, t0):
        row = {"stage": stage, "metrics": metrics, "genotype_hash": genotype.hash(),
               "duration_s": round(time.perf_counter() - t0, 6)}
        reports.append(row)
        if report is not None:
            report(row)

    if genotype is None:
        if len(splits.search_train) == 0 or len(splits.search_valid) == 0:
            raise PipelineError(
                "architecture search needs unlabeled samples, but the unlabeled pool is empty "
                f"(labeled_ratio={pcfg.labeled_ratio})"
            )
        t0 = time.perf_counter()
        scfg = replace(scfg, seed=seed)
        genotype, state = run_search(scfg, space, ccfg, splits.search_train, splits.search_valid, report=report)
        record("search", {"best_valid_loss": state.best_valid_loss, "epochs": state.epoch}, t0)
        if out is not None:
            with atomic_open(out / "genotype.json") as fh:
                fh.write(genotype.to_json() + "\n")
    artifacts = {"genotype": genotype}
    if last_stage == "search":
        return reports, artifacts

    if pretrained is None:
        t0 = time.perf_counter()
        pretrained = pretrain(genotype, space, ccfg, pcfg, splits.search_train, seed, report)
        record("pretrain", {"epochs": pcfg.pretrain_epochs}, t0)
        if out is not None:
            save_weights(out / "encoder.mmnw", pretrained)
    artifacts["encoder_weights"] = pretrained
    if last_stage == "pretrain":
        return reports, artifacts

    encoder = instantiate(genotype, space)
    t0 = time.perf_counter()
    model = fit_classifier(encoder, pretrained, splits.labeled_train, pcfg, seed, report)
    metrics = {"labeled_samples": len(splits.labeled_train)}
    if len(splits.test) > 0:
        metrics["weighted_f1"] = score(encoder, model, splits.test)
        metrics["test_samples"] = len(splits.test)
        artifacts["weighted_f1"] = metrics["weighted_f1"]
    record("fit", metrics, t0)
    if out is not None:
        save_weights(out / "model.mmnw", model)
    artifacts["model_weights"] = model
    return reports, artifacts
