"""Alternating bilevel architecture search driven by the contrastive loss.

Each epoch runs two phases over disjoint unlabeled splits: the train phase
steps only the operator weights w (momentum SGD), the valid phase steps
only the architecture logits alpha/beta/gamma (Adam). Both phases minimize
the same two-view contrastive objective; no inner-loop unrolling, plain
first-order alternation. The train phase differentiates only w, the
valid phase only the logits: a phase puts the views of the one vector it
steps (``SearchState.flat_weights`` or ``ArchParams.flat``) on the tape
with ``Tape.leaves`` and reads the other set as plain arrays, so no
backward pass computes a gradient that is then thrown away. After the
phases, a no-update evaluation pass over the valid split scores the
current architecture, and the best (lowest) validation loss snapshots the
logits. The returned genotype is derived from that best snapshot.

Augmentation reads no model state, so each epoch's augmented view
batches (train, then valid, then the evaluation pass) come from one
``view_stream``. When the process may use two or more CPUs, the ``fork``
start method exists and the process is not itself a daemonic
multiprocessing worker, a forked worker computes them ahead of training
and sends them over a pipe; the pipe's buffer holds only a few batches,
so a full pipe blocks the worker. Otherwise the same batches are computed
inline. The batches, and so every result, are identical either way.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, Tape
from .contrastive import ContrastiveConfig, ContrastiveError, ProjectionHead, augment_views, ntxent_loss
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
from .util import TAG_ARCH_INIT, TAG_AUGMENT, TAG_SHUFFLE, TAG_WEIGHT_INIT, flat_views, seeded_rng


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
    """Search progress. ``weights`` are copied into one owned vector,
    ``flat_weights``, and the dict then holds views of it (``util.flat_views``)."""

    arch: ArchParams
    weights: dict
    best_arch: ArchParams
    best_valid_loss: float = float("inf")
    epoch: int = 0
    history: list = field(default_factory=list)
    flat_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat_weights, self.weights = flat_views(self.weights)


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
    image, _, text = augment_views(mats[:n_img], mats[n_img:], ds.text_len, ccfg, rng)
    return image + text


def _view_batches(sections, batch_size: int, ccfg: ContrastiveConfig):
    """Two-view features of every batch of every section, in training order.

    A section is ``(ds, shuffle_rng, augment_rng)``: its batches are
    ``batch_indices(len(ds), batch_size, shuffle_rng)``, each augmented by
    ``stack_view_features`` with ``augment_rng``. The two may be one rng.
    """
    for ds, shuffle_rng, augment_rng in sections:
        for idx in batch_indices(len(ds), batch_size, shuffle_rng):
            yield stack_view_features(ds, idx, ccfg, augment_rng)


class _RemoteTraceback(Exception):
    """The worker-side traceback of an error, attached as its ``__cause__``."""

    def __str__(self) -> str:
        return self.args[0]


def _sendable(e: Exception) -> Exception:
    """``e`` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(e))
    except Exception:
        return RuntimeError(f"augmentation worker raised an error that cannot be sent: {e!r}")
    return e


def _serve(batches, reader, conn) -> None:
    """Worker body: send each batch, then None; an error and its traceback in its place."""
    # the parent must be the pipe's only reader, so that a parent that dies
    # without ending this worker turns its next write into a BrokenPipeError
    reader.close()
    gc.freeze()  # never collect (so never copy) the objects inherited from the parent
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and ends this worker
    with contextlib.suppress(BrokenPipeError):  # the parent stopped reading
        try:
            for feats in batches:
                conn.send(feats)
        except Exception as e:
            conn.send((_sendable(e), traceback.format_exc()))
        else:
            conn.send(None)


def _received(conn, worker):
    """Reader side of the pipe: yield each batch (a list), raise the worker's error (a tuple)."""
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(
                f"augmentation worker exited with code {worker.exitcode} before its last batch"
            ) from None
        if msg is None:
            return
        if isinstance(msg, tuple):
            error, tb = msg
            raise error from _RemoteTraceback(tb)
        yield msg


def _worker_allowed() -> bool:
    """Two or more usable CPUs, the fork start method, and a process that may fork one.

    Usable, not free: a worker without a CPU of its own slows the stage
    down (README, "Determinism").
    """
    return (
        hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon  # multiprocessing forbids it
    )


@contextlib.contextmanager
def view_stream(sections, batch_size: int, ccfg: ContrastiveConfig):
    """Iterator over the two-view features of every batch of ``sections``.

    Sections are as in ``_view_batches``. Where ``_worker_allowed``, a
    forked worker computes the batches and sends them over a pipe, at most
    a few batches ahead of the reader (a full pipe blocks it); it makes no
    BLAS call. Otherwise each batch is computed inline when asked for.
    Both give the same bytes in the same order. An error raised while
    computing a batch is raised by the iterator at that batch, with its
    type and message; from the worker it comes with the worker's traceback
    as its ``__cause__`` (one that cannot be pickled arrives as a
    ``RuntimeError`` naming it). Leaving the block ends the worker, and a
    worker whose parent dies ends at its next write to the pipe.
    """
    batches = _view_batches(sections, batch_size, ccfg)
    if not _worker_allowed():
        with contextlib.closing(batches):
            yield batches
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_serve, args=(batches, conn, child_conn), name="mmnas-views", daemon=True)
    worker.start()
    child_conn.close()
    try:
        yield _received(conn, worker)
    finally:
        conn.close()
        worker.terminate()  # a no-op once the worker has sent its last batch and exited
        worker.join()
        worker.close()


def loss_failure(e: Exception) -> str:
    """How a batch's forward pass failed, for the stage error that wraps ``e``."""
    return "non-finite loss" if isinstance(e, NonFiniteError) else "contrastive loss failed"


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
    arch = state.arch.named()
    w_set, a_set = (state.weights, state.flat_weights), (arch, state.arch.flat)
    # (phase, split, the set it differentiates and steps, the set it reads as plain arrays)
    phases = (("train", train, w_set, a_set, opt_w), ("valid", valid, a_set, w_set, opt_arch))
    sections = [
        (ds, *(seeded_rng(scfg.seed, tag, state.epoch, i) for tag in (TAG_SHUFFLE, TAG_AUGMENT)))
        for i, ds in enumerate((train, valid))
    ]
    # checkpoint pass: the valid split in order, with its own augmentation stream
    sections.append((valid, None, seeded_rng(scfg.seed, TAG_AUGMENT, state.epoch, 2)))
    with view_stream(sections, scfg.batch_size, ccfg) as views:
        for phase, ds, (stepped, flat), frozen, opt in phases:
            # the batch count does not depend on the shuffle
            n_batches = len(batch_indices(len(ds), scfg.batch_size))
            if not n_batches:
                raise SearchError(f"{phase} split too small for one batch (needs >= 2 samples)")
            losses = []
            t0 = time.perf_counter()
            for bi, feats in enumerate(itertools.islice(views, n_batches)):
                tape = Tape()
                try:
                    if bi == 0:
                        # the plain set is constant all phase: one check names a
                        # non-finite entry as its leaf would
                        Tape().leaves(*frozen)
                    leaves = tape.leaves(stepped, flat)
                    w, a = (leaves, arch) if phase == "train" else (state.weights, leaves)
                    loss = contrastive_batch_loss(encoder, head, w, a, feats, ccfg.temperature)
                except (NonFiniteError, ContrastiveError) as e:
                    raise SearchError(
                        f"{loss_failure(e)} at epoch {epoch} phase {phase} batch {bi}: {e}"
                    ) from e
                opt.step(flat, tape.backward(loss).flat(leaves))
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
        t0 = time.perf_counter()
        losses = []
        for bi, feats in enumerate(views):
            try:
                loss = contrastive_batch_loss(encoder, head, state.weights, arch, feats, ccfg.temperature)
            except (NonFiniteError, ContrastiveError) as e:
                raise SearchError(f"{loss_failure(e)} at epoch {epoch} phase eval batch {bi}: {e}") from e
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
