"""Alternating bilevel architecture search driven by the contrastive loss.

Each epoch runs two phases over disjoint unlabeled splits: the train phase
steps only the operator weights w (momentum SGD), the valid phase steps
only the architecture logits alpha/beta/gamma (Adam, with its fixed
betas and eps; the logits start from ``ArchParams.init``'s default scale).
Only the two rates and the momentum are configurable. Both phases minimize
the same two-view contrastive objective; no inner-loop unrolling, plain
first-order alternation. The train phase differentiates only w, the
valid phase only the logits: a phase puts the views of the one vector it
steps (``SearchState.flat_weights`` or ``ArchParams.flat``) on the tape
with ``Tape.leaves`` and reads the other set as plain arrays, so no
backward pass computes a gradient that is then thrown away. After the
phases, a no-update evaluation pass over the valid split scores the
current architecture, and the best (lowest) validation loss snapshots the
logits. The returned genotype is derived from that best snapshot.

Each phase, the eval pass included, builds a plan at its first batch and
runs every batch from it: ``autodiff.constants`` wraps the plain set with
the phase's one finiteness check, and ``MixedFusionEncoder.plan`` fixes
what that set determines (the logit softmaxes in the train phase and eval
pass, the weight arrays in the valid phase and eval pass). A plan lives for
one phase of one epoch, since the next phase steps the set this one read.

Every phase runs its batches through ``train_epoch``, the one per-batch
loop of every stage (pretraining and classifier fitting use it too): a
tape per batch, the stepped set's leaves, the loss, a failure named by its
epoch, phase and batch, one optimizer step, and one report row per epoch.
A batch runs with numpy's overflow warnings off; the tape's finiteness
check is the one signal of a non-finite value.

Augmentation reads no model state, so a search's augmented view batches
(per epoch, ``epoch_sections``: train, valid, then the evaluation pass) come
from one ``view_stream``, one section iterator per phase, with views of
every source, since the mixed encoder reads them all (pretraining asks for
only the sources its derived encoder reads). The stream's batches are those
of one inline generator, ``_view_batches``. When the process may use two or
more CPUs, the ``fork`` start method exists and the process is not itself a
daemonic multiprocessing worker, a forked worker runs that generator ahead
of training and sends its batches over a pipe; the pipe's buffer holds only
a few batches, so a full pipe blocks the worker. A worker that stops early
(a failed batch, or killed) hands the rest of the stream to the inline
generator, so an augmentation error is raised in the stage's own process.
The batches, and so every result, are identical either way.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, Tape, constants
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
from .util import TAG_ARCH_INIT, TAG_AUGMENT, TAG_SHUFFLE, TAG_WEIGHT_INIT, flat_views, integer, real, seeded_rng


class SearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    max_epochs: int = 30
    batch_size: int = 16
    lr_weights: float = 0.05
    momentum: float = 0.9
    lr_arch: float = 0.03
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "batch_size", "seed"):
            integer(getattr(self, name), name)
        for name in ("lr_weights", "momentum", "lr_arch"):
            real(getattr(self, name), name)
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (contrastive loss needs negatives)")
        # zero rates are allowed so a run can be frozen into a no-op probe
        if self.lr_weights < 0 or self.lr_arch < 0:
            raise ValueError("learning rates must be >= 0")


@dataclass
class SearchState:
    """Search progress. ``weights`` are copied into one owned vector,
    ``flat_weights``, and the dict then holds views of it (``util.flat_views``).
    The epoch rows are not kept here: each goes to the ``report`` callback."""

    arch: ArchParams
    weights: dict
    best_arch: ArchParams
    best_valid_loss: float = float("inf")
    epoch: int = 0
    flat_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat_weights, self.weights = flat_views(self.weights)


def batch_indices(n: int, batch_size: int, rng: np.random.Generator | None = None) -> list:
    """Deterministic minibatch index chunks; singleton remainders dropped."""
    order = rng.permutation(n) if rng is not None else np.arange(n)
    chunks = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    return [c for c in chunks if len(c) >= 2]


def stack_view_features(ds: Dataset, idx, ccfg: ContrastiveConfig, rng: np.random.Generator, sources) -> list:
    """Augment rows ``idx`` of ``ds`` twice into ``(2B, d)`` matrices of ``sources``.

    Output rows are interleaved (view_i of row idx[0], view_j of row idx[0],
    view_i of row idx[1], ...), matching the loss's pairing convention; the
    returned list is aligned with ``sources``. Every image layer is drawn,
    so the views of a source do not depend on which others are read, but
    only the layers in ``sources`` are gathered and augmented.
    """
    unknown = set(sources) - ds.features.keys()
    if unknown:
        raise ContrastiveError(f"the dataset has no source(s) {sorted(unknown)}")
    rows = np.repeat(idx, 2)
    image = {s: m[rows] if s in sources else m.shape[1] for s, m in ds.features.items() if s.startswith("image:")}
    text = {s: m[rows] for s, m in ds.features.items() if s.startswith("text:") and s in sources}
    image_views, _, text_views = augment_views(list(image.values()), list(text.values()), ds.text_len, ccfg, rng)
    views = {**dict(zip(image, image_views)), **dict(zip(text, text_views))}
    return [views[s] for s in sources]


def _view_batches(sections, batch_size: int, ccfg: ContrastiveConfig, sources):
    """Two-view features of ``sources`` for every batch of every section, in training order.

    A section is ``(ds, shuffle_rng, augment_rng)``: its batches are
    ``batch_indices(len(ds), batch_size, shuffle_rng)``, each augmented by
    ``stack_view_features`` with ``augment_rng``. The two may be one rng.
    """
    for ds, shuffle_rng, augment_rng in sections:
        for idx in batch_indices(len(ds), batch_size, shuffle_rng):
            yield stack_view_features(ds, idx, ccfg, augment_rng, sources)


def _serve(batches, reader, conn) -> None:
    """Worker body: send each batch, then None; at any error just stop, and the reader computes the rest."""
    # the parent must be the pipe's only reader, so that a parent that dies
    # without ending this worker turns its next write into a BrokenPipeError
    reader.close()
    gc.freeze()  # never collect (so never copy) the objects inherited from the parent
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and ends this worker
    with contextlib.suppress(Exception):  # the parent stopped reading, or a batch failed
        for feats in batches:
            conn.send(feats)
        conn.send(None)


def _received(conn, worker, batches):
    """Reader side of the pipe: yield the worker's batches up to its None; if
    the worker stops first (a failed batch, or killed), the rest from ``batches``.

    ``batches`` is this process's copy of the worker's generator: fork left
    it unstarted, its section rngs at their seeds, so its batches from
    ``sent`` on are byte for byte the ones the worker would have sent.
    """
    sent = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # OSError: a worker killed mid-message
            break
        if msg is None:
            return
        sent += 1
        yield msg
    worker.join()
    yield from itertools.islice(batches, sent, None)


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
def view_stream(sections, batch_size: int, ccfg: ContrastiveConfig, sources):
    """Per section, an iterator over the two-view features of ``sources`` for its batches.

    Sections and batches are as in ``_view_batches``, the stream's one
    source of batches and of errors; each section's iterator must be read
    to its end before the next is taken. Where ``_worker_allowed``, a forked
    worker runs a copy of that generator ahead of the reader and sends its
    batches over a pipe, at most a few batches ahead (a full pipe blocks
    it); it makes no BLAS call. Otherwise each batch is computed inline
    when asked for. Both give the same bytes in the same order. A worker
    that stops early, whether a batch failed or it was killed, hands the
    rest of the stream to the inline generator, so an error raised while
    computing a batch is raised in this process at that batch, with its
    own type, message and traceback. Leaving the block ends the worker, and
    a worker whose parent dies ends at its next write to the pipe.
    """
    counts = [len(batch_indices(len(ds), batch_size)) for ds, _, _ in sections]  # independent of the shuffle
    batches = _view_batches(sections, batch_size, ccfg, sources)
    with contextlib.closing(batches):
        if not _worker_allowed():
            yield (itertools.islice(batches, n) for n in counts)
            return
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=_serve, args=(batches, conn, child_conn), name="mmnas-views", daemon=True)
        worker.start()
        child_conn.close()
        stream = _received(conn, worker, batches)
        try:
            yield (itertools.islice(stream, n) for n in counts)
        finally:
            conn.close()
            worker.terminate()  # a no-op once the worker has sent its last batch and exited
            worker.join()
            worker.close()


def train_epoch(batches, batch_loss, stepped, opt, error, *, epoch, phase, lr, best=None, report=None) -> dict:
    """Run one epoch of a stage over ``batches`` and return its row.

    Each batch gets a new ``Tape`` with the views of ``stepped`` (``(views,
    flat)``, or None for a pass that steps nothing) as its leaves, and
    ``batch_loss(bi, batch, leaves)`` computes the loss. A ``NonFiniteError``
    or ``ContrastiveError`` raised there becomes ``error(failure, "batch
    <bi>: <cause>")``, chained from it; otherwise ``opt`` steps ``flat``,
    and a ``NonFiniteError`` of the step (``Adam``'s overflowed second
    moment) becomes ``error("non-finite optimizer step", ...)`` the same
    way. A batch runs with numpy's overflow and invalid warnings off,
    since a check reports each non-finite value: a node's is the tape's
    ``NonFiniteError``, a step's is ``Adam``'s or shows at the next
    batch's ``Tape.leaves`` or at ``save_weights``. The row ``{epoch,
    phase, mean_loss, lr, wallclock_ms, best_so_far}`` takes
    ``best_so_far`` from ``best(mean_loss)`` (None without ``best``) and
    is also passed to ``report``.
    """
    losses = []
    t0 = time.perf_counter()
    for bi, batch in enumerate(batches):
        tape = Tape()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                leaves = tape.leaves(*stepped) if stepped else None
                loss = batch_loss(bi, batch, leaves)
            except (NonFiniteError, ContrastiveError) as e:
                failure = "non-finite loss" if isinstance(e, NonFiniteError) else "contrastive loss failed"
                raise error(failure, f"batch {bi}: {e}") from e
            if stepped:
                grad = tape.backward(loss).flat(leaves)
                try:
                    opt.step(stepped[1], grad)
                except NonFiniteError as e:
                    raise error("non-finite optimizer step", f"batch {bi}: {e}") from e
        losses.append(float(loss.data))
    mean_loss = float(np.mean(losses))
    row = {
        "epoch": epoch,
        "phase": phase,
        "mean_loss": mean_loss,
        "lr": lr,
        "wallclock_ms": round(1000.0 * (time.perf_counter() - t0), 3),
        "best_so_far": best(mean_loss) if best else None,
    }
    if report is not None:
        report(row)
    return row


def _check_compatible(space: SearchSpaceConfig, ds: Dataset) -> None:
    if space.features_per_modality != (ds.image_dims, ds.text_dims):
        raise SearchError(
            f"search space dims {space.features_per_modality} do not match dataset "
            f"dims {(ds.image_dims, ds.text_dims)}"
        )


def contrastive_batch_loss(encoder, head, weights, arch, feats, temperature, plan=None):
    """Forward pass to the scalar loss; weights/arch may be leaves or arrays,
    and ``plan`` is a mixed encoder's plan for them (``MixedFusionEncoder.plan``)."""
    h = encoder.forward(weights, arch, feats, plan) if arch is not None else encoder.forward(weights, feats)
    z = head.forward(weights, h)
    return ntxent_loss(z, temperature)


def epoch_sections(scfg: SearchConfig, train: Dataset, valid: Dataset, epoch: int) -> list:
    """The ``view_stream`` sections of search epoch ``epoch`` (from 0): the
    shuffled train split, the shuffled valid split, then the valid split in
    order for the checkpoint pass, each with its own augmentation stream."""
    sections = [
        (ds, *(seeded_rng(scfg.seed, tag, epoch, i) for tag in (TAG_SHUFFLE, TAG_AUGMENT)))
        for i, ds in enumerate((train, valid))
    ]
    sections.append((valid, None, seeded_rng(scfg.seed, TAG_AUGMENT, epoch, 2)))
    return sections


def search_epoch(
    state: SearchState,
    views,
    scfg: SearchConfig,
    ccfg: ContrastiveConfig,
    encoder: MixedFusionEncoder,
    head: ProjectionHead,
    opt_w: MomentumSGD,
    opt_arch: Adam,
    report=None,
) -> list:
    """One train+valid alternation plus the checkpoint evaluation pass,
    each phase reading the next section of ``views``, a ``view_stream``
    whose next three are ``epoch_sections(scfg, train, valid, state.epoch)``."""
    def best(mean_loss):
        if phase == "eval" and mean_loss < state.best_valid_loss:
            state.best_valid_loss = mean_loss
            state.best_arch = state.arch.copy()
        return None if np.isinf(state.best_valid_loss) else state.best_valid_loss

    def batch_loss(bi, feats, leaves):
        nonlocal operands, plan
        if bi == 0:
            # a plain set is constant all phase: one check names a non-finite
            # entry as its leaf would
            operands = {k: constants(*s) for k, s in sets.items() if k != stepped}
        if stepped:
            operands[stepped] = leaves
        w, a = operands["weights"], operands["arch"]
        if bi == 0:
            plan = encoder.plan(w, a)
        return contrastive_batch_loss(encoder, head, w, a, feats, ccfg.temperature, plan)

    def error(failure, at):
        return SearchError(f"{failure} at epoch {epoch} phase {phase} {at}")

    epoch = state.epoch + 1
    sets = {"weights": (state.weights, state.flat_weights), "arch": (state.arch.named(), state.arch.flat)}
    operands = plan = None  # built by each phase's first batch
    records = []
    # (phase, the set it differentiates and steps, its optimizer and rate), one per
    # section of views; a phase reads the other sets as plain arrays, and the
    # checkpoint pass steps none
    phases = (
        ("train", "weights", opt_w, scfg.lr_weights),
        ("valid", "arch", opt_arch, scfg.lr_arch),
        ("eval", None, None, 0.0),
    )
    for phase, stepped, opt, lr in phases:
        row = train_epoch(next(views), batch_loss, sets.get(stepped), opt, error, epoch=epoch, phase=phase, lr=lr,
                          best=best, report=report)
        records.append(row)
    state.epoch = epoch
    return records


def init_search_state(scfg: SearchConfig, space: SearchSpaceConfig, ccfg: ContrastiveConfig) -> SearchState:
    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim)
    rng_w = seeded_rng(scfg.seed, TAG_WEIGHT_INIT)
    weights = encoder.init_weights(rng_w)
    weights.update(head.init_weights(rng_w))
    arch = ArchParams.init(space, seeded_rng(scfg.seed, TAG_ARCH_INIT))
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
    opt_arch = Adam(scfg.lr_arch)
    sections = [s for epoch in range(scfg.max_epochs) for s in epoch_sections(scfg, train, valid, epoch)]
    # the mixed encoder reads every source
    with view_stream(sections, scfg.batch_size, ccfg, encoder.sources) as views:
        for _ in range(scfg.max_epochs):
            search_epoch(state, views, scfg, ccfg, encoder, head, opt_w, opt_arch, report)
    genotype = derive_genotype(state.best_arch)
    try:
        validate_genotype(genotype, space)
    except GenotypeError as e:
        raise SearchError(f"search derived an unusable genotype: {e}") from e
    return genotype, state
