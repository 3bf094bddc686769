"""The stream of augmented view batches behind pretraining and search.

Each test runs a tiny ``pretrain`` (3 epochs of 5 batches) or one
``search_epoch`` (7 train, 2 valid and 2 eval batches) with the forked
worker forced (the affinity probe reports two CPUs), most also with the
inline path forced (one CPU).
"""

import gc
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import search_one_epoch

import mmnas.bilevel as bilevel
import mmnas.pipeline as pipeline
from mmnas.bilevel import SearchConfig, SearchError, init_search_state, run_search
from mmnas.contrastive import ContrastiveConfig, ContrastiveError, ProjectionHead
from mmnas.data import SyntheticSpec, generate, split
from mmnas.optim import Adam, MomentumSGD
from mmnas.pipeline import PipelineError
from mmnas.searchspace import CellGene, Genotype, MixedFusionEncoder, SearchSpaceConfig, StepGene, instantiate
from mmnas.util import TAG_PRETRAIN_EPOCH, seeded_rng

pytestmark = [
    pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

CCFG = ContrastiveConfig()
CPUS = {"worker": {0, 1}, "inline": {0}}
STACK_VIEW_FEATURES = bilevel.stack_view_features
BATCH_LOSS = bilevel.contrastive_batch_loss


def _data():
    ds = generate(SyntheticSpec(num_samples=80, image_layer_dims=(10, 10), text_layer_dims=(10, 10), seed=0))
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=1, steps_per_cell=1, hidden_dim=6
    )
    return ds, space


def _genotype(space):
    return Genotype(
        cells=(CellGene(inputs=("image:0", "text:1"), steps=(StepGene(pair=("image:0", "text:1"), op="Sum"),)),),
        config_hash=space.hash(),
    )


def _pretrain(lr=0.05):
    ds, space = _data()
    losses = []
    pcfg = pipeline.PipelineConfig(pretrain_epochs=3, pretrain_lr=lr, pretrain_batch_size=16)
    weights = pipeline.pretrain(
        _genotype(space), space, CCFG, pcfg, ds, seed=5, report=lambda row: losses.append(row["mean_loss"])
    )
    return losses + [weights[k].tobytes() for k in sorted(weights)]


def _search_epoch(lr=0.05):
    ds, space = _data()
    splits = split(ds, 0.2, seed=0)
    scfg = SearchConfig(max_epochs=1, batch_size=8, lr_weights=lr, seed=2)
    state = init_search_state(scfg, space, CCFG)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    records = search_one_epoch(
        state, splits.search_train, splits.search_valid, scfg, CCFG, MixedFusionEncoder(space), head,
        MomentumSGD(scfg.lr_weights, scfg.momentum), Adam(scfg.lr_arch),
    )
    params = {**state.weights, **state.arch.named()}
    return [r["mean_loss"] for r in records] + [params[k].tobytes() for k in sorted(params)]


STAGES = {"pretrain": (_pretrain, 15, PipelineError), "search_epoch": (_search_epoch, 11, SearchError)}


def _run(stage, mode, monkeypatch, seen, **kwargs):
    """Run a stage on ``mode``, appending each batch its losses see to ``seen``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(CPUS[mode]))

    def batch_loss(encoder, head, weights, arch, feats, *rest):
        seen.append([f.tobytes() for f in feats])
        return BATCH_LOSS(encoder, head, weights, arch, feats, *rest)

    monkeypatch.setattr(bilevel, "contrastive_batch_loss", batch_loss)
    monkeypatch.setattr(pipeline, "contrastive_batch_loss", batch_loss)
    try:
        return STAGES[stage][0](**kwargs)
    finally:
        gc.collect()  # an unclosed stream would fail its finalizer here, inside the test


def _log_pids(monkeypatch, log):
    """Make every augmentation call write the id of the process it runs in to ``log``."""

    def logged(ds, idx, ccfg, rng, sources):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return STACK_VIEW_FEATURES(ds, idx, ccfg, rng, sources)

    monkeypatch.setattr(bilevel, "stack_view_features", logged)


@pytest.mark.parametrize("stage", STAGES)
def test_batches_are_identical_with_and_without_the_worker(stage, monkeypatch, tmp_path):
    pids = {}
    runs = {}
    for mode in CPUS:
        log = tmp_path / f"{mode}.pids"
        _log_pids(monkeypatch, log)
        seen = []
        runs[mode] = (_run(stage, mode, monkeypatch, seen), seen)
        pids[mode] = set(log.read_text().split())
        assert multiprocessing.active_children() == []
    # the worker augmented every batch in one other process, the inline path in this one
    assert pids["inline"] == {str(os.getpid())}
    assert len(pids["worker"]) == 1 and pids["worker"] != pids["inline"]
    (out_w, seen_w), (out_i, seen_i) = runs["worker"], runs["inline"]
    assert len(seen_w) == STAGES[stage][1]
    assert seen_w == seen_i
    assert out_w == out_i


def test_a_search_takes_every_epoch_from_one_worker(monkeypatch, tmp_path):
    # run_search opens one stream for all its epochs, as pretrain does, and
    # its batches are those of one stream per epoch
    log = tmp_path / "pids"
    _log_pids(monkeypatch, log)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    seen = []

    def batch_loss(encoder, head, weights, arch, feats, *rest):
        seen.append([f.tobytes() for f in feats])
        return BATCH_LOSS(encoder, head, weights, arch, feats, *rest)

    monkeypatch.setattr(bilevel, "contrastive_batch_loss", batch_loss)
    ds, space = _data()
    splits = split(ds, 0.2, seed=0)
    scfg = SearchConfig(max_epochs=3, batch_size=8, seed=2)
    run_search(scfg, space, CCFG, splits.search_train, splits.search_valid)
    pids = log.read_text().split()
    assert len(pids) == 3 * 11 and len(set(pids)) == 1 and pids[0] != str(os.getpid())
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(bilevel, "stack_view_features", STACK_VIEW_FEATURES)
    every = [
        [f.tobytes() for f in batch]
        for epoch in range(3)
        for batch in bilevel._view_batches(
            bilevel.epoch_sections(scfg, splits.search_train, splits.search_valid, epoch), 8, CCFG, space.sources()
        )
    ]
    assert seen == every


def test_a_derived_pretrain_receives_views_of_the_sources_it_reads(monkeypatch):
    # the worker sends views of image:0 and text:1 only, and they are the
    # bytes of those two sources in batches of every source
    seen = []
    _run("pretrain", "worker", monkeypatch, seen)
    ds, space = _data()
    sources = instantiate(_genotype(space), space).sources
    assert sources == ["image:0", "text:1"]
    rngs = [seeded_rng(5, TAG_PRETRAIN_EPOCH, epoch) for epoch in range(3)]
    every = list(bilevel._view_batches([(ds, rng, rng) for rng in rngs], 16, CCFG, space.sources()))
    picked = [space.sources().index(s) for s in sources]
    assert seen == [[batch[i].tobytes() for i in picked] for batch in every]


@pytest.mark.parametrize("mode", CPUS)
@pytest.mark.parametrize("stage", STAGES)
def test_an_augmentation_error_surfaces_at_its_batch(stage, mode, monkeypatch):
    k = 8  # pretrain: epoch 2 batch 3; search: valid batch 1
    calls = []

    def failing(ds, idx, ccfg, rng, sources):
        calls.append(1)
        if len(calls) == k + 1:
            raise ContrastiveError(f"injected at batch {k}")
        return STACK_VIEW_FEATURES(ds, idx, ccfg, rng, sources)

    monkeypatch.setattr(bilevel, "stack_view_features", failing)
    seen = []
    with pytest.raises(ContrastiveError) as info:
        _run(stage, mode, monkeypatch, seen)
    assert type(info.value) is ContrastiveError
    assert str(info.value) == f"injected at batch {k}"
    assert len(seen) == k
    if mode == "worker":  # the worker's traceback comes along as the cause
        assert "in failing" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


class NeedsTwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class HoldsALambda(Exception):
    """Cannot be pickled at all."""

    def __init__(self):
        super().__init__("holds a lambda")
        self.fn = lambda: None


@pytest.mark.parametrize("error", [lambda: NeedsTwoArgs(1, 2), HoldsALambda], ids=["unrebuildable", "unpicklable"])
def test_an_error_that_cannot_be_sent_still_surfaces(error, monkeypatch):
    def failing(ds, idx, ccfg, rng, sources):
        raise error()

    monkeypatch.setattr(bilevel, "stack_view_features", failing)
    with pytest.raises(RuntimeError, match="augmentation worker raised an error that cannot be sent: ") as info:
        _run("pretrain", "worker", monkeypatch, [])
    assert type(error()).__name__ in str(info.value)
    assert "in failing" in str(info.value.__cause__)


@pytest.mark.parametrize("mode", CPUS)
@pytest.mark.parametrize("stage", STAGES)
def test_a_training_error_ends_the_stream(stage, mode, monkeypatch):
    # the weights leave float64 range after one step, before the worker has
    # sent its last batch; pretrain's 15 batches (~150 kB) outgrow the pipe's
    # buffer, so its worker is still blocked on a write when the stage fails
    _, _, error = STAGES[stage]
    with pytest.raises(error, match="non-finite loss at epoch 1 .*batch 1: "):
        _run(stage, mode, monkeypatch, [], lr=1e300)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("stage", STAGES)
def test_a_training_error_ends_a_busy_worker(stage, monkeypatch):
    # the worker is still augmenting batch 2 when batch 1's loss fails
    calls = []

    def slow(ds, idx, ccfg, rng, sources):
        calls.append(1)
        if len(calls) == 3:
            time.sleep(60)
        return STACK_VIEW_FEATURES(ds, idx, ccfg, rng, sources)

    monkeypatch.setattr(bilevel, "stack_view_features", slow)
    _, _, error = STAGES[stage]
    with pytest.raises(error, match="non-finite loss at epoch 1 .*batch 1: "):
        _run(stage, "worker", monkeypatch, [], lr=1e300)
    assert multiprocessing.active_children() == []


def test_a_daemonic_process_augments_inline(monkeypatch, tmp_path):
    # multiprocessing does not let a daemonic process start children
    monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
    log = tmp_path / "pids"
    _log_pids(monkeypatch, log)
    _run("pretrain", "worker", monkeypatch, [])
    assert set(log.read_text().split()) == {str(os.getpid())}


KILLED_PARENT = """
import multiprocessing, os, time
import mmnas.pipeline as pipeline
from test_view_stream import _pretrain

os.sched_getaffinity = lambda pid: {0, 1}

def stalled(*args):
    # the worker fills the pipe while this process waits to be killed
    print(multiprocessing.active_children()[0].pid, flush=True)
    time.sleep(600)

pipeline.contrastive_batch_loss = stalled
_pretrain()
"""


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"  # a zombie has exited


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_the_worker_ends_when_its_parent_is_killed():
    # pretrain's 15 batches outgrow the pipe's buffer, so the worker soon
    # blocks on a write; once the parent is killed that write must fail
    path = [str(Path(pipeline.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen([sys.executable, "-c", KILLED_PARENT], stdout=subprocess.PIPE, env=env, text=True)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "the stalled pretrain printed no worker pid"
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while _running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _running(worker):
        os.kill(worker, signal.SIGKILL)
        pytest.fail(f"augmentation worker {worker} outlived its killed parent")
