"""The stream of augmented view batches behind pretraining and search.

Most tests run a tiny ``pretrain`` (3 epochs of 5 batches) or one
``search_epoch`` (7 train, 2 valid and 2 eval batches) with the forked
worker forced (the affinity probe reports two CPUs), most also with the
inline path forced (one CPU); some read a ``view_stream`` directly. With
the worker, this process computes whole sections of its own while the
worker's pipe is empty, so a test that needs a batch to run in one process
keys it on the batch (its rows), not on a count of calls.
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
from mmnas.bilevel import SearchConfig, SearchError, batch_indices, epoch_sections, init_search_state, run_search
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


def _data(dim=10):
    ds = generate(SyntheticSpec(num_samples=80, image_layer_dims=(dim, dim), text_layer_dims=(dim, dim), seed=0))
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=1, steps_per_cell=1, hidden_dim=6
    )
    return ds, space


def _genotype(space):
    return Genotype(
        cells=(CellGene(inputs=("image:0", "text:1"), steps=(StepGene(pair=("image:0", "text:1"), op="Sum"),)),),
        config_hash=space.hash(),
    )


def _pretrain(lr=0.05, dim=10):
    ds, space = _data(dim)
    losses = []
    pcfg = pipeline.PipelineConfig(pretrain_epochs=3, pretrain_lr=lr, pretrain_batch_size=16)
    weights = pipeline.pretrain(
        _genotype(space), space, CCFG, pcfg, ds, seed=5, report=lambda row: losses.append(row["mean_loss"])
    )
    return losses + [weights[k].tobytes() for k in sorted(weights)]


def _search_epoch(lr=0.05, dim=10):
    ds, space = _data(dim)
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


def _sections(stage):
    """Fresh copies of a stage's view sections, with its batch size and the sources its loss reads."""
    ds, space = _data()
    if stage == "pretrain":
        rngs = [seeded_rng(5, TAG_PRETRAIN_EPOCH, epoch) for epoch in range(3)]
        return [(ds, rng, rng) for rng in rngs], 16, instantiate(_genotype(space), space).sources
    splits = split(ds, 0.2, seed=0)
    return epoch_sections(SearchConfig(seed=2), splits.search_train, splits.search_valid, 0), 8, space.sources()


def _every(stage):
    """The bytes of every batch of a stage, from ``_view_batches``."""
    sections, batch_size, sources = _sections(stage)
    return [[f.tobytes() for f in batch] for batch in bilevel._view_batches(sections, batch_size, CCFG, sources)]


def _key(ds, idx):
    """A batch's key: the size of its dataset and its rows."""
    return f"{len(ds)}:{'-'.join(map(str, idx))}"


def _keys(stage):
    """The keys of a stage's batches, in training order."""
    sections, batch_size, _ = _sections(stage)
    return [_key(ds, idx) for ds, shuffle, _ in sections for idx in batch_indices(len(ds), batch_size, shuffle)]


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


def _log_calls(monkeypatch, log, augment=STACK_VIEW_FEATURES):
    """Make every augmentation call, by ``augment``, write the id of the
    process it runs in and the key of its batch to ``log``."""

    def logged(ds, idx, ccfg, rng, sources):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {_key(ds, idx)}\n")
        return augment(ds, idx, ccfg, rng, sources)

    monkeypatch.setattr(bilevel, "stack_view_features", logged)


def _calls(log):
    """The (process id, batch key) of each logged augmentation call."""
    return [tuple(line.split()) for line in log.read_text().splitlines()]


def _slow_worker(seconds):
    """An augmentation that first sleeps ``seconds`` in any process but this one."""
    parent = os.getpid()

    def slow(ds, idx, ccfg, rng, sources):
        if os.getpid() != parent:
            time.sleep(seconds)
        return STACK_VIEW_FEATURES(ds, idx, ccfg, rng, sources)

    return slow


def _both_modes(stage, monkeypatch, tmp_path, augment=STACK_VIEW_FEATURES):
    """Run ``stage`` with and without the worker, augmenting with ``augment``,
    and check that each batch is augmented exactly once, across this process
    and at most one worker, and that losses, weights and every batch the
    losses see equal the inline run's and ``_view_batches``'. Returns the
    worker run's (process id, batch key) calls."""
    every, keys = _every(stage), _keys(stage)
    assert len(set(keys)) == len(keys) == STAGES[stage][1]
    calls = {}
    runs = {}
    for mode in CPUS:
        log = tmp_path / f"{mode}.calls"
        _log_calls(monkeypatch, log, augment)
        seen = []
        runs[mode] = (_run(stage, mode, monkeypatch, seen), seen)
        calls[mode] = _calls(log)
        assert multiprocessing.active_children() == []
        assert sorted(key for _, key in calls[mode]) == sorted(keys), mode
    me = str(os.getpid())
    assert {pid for pid, _ in calls["inline"]} == {me}
    assert len({pid for pid, _ in calls["worker"]} - {me}) == 1
    (out_w, seen_w), (out_i, seen_i) = runs["worker"], runs["inline"]
    assert seen_w == seen_i == every
    assert out_w == out_i
    return calls["worker"]


@pytest.mark.parametrize("stage", STAGES)
def test_batches_are_identical_with_and_without_the_worker(stage, monkeypatch, tmp_path):
    _both_modes(stage, monkeypatch, tmp_path)


@pytest.mark.parametrize("stage", STAGES)
def test_a_slow_worker_leaves_this_process_a_section_of_its_own(stage, monkeypatch, tmp_path):
    # the worker holds the first two sections and sleeps before each batch,
    # so this process computes the third while it waits
    calls = _both_modes(stage, monkeypatch, tmp_path, _slow_worker(0.02))
    last = _keys(stage)[-1]
    assert (str(os.getpid()), last) in calls, "this process computed no section of its own"


def test_a_search_takes_every_epoch_from_one_worker(monkeypatch, tmp_path):
    # run_search opens one stream for all its epochs, as pretrain does, and
    # its batches are those of one stream per epoch
    log = tmp_path / "calls"
    _log_calls(monkeypatch, log)
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
    calls = _calls(log)
    keys = [
        _key(ds, idx)
        for epoch in range(3)
        for ds, shuffle, _ in epoch_sections(scfg, splits.search_train, splits.search_valid, epoch)
        for idx in batch_indices(len(ds), 8, shuffle)
    ]
    # each of the 33 batches once (the eval pass's rows repeat each epoch),
    # in this process or in the one worker
    assert len(keys) == 3 * 11 and sorted(key for _, key in calls) == sorted(keys)
    assert len({pid for pid, _ in calls} - {str(os.getpid())}) == 1
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


def _failing_at(key, message, augment=STACK_VIEW_FEATURES):
    """An augmentation that raises ``ContrastiveError(message)`` at the batch
    ``key``, in whichever process computes it."""

    def failing(ds, idx, ccfg, rng, sources):
        if _key(ds, idx) == key:
            raise ContrastiveError(message)
        return augment(ds, idx, ccfg, rng, sources)

    return failing


@pytest.mark.parametrize("mode", CPUS)
@pytest.mark.parametrize("stage", STAGES)
def test_an_augmentation_error_surfaces_at_its_batch(stage, mode, monkeypatch):
    k = 8  # pretrain: epoch 2 batch 3; search: valid batch 1
    monkeypatch.setattr(bilevel, "stack_view_features", _failing_at(_keys(stage)[k], f"injected at batch {k}"))
    seen = []
    with pytest.raises(ContrastiveError) as info:
        _run(stage, mode, monkeypatch, seen)
    assert type(info.value) is ContrastiveError
    assert str(info.value) == f"injected at batch {k}"
    assert len(seen) == k
    # raised in this process, by the generator the worker handed over to
    assert any(entry.name == "failing" for entry in info.traceback)
    assert multiprocessing.active_children() == []


# per stage, the first batch of its third section and a batch of that section
THIRD_SECTION = {"pretrain": (10, 12), "search_epoch": (9, 10)}


@pytest.mark.parametrize("stage", STAGES)
def test_an_error_in_a_batch_computed_ahead_surfaces_at_its_batch(stage, monkeypatch):
    # the slowed worker holds the first two sections, so this process
    # computes the third while it waits, and keeps the error it hits there
    # until training reaches that batch
    start, k = THIRD_SECTION[stage]
    seen = []
    raised_after = []
    failing = _failing_at(_keys(stage)[k], f"injected at batch {k}", _slow_worker(0.05))

    def noted(ds, idx, ccfg, rng, sources):
        try:
            return failing(ds, idx, ccfg, rng, sources)
        except ContrastiveError:
            raised_after.append(len(seen))
            raise

    monkeypatch.setattr(bilevel, "stack_view_features", noted)
    with pytest.raises(ContrastiveError) as info:
        _run(stage, "worker", monkeypatch, seen)
    assert type(info.value) is ContrastiveError
    assert str(info.value) == f"injected at batch {k}"
    assert len(seen) == k
    assert len(raised_after) == 1 and raised_after[0] < start  # raised in this process, ahead of training
    assert any(entry.name == "failing" for entry in info.traceback)
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
    with pytest.raises(type(error())) as info:
        _run("pretrain", "worker", monkeypatch, [])
    assert type(info.value) is type(error())  # the worker sends no error, so none needs pickling
    assert any(entry.name == "failing" for entry in info.traceback)


@pytest.mark.parametrize("stage", STAGES)
def test_a_worker_that_dies_leaves_the_rest_of_the_stream_to_its_reader(stage, monkeypatch):
    parent = os.getpid()
    calls = []

    def dying(ds, idx, ccfg, rng, sources):
        calls.append(1)
        if os.getpid() != parent and len(calls) == 5:
            os._exit(1)  # as if killed: the worker sends nothing more
        return STACK_VIEW_FEATURES(ds, idx, ccfg, rng, sources)

    monkeypatch.setattr(bilevel, "stack_view_features", dying)
    runs = {}
    for mode in CPUS:
        calls.clear()
        seen = []
        runs[mode] = (_run(stage, mode, monkeypatch, seen), seen)
        # this process computed every batch: those it had received from the
        # worker again, the rest, and any section of its own
        assert len(calls) == STAGES[stage][1], mode
        assert multiprocessing.active_children() == []
    assert len(runs["worker"][1]) == STAGES[stage][1]
    assert runs["worker"] == runs["inline"]


def test_the_stream_gives_one_iterator_per_section(monkeypatch, tmp_path):
    # sections of 5, 3 and 2 samples at batch 2 hold 2, 1 and 1 batches
    # (a singleton tail is dropped, as batch_indices does)
    ds, space = _data()

    def sections():
        return [(ds.subset(range(n)), seeded_rng(n, 0), seeded_rng(n, 1)) for n in (5, 3, 2)]

    every = [[f.tobytes() for f in batch] for batch in bilevel._view_batches(sections(), 2, CCFG, space.sources())]
    for mode in CPUS:
        log = tmp_path / f"{mode}.calls"
        _log_calls(monkeypatch, log)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(CPUS[mode]))
        with bilevel.view_stream(sections(), 2, CCFG, space.sources()) as views:
            got = [[[f.tobytes() for f in batch] for batch in section] for section in views]
        assert [len(section) for section in got] == [2, 1, 1], mode
        assert sum(got, []) == every, mode
        assert ({pid for pid, _ in _calls(log)} == {str(os.getpid())}) == (mode == "inline")
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", CPUS)
@pytest.mark.parametrize("stage", STAGES)
def test_a_training_error_ends_the_stream(stage, mode, monkeypatch):
    # the weights leave float64 range after one step, before the worker has
    # sent its last batch; at 300 dims the batches of the two sections the
    # worker holds (~1.5 MB for pretrain, ~1.4 MB for the search) outgrow
    # the pipe's 1 MiB buffer, so the worker is still blocked on a write
    # when the stage fails
    _, _, error = STAGES[stage]
    with pytest.raises(error, match="non-finite loss at epoch 1 .*batch 1: "):
        _run(stage, mode, monkeypatch, [], lr=1e300, dim=300)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("stage", STAGES)
def test_a_training_error_ends_a_busy_worker(stage, monkeypatch):
    # the worker is still augmenting batch 2 when batch 1's loss fails
    parent = os.getpid()
    calls = []

    def slow(ds, idx, ccfg, rng, sources):
        calls.append(1)
        if os.getpid() != parent and len(calls) == 3:
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
    log = tmp_path / "calls"
    _log_calls(monkeypatch, log)
    _run("pretrain", "worker", monkeypatch, [])
    assert {pid for pid, _ in _calls(log)} == {str(os.getpid())}


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
_pretrain(dim=300)
"""


def _state(pid: int):
    """The process state letter of ``pid`` ("R", "S", "Z", ...), None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat[stat.rindex(")") + 2]


def _running(pid: int) -> bool:
    return _state(pid) not in (None, "Z")  # a zombie has exited


def _kill(pid: int) -> None:
    """SIGKILL ``pid`` and wait until it has exited: a reader that drained
    the pipe before then could let a blocked write run to its end."""
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_worker_killed_mid_message_leaves_the_rest_of_the_stream_to_its_reader(monkeypatch):
    # one batch (~1.6 MB) outgrows the pipe's 1 MiB buffer, so the worker
    # sleeps partway through sending the first; killed there, it leaves a
    # cut message, which the reader drops before computing the stream itself
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ds = generate(SyntheticSpec(num_samples=800, image_layer_dims=(128, 128), text_layer_dims=(128, 128), seed=0))
    sources = list(ds.features)

    def sections():
        return [(ds, seeded_rng(0, 0), seeded_rng(0, 1))]

    every = [[f.tobytes() for f in batch] for batch in bilevel._view_batches(sections(), 200, CCFG, sources)]
    assert sum(len(f) for f in every[0]) > 1.5e6
    with bilevel.view_stream(sections(), 200, CCFG, sources) as views:
        (worker,) = multiprocessing.active_children()
        deadline = time.monotonic() + 60
        while _state(worker.pid) != "S" and time.monotonic() < deadline:
            time.sleep(0.01)
        _kill(worker.pid)
        got = [[f.tobytes() for f in batch] for section in views for batch in section]
    assert len(got) == 4 and got == every
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_worker_killed_while_this_process_holds_batches_ahead_leaves_the_stream_whole(monkeypatch, tmp_path):
    # the slowed worker holds sections 0 and 1, and this process computes
    # section 2 while it waits for the first batch; the worker is killed
    # after that batch, so section 0 is picked up from its second batch
    ds, space = _data()
    sources = space.sources()

    def sections():
        return [(ds, seeded_rng(s, 0), seeded_rng(s, 1)) for s in range(3)]

    every = [[f.tobytes() for f in batch] for batch in bilevel._view_batches(sections(), 16, CCFG, sources)]
    third = [_key(ds, idx) for idx in batch_indices(len(ds), 16, sections()[2][1])]
    log = tmp_path / "calls"
    _log_calls(monkeypatch, log, _slow_worker(0.05))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    me = str(os.getpid())
    with bilevel.view_stream(sections(), 16, CCFG, sources) as views:
        (worker,) = multiprocessing.active_children()
        first = next(views)
        got = [next(first)]
        ahead = [key for pid, key in _calls(log) if pid == me]
        assert ahead and ahead == third[: len(ahead)]
        _kill(worker.pid)
        got += list(first) + [batch for section in views for batch in section]
    assert [[f.tobytes() for f in batch] for batch in got] == every
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", CPUS)
def test_sections_that_share_an_rng_are_refused_before_any_fork(mode, monkeypatch):
    # computed out of order, two sections that share an rng would change each other's bytes
    ds, space = _data()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(CPUS[mode]))

    def no_fork(method):
        raise AssertionError("forked a worker")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    a, b, c = (seeded_rng(0, i) for i in range(3))
    for sections in ([(ds, a, a), (ds, b, a)], [(ds, a, b), (ds, c, c), (ds, None, b)]):
        with pytest.raises(ValueError, match=r"view_stream sections (0 and 1|0 and 2) share an rng"):
            with bilevel.view_stream(sections, 16, CCFG, space.sources()):
                pass


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_the_worker_ends_when_its_parent_is_killed():
    # at 300 dims the batches of the two pretraining sections the worker
    # holds (~1.5 MB) outgrow the pipe's 1 MiB buffer, so the worker soon
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
