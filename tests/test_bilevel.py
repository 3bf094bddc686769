import numpy as np
import pytest

from helpers import AdamOracle, MomentumSGDOracle, augment_view_oracle, mixed_forward_composed, search_one_epoch

import mmnas.autodiff as ad
import mmnas.bilevel as bilevel
from mmnas.autodiff import Tape, Tensor
from mmnas.bilevel import (
    SearchConfig,
    SearchError,
    batch_indices,
    contrastive_batch_loss,
    init_search_state,
    run_search,
    stack_view_features,
)
from mmnas.contrastive import ContrastiveConfig, ContrastiveError, ProjectionHead, ntxent_loss
from mmnas.data import SyntheticSpec, generate, split
from mmnas.optim import Adam, MomentumSGD
from mmnas.pipeline import PipelineConfig, run_pipeline
from mmnas.searchspace import PRIMITIVES, CellGene, Genotype, MixedFusionEncoder, SearchSpaceConfig
from mmnas.util import TAG_AUGMENT, TAG_SHUFFLE, seeded_rng

CCFG = ContrastiveConfig()
NTXENT_LOSS = bilevel.ntxent_loss
BATCH_LOSS = bilevel.contrastive_batch_loss


def _setup(n=80, seed=0, hidden=6):
    ds = generate(SyntheticSpec(num_samples=n, image_layer_dims=(10, 10), text_layer_dims=(10, 10), seed=seed))
    splits = split(ds, 0.2, seed=seed)
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims),
        num_cells=1,
        steps_per_cell=1,
        hidden_dim=hidden,
    )
    return splits.search_train, splits.search_valid, space


def _weights_bytes(weights):
    return {k: v.tobytes() for k, v in weights.items()}


def test_zero_learning_rates_are_a_recorded_noop():
    train, valid, space = _setup()
    scfg = SearchConfig(max_epochs=1, batch_size=8, lr_weights=0.0, lr_arch=0.0, seed=1)
    state = init_search_state(scfg, space, CCFG)
    w_before = _weights_bytes(state.weights)
    a_before = _weights_bytes(state.arch.named())
    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    records = search_one_epoch(
        state, train, valid, scfg, CCFG, encoder, head,
        MomentumSGD(0.0, scfg.momentum), Adam(0.0),
    )
    assert _weights_bytes(state.weights) == w_before
    assert _weights_bytes(state.arch.named()) == a_before
    phases = [r["phase"] for r in records]
    assert phases == ["train", "valid", "eval"]
    assert all(np.isfinite(r["mean_loss"]) for r in records)


def test_phase_discipline_is_bitwise():
    train, valid, space = _setup()
    scfg = SearchConfig(max_epochs=1, batch_size=8, lr_weights=0.05, lr_arch=0.05, seed=2)
    state = init_search_state(scfg, space, CCFG)
    arch_before = _weights_bytes(state.arch.named())
    seen = {}

    def watch(rec):
        if rec["phase"] == "train":
            # the whole train phase must leave the architecture untouched
            assert _weights_bytes(state.arch.named()) == arch_before
            seen["w_after_train"] = _weights_bytes(state.weights)
        if rec["phase"] == "valid":
            # the whole valid phase must leave the operator weights untouched
            assert _weights_bytes(state.weights) == seen["w_after_train"]
            assert _weights_bytes(state.arch.named()) != arch_before

    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    search_one_epoch(
        state, train, valid, scfg, CCFG, encoder, head,
        MomentumSGD(scfg.lr_weights, scfg.momentum), Adam(scfg.lr_arch), report=watch,
    )
    assert "w_after_train" in seen


def _search_rows(scfg, space, train, valid):
    """``run_search``'s (genotype, state) and the epoch rows it reported."""
    rows = []
    genotype, state = run_search(scfg, space, CCFG, train, valid, report=rows.append)
    return genotype, state, rows


def test_full_run_determinism():
    train, valid, space = _setup(seed=3)
    scfg = SearchConfig(max_epochs=2, batch_size=8, seed=5)
    g1, s1, rows1 = _search_rows(scfg, space, train, valid)
    g2, s2, rows2 = _search_rows(scfg, space, train, valid)
    assert g1.hash() == g2.hash()
    assert [r["mean_loss"] for r in rows1] == [r["mean_loss"] for r in rows2]
    assert s1.best_valid_loss == s2.best_valid_loss


def test_different_seed_changes_trajectory_but_keeps_invariants():
    train, valid, space = _setup(seed=4)
    g1, s1, rows1 = _search_rows(SearchConfig(max_epochs=1, batch_size=8, seed=1), space, train, valid)
    g2, s2, rows2 = _search_rows(SearchConfig(max_epochs=1, batch_size=8, seed=2), space, train, valid)
    assert [r["mean_loss"] for r in rows1] != [r["mean_loss"] for r in rows2]
    for state in (s1, s2):
        for vec in state.arch.named().values():
            e = np.exp(vec - vec.max())
            assert abs((e / e.sum()).sum() - 1.0) < 1e-12


def test_best_checkpoint_is_monotone():
    train, valid, space = _setup(seed=6)
    _, state, rows = _search_rows(SearchConfig(max_epochs=4, batch_size=8, seed=7), space, train, valid)
    bests = [r["best_so_far"] for r in rows if r["phase"] == "eval"]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert state.best_valid_loss == bests[-1]


def test_single_epoch_best_snapshot_is_epoch_one_arch():
    train, valid, space = _setup(seed=8)
    _, state = run_search(SearchConfig(max_epochs=1, batch_size=8, seed=9), space, CCFG, train, valid)
    assert _weights_bytes(state.best_arch.named()) == _weights_bytes(state.arch.named())


def test_too_small_dataset_rejected():
    train, valid, space = _setup()
    tiny = train.subset([0])
    with pytest.raises(SearchError, match="too small"):
        run_search(SearchConfig(max_epochs=1, batch_size=8), space, CCFG, tiny, valid)


def test_mismatched_space_rejected():
    train, valid, _ = _setup()
    wrong = SearchSpaceConfig(features_per_modality=((10, 10), (10, 9)), hidden_dim=4)
    with pytest.raises(SearchError, match="dims"):
        run_search(SearchConfig(max_epochs=1), wrong, CCFG, train, valid)


def _all_pruned_genotype(arch):
    """What derive_genotype returned before it kept a step in every cell."""
    names = arch.config.sources()
    return Genotype(cells=(CellGene(inputs=(names[0], names[1]), steps=()),), config_hash=arch.config.hash())


def test_search_never_returns_an_unusable_genotype(monkeypatch):
    train, valid, space = _setup()
    monkeypatch.setattr(bilevel, "derive_genotype", _all_pruned_genotype)
    with pytest.raises(SearchError, match="all steps pruned"):
        run_search(SearchConfig(max_epochs=1, batch_size=8), space, CCFG, train, valid)


def test_diverged_weights_raise_search_error_with_their_position():
    train, valid, space = _setup()
    # one step at this rate sends the weights past float64 range
    with pytest.raises(SearchError, match=r"non-finite loss at epoch 1 phase train batch 1: ") as info:
        run_search(SearchConfig(max_epochs=1, batch_size=8, lr_weights=1e300), space, CCFG, train, valid)
    assert isinstance(info.value.__cause__, FloatingPointError)


class _PoisonAt:
    """Optimizer stand-in whose k-th step writes NaN into its vector's first entry."""

    def __init__(self, k):
        self.k, self.calls = k, 0

    def step(self, flat, grad):
        self.calls += 1
        if self.calls == self.k:
            flat[0] = np.nan


# a set that one phase steps and the next reads as plain arrays is named as its leaf would be
@pytest.mark.parametrize(
    "poisoned, where, leaf",
    [("weights", "phase valid batch 0", "proj/image:0/W"), ("arch", "phase valid batch 1", "alpha/c0")],
)
def test_a_non_finite_entry_is_named_at_the_first_batch_that_reads_it(poisoned, where, leaf):
    train, valid, space = _setup()  # 7 train and 2 valid batches
    scfg = SearchConfig(max_epochs=1, batch_size=8)
    state = init_search_state(scfg, space, CCFG)
    opt_w = _PoisonAt(7) if poisoned == "weights" else MomentumSGD(scfg.lr_weights, scfg.momentum)
    opt_arch = _PoisonAt(1) if poisoned == "arch" else Adam(scfg.lr_arch)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    message = rf"^non-finite loss at epoch 1 {where}: leaf:{leaf}: non-finite output$"
    with pytest.raises(SearchError, match=message):
        search_one_epoch(state, train, valid, scfg, CCFG, MixedFusionEncoder(space), head, opt_w, opt_arch)


# one epoch on _setup(): 7 train, 2 valid and 2 eval batches, one loss call each
@pytest.mark.parametrize("failing_call, where", [(3, "phase train batch 2"), (11, "phase eval batch 1")])
def test_contrastive_errors_raise_search_error_with_their_position(monkeypatch, failing_call, where):
    train, valid, space = _setup()
    calls = []

    def ntxent_loss(z, temperature):
        calls.append(1)
        if len(calls) == failing_call:
            raise ContrastiveError("zero-norm projection row: cosine similarity undefined")
        return NTXENT_LOSS(z, temperature)

    monkeypatch.setattr(bilevel, "ntxent_loss", ntxent_loss)
    with pytest.raises(SearchError, match=rf"^contrastive loss failed at epoch 1 {where}: zero-norm") as info:
        run_search(SearchConfig(max_epochs=1, batch_size=8), space, CCFG, train, valid)
    assert isinstance(info.value.__cause__, ContrastiveError)


def test_report_records_carry_required_fields():
    fields = {"epoch", "phase", "mean_loss", "lr", "wallclock_ms", "best_so_far"}
    train, valid, space = _setup(seed=10)
    rows = []
    run_search(SearchConfig(max_epochs=1, batch_size=8, seed=11), space, CCFG, train, valid, report=rows.append)
    assert len(rows) == 3
    for row in rows:
        assert set(row) == fields
    # every stage's epoch rows share the schema, in stage and phase order
    ds = generate(SyntheticSpec(num_samples=80, image_layer_dims=(10, 10), text_layer_dims=(10, 10), seed=10))
    pcfg = PipelineConfig(labeled_ratio=0.5, pretrain_epochs=2, pretrain_batch_size=8, clf_epochs=2)
    rows = []
    run_pipeline(ds, space, SearchConfig(max_epochs=2, batch_size=8), CCFG, pcfg, seed=11, report=rows.append)
    epoch_rows = [r for r in rows if "stage" not in r]
    assert [(r["epoch"], r["phase"]) for r in epoch_rows] == [
        (1, "train"), (1, "valid"), (1, "eval"), (2, "train"), (2, "valid"), (2, "eval"),
        (1, "pretrain"), (2, "pretrain"), (1, "fit"), (2, "fit"),
    ]
    for row in epoch_rows:
        assert set(row) == fields


def test_batch_indices_drop_singletons():
    chunks = batch_indices(7, 3, np.random.default_rng(0))
    assert [len(c) for c in chunks] == [3, 3]
    chunks = batch_indices(8, 3)
    assert [len(c) for c in chunks] == [3, 3, 2]


def test_stack_view_features_interleaves_pairs():
    ds = generate(
        SyntheticSpec(
            num_samples=4,
            image_layer_dims=(6,),
            text_layer_dims=(5,),
            signal_plan=(("image:0", 10.0), ("text:0", 10.0)),
            seed=0,
        )
    )
    idx = np.array([2, 0, 3])
    feats = stack_view_features(ds, idx, CCFG, np.random.default_rng(0), list(ds.features))
    assert [f.shape for f in feats] == [(6, 6), (6, 5)]
    # rows are both views of idx[0], then both of idx[1], ... in draw order
    rng = np.random.default_rng(0)
    for r, i in enumerate(idx):
        for v in (2 * r, 2 * r + 1):
            image, _, text = augment_view_oracle(
                [ds.features["image:0"][i]], [ds.features["text:0"][i]], ds.text_len, CCFG, rng
            )
            assert feats[0][v].tobytes() == image[0].tobytes()
            assert feats[1][v].tobytes() == text[0].tobytes()


def test_stack_view_features_follows_the_order_of_sources_and_rejects_unknown_ones():
    ds = generate(SyntheticSpec(num_samples=6, seed=0))
    every = stack_view_features(ds, np.arange(3), CCFG, np.random.default_rng(2), list(ds.features))
    some = stack_view_features(ds, np.arange(3), CCFG, np.random.default_rng(2), ["text:1", "image:0"])
    assert [v.tobytes() for v in some] == [every[3].tobytes(), every[0].tobytes()]
    with pytest.raises(ContrastiveError, match=r"no source\(s\) \['image:7'\]"):
        stack_view_features(ds, np.arange(3), CCFG, np.random.default_rng(2), ["image:0", "image:7"])


@pytest.mark.parametrize(
    "cells, steps, nodes", [(1, 2, (47, 42, 15)), (2, 3, (94, 80, 32))], ids=["default-1x2", "deep-2x3"]
)
def test_search_batch_tape_size(cells, steps, nodes):
    # one node per mixed step, cell-input slot, affine layer and loss, with
    # every weight and logit a leaf, with the weights only (a train batch) and
    # with the logits only (a valid batch); with every leaf, generic slot
    # nodes recorded 50 and 100, generic step nodes 70 and 160, and per-pair
    # mixtures with unfused layers 193 and 554
    ds = generate(SyntheticSpec(num_samples=8, seed=0))
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=cells, steps_per_cell=steps
    )
    state = init_search_state(SearchConfig(), space, CCFG)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    feats = stack_view_features(ds, np.arange(4), CCFG, np.random.default_rng(0), space.sources())
    counts = []
    for leaves in (("weights", "arch"), ("weights",), ("arch",)):
        tape = Tape()
        w, a = state.weights, state.arch.named()
        w = {k: tape.leaf(v, k) for k, v in w.items()} if "weights" in leaves else w
        a = {k: tape.leaf(v, k) for k, v in a.items()} if "arch" in leaves else a
        contrastive_batch_loss(MixedFusionEncoder(space), head, w, a, feats, CCFG.temperature)
        counts.append(len(tape))
    assert tuple(counts) == nodes


def _deep_epoch_setup(n):
    """An n-sample dataset, a 2 x 3 space and what one search epoch over it needs."""
    ds = generate(SyntheticSpec(num_samples=n, seed=0))
    space = SearchSpaceConfig(features_per_modality=(ds.image_dims, ds.text_dims), num_cells=2, steps_per_cell=3)
    scfg = SearchConfig(max_epochs=1, batch_size=8)
    state = init_search_state(scfg, space, CCFG)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    optimizers = (MomentumSGD(scfg.lr_weights, scfg.momentum), Adam(scfg.lr_arch))
    return ds, space, scfg, state, head, optimizers


@pytest.mark.parametrize("phase", ["train", "valid", "eval"])
def test_search_batch_reaches_the_boundaries_the_benchmark_traces(phase, monkeypatch):
    # perfbench/spans.py times these three functions by replacing the module
    # attribute, and names each primitive span after apply_primitive's first
    # argument; the per-primitive metrics exist only while every batch of
    # search_epoch, which runs from its phase's plan, calls both slots of a
    # cell, then each mixed step with every primitive in PRIMITIVES order,
    # Zero included
    import mmnas.searchspace as searchspace

    calls = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(("enter", name, args[0] if name == "apply_primitive" else None))
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append(("exit", name, None))

        return wrapper

    for name in ("apply_primitive", "mixed_step", "mixed_cell_input"):
        monkeypatch.setattr(searchspace, name, traced(name, getattr(searchspace, name)))
    ds, space, scfg, state, head, (opt_w, opt_arch) = _deep_epoch_setup(8)  # one batch per phase
    search_one_epoch(state, ds, ds, scfg, CCFG, MixedFusionEncoder(space), head, opt_w, opt_arch)

    slot = [("enter", "mixed_cell_input", None), ("exit", "mixed_cell_input", None)]
    step = [("enter", "mixed_step", None)]
    for op in PRIMITIVES:
        step += [("enter", "apply_primitive", op), ("exit", "apply_primitive", None)]
    step += [("exit", "mixed_step", None)]
    batch = (2 * slot + 3 * step) * 2
    assert len(calls) == 3 * len(batch)
    at = ("train", "valid", "eval").index(phase) * len(batch)
    assert calls[at:at + len(batch)] == batch


def test_no_batch_scans_the_set_its_phase_reads_as_plain_arrays(monkeypatch):
    # each phase checks its plain set once, as it builds its plan; a batch
    # wraps only its own feature arrays (the parent wrapped 8, 22 and 24
    # arrays per train, valid and eval batch, 4 of them the features)
    inits, per_batch = [], []
    tensor_init = Tensor.__init__

    def counting_init(self, data, *args, **kwargs):
        inits.append(data)
        tensor_init(self, data, *args, **kwargs)

    def batch_loss(encoder, head, weights, arch, feats, *rest):
        start = len(inits)
        loss = BATCH_LOSS(encoder, head, weights, arch, feats, *rest)
        per_batch.append(sum(not any(d is f for f in feats) for d in inits[start:]))
        return loss

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(bilevel, "contrastive_batch_loss", batch_loss)
    ds, space, scfg, state, head, (opt_w, opt_arch) = _deep_epoch_setup(16)  # two batches per phase
    search_one_epoch(state, ds, ds, scfg, CCFG, MixedFusionEncoder(space), head, opt_w, opt_arch)
    assert per_batch == [0] * 6


def test_every_trace_point_of_the_benchmark_resolves():
    # perfbench/spans.py skips a boundary it cannot find, so a renamed
    # function would silently drop its metric; read its table without
    # importing it and resolve each entry as its tracer does
    import ast
    import importlib
    from pathlib import Path

    source = (Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text()
    table = next(
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES" for t in node.targets)
    )
    missing = []
    for _, module, attr in ast.literal_eval(table):
        owner = importlib.import_module(f"mmnas.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == ["pipeline.raw_features"]  # gone since the columnar dataset


def test_search_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        SearchConfig(batch_size=1)
    with pytest.raises(ValueError, match="max_epochs"):
        SearchConfig(max_epochs=0)


def test_planted_layers_recovered_quickly():
    # small single-seed version of the recovery experiment
    ds = generate(SyntheticSpec(num_samples=300, image_layer_dims=(16, 16), text_layer_dims=(16, 16), seed=1))
    splits = split(ds, 0.2, seed=0)
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=1, steps_per_cell=1, hidden_dim=8
    )
    genotype, _ = run_search(
        SearchConfig(max_epochs=3, batch_size=16, seed=3), space, CCFG, splits.search_train, splits.search_valid
    )
    assert set(genotype.cells[0].inputs) == {"image:0", "text:1"}


def test_each_phase_puts_only_what_it_steps_on_the_tape(monkeypatch):
    train, valid, space = _setup()
    scfg = SearchConfig(max_epochs=1, batch_size=8, seed=12)
    state = init_search_state(scfg, space, CCFG)
    leaf_names = []
    backward = Tape.backward

    def watch(tape, root):
        leaf_names.append([n.op[len("leaf:"):] for n in tape._nodes if n.op.startswith("leaf:")])
        return backward(tape, root)

    monkeypatch.setattr(Tape, "backward", watch)
    search_one_epoch(
        state, train, valid, scfg, CCFG, MixedFusionEncoder(space),
        ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim),
        MomentumSGD(scfg.lr_weights, scfg.momentum), Adam(scfg.lr_arch),
    )
    n_train = len(batch_indices(len(train), scfg.batch_size))
    n_valid = len(batch_indices(len(valid), scfg.batch_size))
    assert len(leaf_names) == n_train + n_valid
    assert leaf_names[:n_train] == [list(state.weights)] * n_train
    assert leaf_names[n_train:] == [list(state.arch.named())] * n_valid


def _search_with_both_sets_on_the_tape(train, valid, space, scfg):
    """The bilevel alternation written out with every weight and logit a leaf
    in both phases and the chain of generic nodes as the forward pass,
    stepped by the per-array optimizer references, then the checkpoint pass
    and its best snapshot. Returns the weights, the logits, the mean loss of
    every phase in order and the best logits."""
    state = init_search_state(scfg, space, CCFG)
    weights = {k: v.copy() for k, v in state.weights.items()}
    arch = {k: v.copy() for k, v in state.arch.named().items()}
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)

    def loss_of(w, a, feats):
        return ntxent_loss(head.forward(w, mixed_forward_composed(space, w, a, feats)), CCFG.temperature)

    opts = (
        (weights, MomentumSGDOracle(scfg.lr_weights, scfg.momentum)),
        (arch, AdamOracle(scfg.lr_arch, 0.9, 0.999, 1e-8)),
    )
    mean_losses, best, best_arch = [], float("inf"), None
    for epoch in range(scfg.max_epochs):
        for i, (ds, (stepped, opt)) in enumerate(zip((train, valid), opts)):
            shuffle = seeded_rng(scfg.seed, TAG_SHUFFLE, epoch, i)
            augment = seeded_rng(scfg.seed, TAG_AUGMENT, epoch, i)
            losses = []
            for idx in batch_indices(len(ds), scfg.batch_size, shuffle):
                feats = stack_view_features(ds, idx, CCFG, augment, space.sources())
                tape = Tape()
                w = {k: tape.leaf(v, k) for k, v in weights.items()}
                a = {k: tape.leaf(v, k) for k, v in arch.items()}
                loss = loss_of(w, a, feats)
                grads = tape.backward(loss)
                leaves = {**w, **a}
                opt.step(stepped, {k: grads.of(leaves[k]) for k in stepped})
                losses.append(float(loss.data))
            mean_losses.append(float(np.mean(losses)))
        augment = seeded_rng(scfg.seed, TAG_AUGMENT, epoch, 2)
        losses = [
            float(loss_of(weights, arch, stack_view_features(valid, idx, CCFG, augment, space.sources())).data)
            for idx in batch_indices(len(valid), scfg.batch_size)
        ]
        mean_losses.append(float(np.mean(losses)))
        if mean_losses[-1] < best:
            best, best_arch = mean_losses[-1], {k: v.copy() for k, v in arch.items()}
    return weights, arch, mean_losses, best_arch


def test_phase_only_tapes_and_flat_steps_are_bitwise_the_full_tape_search():
    # every phase of every epoch runs from a plan of its own: a plan reused
    # across phases or epochs reads stale logits or weights
    train, valid, space = _setup(n=60, seed=13, hidden=4)
    scfg = SearchConfig(max_epochs=2, batch_size=8, seed=14)
    weights, arch, mean_losses, best_arch = _search_with_both_sets_on_the_tape(train, valid, space, scfg)
    _, state, rows = _search_rows(scfg, space, train, valid)
    assert _weights_bytes(state.weights) == _weights_bytes(weights)
    assert _weights_bytes(state.arch.named()) == _weights_bytes(arch)
    assert [r["mean_loss"] for r in rows] == mean_losses
    assert _weights_bytes(state.best_arch.named()) == _weights_bytes(best_arch)


@pytest.mark.parametrize("phase", ["train", "valid", "eval"])
@pytest.mark.parametrize("cells, steps", [(1, 2), (2, 3)], ids=["1x2", "2x3"])
def test_a_phase_plan_is_bitwise_the_per_call_path_and_the_generic_chain(cells, steps, phase):
    """One plan serves every batch of a phase while the set the phase steps
    changes in place between batches: each batch's loss and gradient equal,
    bit for bit, those of a forward that plans on the spot and those of the
    chain of generic nodes that the one-node slots and steps replace."""
    ds = generate(SyntheticSpec(num_samples=24, seed=1))
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=cells, steps_per_cell=steps
    )
    state = init_search_state(SearchConfig(seed=3), space, CCFG)
    rng = np.random.default_rng(4)
    state.arch.flat[:] = rng.standard_normal(state.arch.flat.shape)  # away from the near-uniform init
    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    sets = {"weights": (state.weights, state.flat_weights), "arch": (state.arch.named(), state.arch.flat)}
    stepped = {"train": "weights", "valid": "arch", "eval": None}[phase]
    plain = {k: ad.constants(*s) for k, s in sets.items() if k != stepped}
    plan = None
    for batch in range(3):
        feats = stack_view_features(ds, np.arange(8 * batch, 8 * batch + 8), CCFG, rng, space.sources())
        results = []
        for path in ("plan", "per-call", "generic"):
            tape = Tape()
            operands = dict(plain) if path == "plan" else {k: s[0] for k, s in sets.items()}
            if stepped:
                leaves = operands[stepped] = tape.leaves(*sets[stepped])
            w, a = operands["weights"], operands["arch"]
            if path == "plan":
                plan = plan or encoder.plan(w, a)
                h = encoder.forward(w, a, feats, plan)
            elif path == "per-call":
                h = encoder.forward(w, a, feats)
            else:
                h = mixed_forward_composed(space, w, a, feats)
            loss = ntxent_loss(head.forward(w, h), CCFG.temperature)
            results.append((loss.data, tape.backward(loss).flat(leaves) if stepped else None))
        (loss, grad), *others = results
        for other_loss, other_grad in others:
            assert np.array_equal(other_loss, loss)
            assert np.array_equal(other_grad, grad)
        if stepped:
            flat = sets[stepped][1]
            flat -= 0.5 * grad  # in place, as the optimizers step
