import numpy as np
import pytest

from helpers import AdamOracle, MomentumSGDOracle, augment_view_oracle

import mmnas.bilevel as bilevel
from mmnas.autodiff import Tape
from mmnas.bilevel import (
    SearchConfig,
    SearchError,
    batch_indices,
    contrastive_batch_loss,
    init_search_state,
    run_search,
    search_epoch,
    stack_view_features,
)
from mmnas.contrastive import ContrastiveConfig, ContrastiveError, ProjectionHead
from mmnas.data import SyntheticSpec, generate, split
from mmnas.optim import Adam, MomentumSGD
from mmnas.searchspace import CellGene, Genotype, MixedFusionEncoder, SearchSpaceConfig
from mmnas.util import TAG_AUGMENT, TAG_SHUFFLE, seeded_rng

CCFG = ContrastiveConfig()
NTXENT_LOSS = bilevel.ntxent_loss


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
    records = search_epoch(
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
    search_epoch(
        state, train, valid, scfg, CCFG, encoder, head,
        MomentumSGD(scfg.lr_weights, scfg.momentum), Adam(scfg.lr_arch), report=watch,
    )
    assert "w_after_train" in seen


def test_full_run_determinism():
    train, valid, space = _setup(seed=3)
    scfg = SearchConfig(max_epochs=2, batch_size=8, seed=5)
    g1, s1 = run_search(scfg, space, CCFG, train, valid)
    g2, s2 = run_search(scfg, space, CCFG, train, valid)
    assert g1.hash() == g2.hash()
    assert [r["mean_loss"] for r in s1.history] == [r["mean_loss"] for r in s2.history]
    assert s1.best_valid_loss == s2.best_valid_loss


def test_different_seed_changes_trajectory_but_keeps_invariants():
    train, valid, space = _setup(seed=4)
    g1, s1 = run_search(SearchConfig(max_epochs=1, batch_size=8, seed=1), space, CCFG, train, valid)
    g2, s2 = run_search(SearchConfig(max_epochs=1, batch_size=8, seed=2), space, CCFG, train, valid)
    assert [r["mean_loss"] for r in s1.history] != [r["mean_loss"] for r in s2.history]
    for state in (s1, s2):
        for vec in state.arch.named().values():
            e = np.exp(vec - vec.max())
            assert abs((e / e.sum()).sum() - 1.0) < 1e-12


def test_best_checkpoint_is_monotone():
    train, valid, space = _setup(seed=6)
    _, state = run_search(SearchConfig(max_epochs=4, batch_size=8, seed=7), space, CCFG, train, valid)
    bests = [r["best_so_far"] for r in state.history if r["phase"] == "eval"]
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
    with np.errstate(over="ignore", invalid="ignore"):
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
        search_epoch(state, train, valid, scfg, CCFG, MixedFusionEncoder(space), head, opt_w, opt_arch)


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
    train, valid, space = _setup(seed=10)
    rows = []
    run_search(SearchConfig(max_epochs=1, batch_size=8, seed=11), space, CCFG, train, valid, report=rows.append)
    assert len(rows) == 3
    for row in rows:
        assert {"epoch", "phase", "mean_loss", "lr", "wallclock_ms", "best_so_far"} <= set(row)


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
    feats = stack_view_features(ds, idx, CCFG, np.random.default_rng(0))
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


@pytest.mark.parametrize(
    "cells, steps, nodes", [(1, 2, 70), (2, 3, 160)], ids=["default-1x2", "deep-2x3"]
)
def test_search_batch_tape_size(cells, steps, nodes):
    # one node per softmax mixture, affine layer, attention, GLU and loss,
    # one concat per mixed step; a per-pair mixture with unfused layers
    # recorded 193 nodes on the default space and 554 on the deep one
    ds = generate(SyntheticSpec(num_samples=8, seed=0))
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=cells, steps_per_cell=steps
    )
    state = init_search_state(SearchConfig(), space, CCFG)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    feats = stack_view_features(ds, np.arange(4), CCFG, np.random.default_rng(0))
    tape = Tape()
    w = {k: tape.leaf(v, k) for k, v in state.weights.items()}
    a = {k: tape.leaf(v, k) for k, v in state.arch.named().items()}
    contrastive_batch_loss(MixedFusionEncoder(space), head, w, a, feats, CCFG.temperature)
    assert len(tape) == nodes


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
    search_epoch(
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
    in both phases, stepped by the per-array optimizer references."""
    state = init_search_state(scfg, space, CCFG)
    weights = {k: v.copy() for k, v in state.weights.items()}
    arch = {k: v.copy() for k, v in state.arch.named().items()}
    encoder = MixedFusionEncoder(space)
    head = ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim)
    opts = (
        (weights, MomentumSGDOracle(scfg.lr_weights, scfg.momentum)),
        (arch, AdamOracle(scfg.lr_arch, scfg.adam_beta1, scfg.adam_beta2, scfg.adam_eps)),
    )
    for epoch in range(scfg.max_epochs):
        for i, (ds, (stepped, opt)) in enumerate(zip((train, valid), opts)):
            shuffle = seeded_rng(scfg.seed, TAG_SHUFFLE, epoch, i)
            augment = seeded_rng(scfg.seed, TAG_AUGMENT, epoch, i)
            for idx in batch_indices(len(ds), scfg.batch_size, shuffle):
                feats = stack_view_features(ds, idx, CCFG, augment)
                tape = Tape()
                w = {k: tape.leaf(v, k) for k, v in weights.items()}
                a = {k: tape.leaf(v, k) for k, v in arch.items()}
                grads = tape.backward(contrastive_batch_loss(encoder, head, w, a, feats, CCFG.temperature))
                leaves = {**w, **a}
                opt.step(stepped, {k: grads.of(leaves[k]) for k in stepped})
    return weights, arch


def test_phase_only_tapes_and_flat_steps_are_bitwise_the_full_tape_search():
    train, valid, space = _setup(n=60, seed=13, hidden=4)
    scfg = SearchConfig(max_epochs=2, batch_size=8, seed=14)
    weights, arch = _search_with_both_sets_on_the_tape(train, valid, space, scfg)
    _, state = run_search(scfg, space, CCFG, train, valid)
    assert _weights_bytes(state.weights) == _weights_bytes(weights)
    assert _weights_bytes(state.arch.named()) == _weights_bytes(arch)
