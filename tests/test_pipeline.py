import numpy as np
import pytest

from helpers import bce_oracle, check_gradients, weighted_f1_oracle

import mmnas.autodiff as ad
from mmnas.contrastive import ContrastiveConfig, ContrastiveError, ProjectionHead
from mmnas.data import Dataset, SyntheticSpec, generate, split
from mmnas.bilevel import SearchConfig
from mmnas.checkpoint import load_weights
from mmnas.pipeline import (
    PipelineConfig,
    PipelineError,
    bce_with_logits,
    encode_dataset,
    fit_classifier,
    predict_bits,
    pretrain,
    run_pipeline,
    weighted_f1,
)
from mmnas.searchspace import (
    CellGene,
    Genotype,
    SearchSpaceConfig,
    StepGene,
    instantiate,
)
from mmnas.util import TAG_PRETRAIN_INIT, seeded_rng

CCFG = ContrastiveConfig()
# no pretraining epoch: pretrain returns the initialization
INIT_ONLY = PipelineConfig(pretrain_epochs=0, pretrain_lr=0.0)


def _dataset(n=60, seed=0):
    return generate(
        SyntheticSpec(num_samples=n, image_layer_dims=(10, 10), text_layer_dims=(10, 10), seed=seed)
    )


def _space(ds, hidden=6):
    return SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims),
        num_cells=1,
        steps_per_cell=1,
        hidden_dim=hidden,
    )


def _genotype(space):
    return Genotype(
        cells=(
            CellGene(
                inputs=("image:0", "text:1"),
                steps=(StepGene(pair=("image:0", "text:1"), op="Sum"),),
            ),
        ),
        config_hash=space.hash(),
    )


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_pretrain_zero_epochs_returns_initialization():
    ds = _dataset()
    space = _space(ds)
    genotype = _genotype(space)
    weights = pretrain(genotype, space, CCFG, PipelineConfig(pretrain_epochs=0, pretrain_lr=0.1), ds, seed=4)
    encoder = instantiate(genotype, space)
    rng = seeded_rng(4, TAG_PRETRAIN_INIT)
    fresh = encoder.init_weights(rng)
    fresh.update(ProjectionHead(space.hidden_dim, CCFG.proj_hidden_dim, CCFG.proj_dim).init_weights(rng))
    assert sorted(weights) == sorted(fresh)
    for k in fresh:
        assert weights[k].tobytes() == fresh[k].tobytes()


def test_pretrain_is_deterministic():
    ds = _dataset()
    space = _space(ds)
    genotype = _genotype(space)
    records1, records2 = [], []
    pcfg = PipelineConfig(pretrain_epochs=2, pretrain_lr=0.05)
    pretrain(genotype, space, CCFG, pcfg, ds, seed=5, report=records1.append)
    pretrain(genotype, space, CCFG, pcfg, ds, seed=5, report=records2.append)
    assert [r["mean_loss"] for r in records1] == [r["mean_loss"] for r in records2]


def test_pretrain_loss_decreases_with_training():
    ds = _dataset(n=80)
    space = _space(ds)
    genotype = _genotype(space)
    records = []
    pcfg = PipelineConfig(pretrain_epochs=4, pretrain_lr=0.05)
    pretrain(genotype, space, CCFG, pcfg, ds, seed=7, report=records.append)
    assert records[-1]["mean_loss"] < records[0]["mean_loss"]


def test_pretrain_wraps_non_finite_loss_with_its_position():
    ds = _dataset()
    space = _space(ds)
    genotype = _genotype(space)
    # one step at this rate sends the weights past float64 range
    with pytest.raises(PipelineError, match=r"pretrain: non-finite loss at epoch 1 batch 1: ") as info:
        pretrain(genotype, space, CCFG, PipelineConfig(pretrain_epochs=2, pretrain_lr=1e300), ds, seed=6)
    assert isinstance(info.value.__cause__, ad.NonFiniteError)


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "fine-tuned"])
def test_fit_wraps_non_finite_loss_with_its_position(freeze):
    ds = _dataset(n=40)
    space = _space(ds)
    genotype = _genotype(space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=6)
    # one Adam step at this rate sends the trainables to about 1e308, and the
    # next batch's forward pass past float64 range
    pcfg = PipelineConfig(clf_epochs=2, clf_lr=1e308, clf_batch_size=16, freeze_encoder=freeze)
    with pytest.raises(PipelineError, match=r"^fit: non-finite loss at epoch 1 batch 1: ") as info:
        fit_classifier(instantiate(genotype, space), weights, ds, pcfg, seed=6)
    assert isinstance(info.value.__cause__, ad.NonFiniteError)


def test_fit_names_the_optimizer_step_that_overflows_adam():
    # frozen features this large give gradient entries past ~1.3e154, whose
    # squares overflow Adam's second moment at the first step
    ds = _dataset(n=40)
    huge = Dataset({src: x * 1e160 for src, x in ds.features.items()}, ds.labels, ds.text_len)
    space = _space(ds)
    genotype = _genotype(space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=6)
    message = r"^fit: non-finite optimizer step at epoch 1 batch 0: adam: non-finite second moment$"
    with pytest.raises(PipelineError, match=message) as info:
        fit_classifier(instantiate(genotype, space), weights, huge, PipelineConfig(clf_epochs=3), seed=6)
    assert isinstance(info.value.__cause__, ad.NonFiniteError)


def _concat_fc_genotype(space):
    return Genotype(
        cells=(CellGene(inputs=("image:0", "text:1"), steps=(StepGene(pair=("image:0", "text:1"), op="ConcatFC"),)),),
        config_hash=space.hash(),
    )


def test_pretrain_positions_a_zero_norm_projection():
    # the probe setting below, at seed 14: with every bias still zero, every
    # ReLU unit of the ConcatFC step dies for one view of the first batch,
    # so its encoder output and projection are zero rows
    ds = _dataset(n=200, seed=15)
    space = _space(ds, hidden=8)
    splits = split(ds, 0.3, seed=0)
    pcfg = PipelineConfig(pretrain_epochs=4, pretrain_lr=0.05, pretrain_batch_size=16)
    with pytest.raises(
        PipelineError, match=r"^pretrain: contrastive loss failed at epoch 1 batch 0: zero-norm projection row"
    ) as info:
        pretrain(_concat_fc_genotype(space), space, CCFG, pcfg, splits.search_train, seed=14)
    assert isinstance(info.value.__cause__, ContrastiveError)


def test_pretrain_positions_the_zero_norm_projection_of_all_zero_rows():
    # every bias starts at zero, so all-zero rows stay zero through the
    # encoder and the head whatever the draws, and their views stay zero:
    # without a jitter scale or noise no augmentation moves a zero
    ds = _dataset(n=200, seed=15)
    ds = Dataset({src: np.zeros_like(x) for src, x in ds.features.items()}, ds.labels, ds.text_len)
    space = _space(ds, hidden=8)
    ccfg = ContrastiveConfig(jitter_scale=0.0, noise_scale=0.0)
    pcfg = PipelineConfig(pretrain_epochs=4, pretrain_lr=0.05, pretrain_batch_size=16)
    with pytest.raises(
        PipelineError, match=r"^pretrain: contrastive loss failed at epoch 1 batch 0: zero-norm projection row"
    ) as info:
        pretrain(_concat_fc_genotype(space), space, ccfg, pcfg, ds, seed=3)
    assert isinstance(info.value.__cause__, ContrastiveError)


# ---------------------------------------------------------------------------
# classifier fitting
# ---------------------------------------------------------------------------

def test_fit_overfits_one_sample():
    ds = _dataset(n=30, seed=1)
    space = _space(ds)
    genotype = _genotype(space)
    encoder = instantiate(genotype, space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=0)
    one = ds.subset([3])
    records = []
    pcfg = PipelineConfig(clf_epochs=300, clf_lr=0.1, clf_batch_size=1)
    fit_classifier(encoder, weights, one, pcfg, seed=0, report=records.append)
    assert records[-1]["mean_loss"] < 1e-3


def test_fit_all_zero_labels_drives_sigmoids_down():
    ds = _dataset(n=20, seed=2)
    ds = Dataset(ds.features, np.zeros_like(ds.labels), ds.text_len)
    space = _space(ds)
    genotype = _genotype(space)
    encoder = instantiate(genotype, space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=1)
    pcfg = PipelineConfig(clf_epochs=400, clf_lr=0.1, clf_batch_size=20)
    model = fit_classifier(encoder, weights, ds, pcfg, seed=1)
    h = encode_dataset(encoder, model, ds)
    probs = 1.0 / (1.0 + np.exp(-(h @ model["clf/W"] + model["clf/b"])))
    assert np.all(probs < 0.01)
    preds = predict_bits(encoder, model, ds)
    assert not preds.any()


def test_a_label_is_predicted_where_its_logit_is_at_least_zero():
    # the bias alone sets each logit; sigmoid(+-1e-16) rounds to exactly 0.5,
    # and a sigmoid of -1e4 would overflow exp (Tier-1 fails on the warning)
    ds = _dataset(n=6, seed=2)
    space = _space(ds)
    genotype = _genotype(space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=1)
    b = np.array([0.0, 1e-16, -1e-16, -1e4])
    model = {**weights, "clf/W": np.zeros((space.hidden_dim, len(b))), "clf/b": b}
    preds = predict_bits(instantiate(genotype, space), model, ds)
    assert preds.dtype == np.uint8
    assert preds.tolist() == [[1, 1, 0, 0]] * len(ds)


def test_fit_frozen_encoder_is_bitwise_frozen():
    ds = _dataset(n=24, seed=3)
    space = _space(ds)
    genotype = _genotype(space)
    encoder = instantiate(genotype, space)
    weights = pretrain(genotype, space, CCFG, PipelineConfig(pretrain_epochs=1, pretrain_lr=0.05), ds, seed=2)
    before = {k: v.tobytes() for k, v in weights.items()}
    pcfg = PipelineConfig(clf_epochs=5, clf_lr=0.05, freeze_encoder=True)
    model = fit_classifier(encoder, weights, ds, pcfg, seed=2)
    for k in weights:
        assert model[k].tobytes() == before[k]
    assert "clf/W" in model and "clf/b" in model


def test_fit_finetune_updates_encoder_without_touching_input():
    ds = _dataset(n=24, seed=4)
    space = _space(ds)
    genotype = _genotype(space)
    encoder = instantiate(genotype, space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=3)
    before = {k: v.tobytes() for k, v in weights.items()}
    pcfg = PipelineConfig(clf_epochs=3, clf_lr=0.05, freeze_encoder=False)
    model = fit_classifier(encoder, weights, ds, pcfg, seed=3)
    # caller's arrays untouched, fitted copy moved
    assert all(weights[k].tobytes() == before[k] for k in weights)
    moved = [k for k in weights if k.startswith(("proj/", "cell")) and model[k].tobytes() != before[k]]
    assert moved


def test_fit_requires_labels():
    ds = _dataset(n=10, seed=5)
    unlabeled = ds.subset(range(10), strip_labels=True)
    space = _space(ds)
    genotype = _genotype(space)
    encoder = instantiate(genotype, space)
    weights = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=0)
    pcfg = PipelineConfig(clf_epochs=1, clf_lr=0.1)
    with pytest.raises(PipelineError, match="labels"):
        fit_classifier(encoder, weights, unlabeled, pcfg, seed=0)
    with pytest.raises(PipelineError, match="empty"):
        fit_classifier(encoder, weights, ds.subset([]), pcfg, seed=0)


def test_losses_match_finite_differences():
    rng = np.random.default_rng(6)
    logits0 = rng.standard_normal((4, 3))
    targets = (rng.random((4, 3)) < 0.4).astype(np.float64)
    check_gradients(lambda lv: bce_with_logits(lv["x"], targets), {"x": logits0.copy()}, tol=1e-6)


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((5, 4)) * 3
    targets = (rng.random((5, 4)) < 0.5).astype(np.float64)
    mine = float(bce_with_logits(ad.constant(logits), targets).data)
    probs = 1.0 / (1.0 + np.exp(-logits))
    direct = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
    assert abs(mine - direct) < 1e-9


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(103)
    for i in range(100):
        shape = ((1, 1), (1, 4), (3, 2), (6, 5))[i % 4]
        logits = rng.standard_normal(shape) * (1.0, 4.0)[i % 2]
        targets = (rng.random(shape) < 0.5).astype(np.float64)
        check_gradients(lambda lv: bce_with_logits(lv["x"], targets), {"x": logits}, tol=1e-6)
    tails = np.array([[800.0, -800.0, 800.0, -800.0]])
    check_gradients(lambda lv: bce_with_logits(lv["x"], np.array([[1.0, 0.0, 0.0, 1.0]])), {"x": tails}, tol=1e-6)


@pytest.mark.parametrize(
    "logits, targets",
    [
        (np.array([[800.0, -800.0, 800.0, -800.0]]), np.array([[1.0, 0.0, 0.0, 1.0]])),
        (np.array([[800.0], [-800.0]]), np.array([[0.0], [0.0]])),
        (np.array([[800.0], [-800.0]]), np.array([[1.0], [1.0]])),
        (np.array([[0.3, -2.0, 5.0]]), np.array([[1.0, 1.0, 0.0]])),
        (np.random.default_rng(104).standard_normal((7, 3)) * 6.0, np.random.default_rng(105).random((7, 3)) < 0.5),
    ],
    ids=["tails-one-row", "tails-targets-0", "tails-targets-1", "single-row", "random"],
)
def test_bce_matches_the_numpy_oracle(logits, targets):
    mine = float(bce_with_logits(ad.constant(logits), targets).data)
    ref = bce_oracle(logits, targets)
    assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_bce_is_one_tape_node():
    tape = ad.Tape()
    x = tape.leaf(np.random.default_rng(106).standard_normal((5, 3)), "x")
    loss = bce_with_logits(x, np.zeros((5, 3)))
    assert len(tape) == 2 and loss.tape is tape


def test_bce_rejects_mismatched_targets_before_recording():
    tape = ad.Tape()
    x = tape.leaf(np.zeros((5, 3)), "x")
    with pytest.raises(PipelineError, match="targets of shape"):
        bce_with_logits(x, np.zeros((5, 2)))
    assert len(tape) == 1


def test_removing_projection_head_never_changes_encoder_output():
    ds = _dataset(n=12, seed=8)
    space = _space(ds)
    genotype = _genotype(space)
    encoder = instantiate(genotype, space)
    weights = pretrain(genotype, space, CCFG, PipelineConfig(pretrain_epochs=1, pretrain_lr=0.05), ds, seed=5)
    with_head = encode_dataset(encoder, weights, ds)
    stripped = {k: v for k, v in weights.items() if not k.startswith("head/")}
    without_head = encode_dataset(encoder, stripped, ds)
    assert with_head.tobytes() == without_head.tobytes()


# ---------------------------------------------------------------------------
# weighted F1
# ---------------------------------------------------------------------------

def test_weighted_f1_perfect_is_one():
    truth = np.array([[1, 0], [0, 1], [1, 1]])
    assert weighted_f1(truth, truth) == 1.0


def test_weighted_f1_hand_case_two_thirds():
    truth = np.array([[1, 0], [1, 0]])
    pred = np.array([[1, 0], [0, 0]])
    assert abs(weighted_f1(pred, truth) - 2.0 / 3.0) < 1e-12


def test_weighted_f1_all_zero_predictions_score_zero():
    truth = np.array([[1, 0], [1, 1]])
    pred = np.zeros_like(truth)
    assert weighted_f1(pred, truth) == 0.0


def test_weighted_f1_empty_rejected():
    with pytest.raises(PipelineError, match="non-empty"):
        weighted_f1(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(PipelineError, match="mismatch"):
        weighted_f1(np.zeros((2, 2)), np.zeros((2, 3)))


def test_weighted_f1_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        labels = int(rng.integers(1, 6))
        truth = (rng.random((n, labels)) < 0.35).astype(np.uint8)
        pred = (rng.random((n, labels)) < 0.5).astype(np.uint8)
        assert abs(weighted_f1(pred, truth) - weighted_f1_oracle(pred, truth)) < 1e-12


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _pipe_cfgs(**kw):
    defaults = dict(
        labeled_ratio=0.3,
        pretrain_epochs=2,
        clf_epochs=30,
        pretrain_batch_size=8,
        clf_batch_size=16,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


SCFG = SearchConfig(max_epochs=1, batch_size=8)


def test_stage_one_only_emits_genotype_and_search_report(tmp_path):
    ds = _dataset(n=50, seed=10)
    space = _space(ds)
    pcfg = _pipe_cfgs()
    reports, artifacts = run_pipeline(ds, space, SCFG, CCFG, pcfg, seed=1, out_dir=tmp_path, last_stage="search")
    assert [r["stage"] for r in reports] == ["search"]
    assert (tmp_path / "genotype.json").exists()
    assert not (tmp_path / "encoder.mmnw").exists()
    assert not (tmp_path / "model.mmnw").exists()
    assert "weighted_f1" not in artifacts


def test_full_run_is_deterministic(tmp_path):
    ds = _dataset(n=60, seed=11)
    space = _space(ds)
    pcfg = _pipe_cfgs()
    r1, a1 = run_pipeline(ds, space, SCFG, CCFG, pcfg, seed=3, out_dir=tmp_path / "a")
    r2, a2 = run_pipeline(ds, space, SCFG, CCFG, pcfg, seed=3, out_dir=tmp_path / "b")
    assert a1["genotype"].hash() == a2["genotype"].hash()
    assert a1["weighted_f1"] == a2["weighted_f1"]
    assert (tmp_path / "a" / "genotype.json").read_bytes() == (tmp_path / "b" / "genotype.json").read_bytes()


def test_unknown_last_stage_is_rejected():
    ds = _dataset(n=40, seed=12)
    with pytest.raises(PipelineError, match="last_stage"):
        run_pipeline(ds, _space(ds), SCFG, CCFG, _pipe_cfgs(), seed=0, last_stage="eval")


def test_zero_pretrain_epochs_is_the_random_encoder(tmp_path):
    ds = _dataset(n=60, seed=12)
    space = _space(ds)
    genotype = _genotype(space)
    reports, artifacts = run_pipeline(
        ds, space, SCFG, CCFG, _pipe_cfgs(pretrain_epochs=0), seed=4, out_dir=tmp_path, genotype=genotype
    )
    assert [r["stage"] for r in reports] == ["pretrain", "fit"]
    init = pretrain(genotype, space, CCFG, INIT_ONLY, ds, seed=4)
    saved = load_weights(tmp_path / "encoder.mmnw")
    assert saved.keys() == init.keys()
    assert all(np.array_equal(saved[k], init[k]) for k in init)
    assert not (tmp_path / "genotype.json").exists()


def test_r_equal_one_fails_stage_one_clearly():
    ds = _dataset(n=40, seed=13)
    space = _space(ds)
    pcfg = _pipe_cfgs(labeled_ratio=1.0)
    with pytest.raises(PipelineError, match="unlabeled pool is empty"):
        run_pipeline(ds, space, SCFG, CCFG, pcfg, seed=0)


def test_label_budget_accounting():
    ds = _dataset(n=63, seed=14)
    space = _space(ds)
    pcfg = _pipe_cfgs(labeled_ratio=0.4)
    reports, _ = run_pipeline(ds, space, SCFG, CCFG, pcfg, seed=2)
    fit_report = [r for r in reports if r["stage"] == "fit"][0]
    budget = int(np.floor(63 * 0.4))
    assert fit_report["metrics"]["labeled_samples"] + fit_report["metrics"]["test_samples"] == budget


def test_pretrained_encoder_beats_random_encoder_on_probe():
    ds = _dataset(n=200, seed=15)
    space = _space(ds, hidden=8)
    genotype = Genotype(
        cells=(
            CellGene(
                inputs=("image:0", "text:1"),
                steps=(StepGene(pair=("image:0", "text:1"), op="ConcatFC"),),
            ),
        ),
        config_hash=space.hash(),
    )
    splits = split(ds, 0.3, seed=0)
    trained_cfg = PipelineConfig(pretrain_epochs=4, pretrain_lr=0.05, pretrain_batch_size=16)
    untrained_cfg = INIT_ONLY
    fit_cfg = PipelineConfig(clf_epochs=40, clf_lr=0.05, clf_batch_size=32)
    wins = 0
    for seed in (0, 1):
        trained = pretrain(genotype, space, CCFG, trained_cfg, splits.search_train, seed=seed)
        untrained = pretrain(genotype, space, CCFG, untrained_cfg, splits.search_train, seed=seed)
        encoder = instantiate(genotype, space)
        scores = []
        for weights in (trained, untrained):
            model = fit_classifier(encoder, weights, splits.labeled_train, fit_cfg, seed=seed)
            preds = predict_bits(encoder, model, splits.test)
            scores.append(weighted_f1(preds, splits.test.labels_matrix()))
        if scores[0] > scores[1]:
            wins += 1
    assert wins >= 1


def test_stage_rows_are_the_reported_rows_and_carry_no_provenance():
    ds = _dataset(n=60, seed=17)
    space = _space(ds)
    genotype = _genotype(space)
    reported = []
    rows, _ = run_pipeline(ds, space, SCFG, CCFG, _pipe_cfgs(), seed=5, genotype=genotype, report=reported.append)
    assert [r for r in reported if "stage" in r] == rows
    assert [r["stage"] for r in rows] == ["pretrain", "fit"]
    for row in rows:
        assert set(row) == {"stage", "metrics", "genotype_hash", "duration_s"}
        assert row["genotype_hash"] == genotype.hash() and row["duration_s"] > 0.0


# Pinned outputs of a tiny end-to-end run. Any change to an RNG draw or to
# the order of a float reduction moves them; update them only on purpose.
GOLDEN_SHARED = [
    ("train", "3.230151824280901"),
    ("valid", "2.447347782316873"),
    ("eval", "2.2822432765742304"),
    ("pretrain", "3.458240385924195"),
]
GOLDEN = {
    True: (GOLDEN_SHARED + [("fit", "1.34158583112526"), ("fit", "0.7050413898362898")], "0.7458333333333332"),
    False: (GOLDEN_SHARED + [("fit", "1.0733438385652465"), ("fit", "0.5685284246295668")], "0.5458333333333334"),
}


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "fine-tuned"])
def test_tiny_run_reproduces_pinned_outputs(freeze):
    ds = generate(SyntheticSpec(num_samples=200, seed=0))
    space = SearchSpaceConfig(features_per_modality=(ds.image_dims, ds.text_dims))
    rows = []
    _, artifacts = run_pipeline(
        ds,
        space,
        SearchConfig(max_epochs=1),
        CCFG,
        PipelineConfig(labeled_ratio=0.5, pretrain_epochs=1, clf_epochs=2, freeze_encoder=freeze),
        seed=0,
        report=rows.append,
    )
    losses, f1 = GOLDEN[freeze]
    assert artifacts["genotype"].hash() == "f828e533387ce757"
    assert [(r["phase"], repr(r["mean_loss"])) for r in rows if "mean_loss" in r] == losses
    assert repr(artifacts["weighted_f1"]) == f1
