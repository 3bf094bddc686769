"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The slow criteria
(planted-structure recovery, the label-efficiency comparison) use the
default data spec and the calibrated default augmentation strengths.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    check_gradients,
    naive_ntxent,
    sign_test_p,
    weighted_f1_oracle,
)

import mmnas.autodiff as ad
from mmnas.autodiff import Tape
from mmnas.bilevel import SearchConfig, run_search, search_epoch, init_search_state
from mmnas.checkpoint import load_weights, save_weights
from mmnas.config import RunConfig
from mmnas.contrastive import ContrastiveConfig, ProjectionHead, ntxent_loss
from mmnas.data import SyntheticSpec, generate, load, save, split
from mmnas.optim import Adam, MomentumSGD
from mmnas.pipeline import PipelineConfig, run_pipeline, weighted_f1
from mmnas.searchspace import (
    PRIMITIVES,
    MixedFusionEncoder,
    SearchSpaceConfig,
    Genotype,
    instantiate,
    mixed_cell_input,
    mixed_step,
    primitive_param_shapes,
    random_genotype,
    saturate_toward,
)

PASS = "ACCEPTANCE {num} {name}: PASS ({detail})"


@pytest.fixture(scope="module")
def default_dataset():
    return generate(SyntheticSpec())  # 2 modalities x 2 layers, one signal layer each, SNR 10


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def _primitive_cases(rng):
    """(name, params builder, scalar builder) for every primitive."""
    w23 = np.linspace(0.4, 1.6, 6).reshape(2, 3)

    def weighted(t, w=w23):
        return ad.tsum(ad.mul(t, ad.constant(w)))

    return [
        ("add", lambda: {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 3))},
         lambda lv: weighted(ad.add(lv["a"], lv["b"]))),
        ("sub", lambda: {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 3))},
         lambda lv: weighted(ad.sub(lv["a"], lv["b"]))),
        ("mul", lambda: {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 3))},
         lambda lv: weighted(ad.mul(lv["a"], lv["b"]))),
        ("div", lambda: {"a": rng.standard_normal((2, 3)),
                          "b": rng.standard_normal((2, 3)) + np.sign(rng.standard_normal((2, 3))) + 1.5},
         lambda lv: weighted(ad.div(lv["a"], lv["b"]))),
        ("neg", lambda: {"a": rng.standard_normal((2, 3))}, lambda lv: weighted(ad.neg(lv["a"]))),
        ("scale", lambda: {"a": rng.standard_normal((2, 3))}, lambda lv: weighted(ad.scale(lv["a"], 1.7))),
        ("matmul", lambda: {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((3, 2))},
         lambda lv: ad.tsum(ad.mul(ad.matmul(lv["a"], lv["b"]), ad.constant(np.linspace(0.3, 1.2, 4).reshape(2, 2))))),
        ("transpose", lambda: {"a": rng.standard_normal((2, 3))},
         lambda lv: ad.tsum(ad.mul(ad.transpose(lv["a"]), ad.constant(w23.T)))),
        ("relu", lambda: {"a": np.where(np.abs(x := rng.standard_normal((2, 3))) < 1e-3, 0.4, x)},
         lambda lv: weighted(ad.relu(lv["a"]))),
        ("sigmoid", lambda: {"a": rng.standard_normal((2, 3)) * 2}, lambda lv: weighted(ad.sigmoid(lv["a"]))),
        ("tanh", lambda: {"a": rng.standard_normal((2, 3)) * 2}, lambda lv: weighted(ad.tanh(lv["a"]))),
        ("softmax", lambda: {"a": rng.standard_normal((2, 3)) * 2},
         lambda lv: weighted(ad.softmax(lv["a"], axis=1))),
        ("concat", lambda: {"a": rng.standard_normal((2, 2)), "b": rng.standard_normal((2, 1))},
         lambda lv: weighted(ad.concat([lv["a"], lv["b"]], axis=1))),
        ("mean", lambda: {"a": rng.standard_normal((2, 3))}, lambda lv: ad.mean(lv["a"])),
        ("sum", lambda: {"a": rng.standard_normal((2, 3))},
         lambda lv: ad.tsum(ad.mul(ad.tsum(lv["a"], axis=0), ad.tsum(lv["a"], axis=0)))),
        ("l2norm", lambda: {"a": rng.standard_normal((2, 3)) + np.sign(rng.standard_normal((2, 3))) * 0.3},
         lambda lv: ad.tsum(ad.l2norm(lv["a"], axis=1))),
        ("log", lambda: {"a": np.abs(rng.standard_normal((2, 3))) + 0.4}, lambda lv: weighted(ad.log(lv["a"]))),
        ("exp", lambda: {"a": rng.standard_normal((2, 3))}, lambda lv: weighted(ad.exp(lv["a"]))),
        ("slice", lambda: {"a": rng.standard_normal((3, 4))},
         lambda lv: ad.tsum(ad.mul(lv["a"][1:, :3], ad.constant(w23)))),
    ]


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cases_per_item = 100

    for name, make_params, builder in _primitive_cases(rng):
        for _ in range(cases_per_item):
            check_gradients(builder, make_params(), tol=1e-6)

    # composite: contrastive loss over 2N projection rows
    for i in range(cases_per_item):
        n = (2, 4, 8)[i % 3]
        z = rng.standard_normal((2 * n, 4))
        check_gradients(lambda lv: ntxent_loss(lv["z"], 0.4), {"z": z}, tol=1e-5)

    # composite: softmax-weighted candidate mixture
    w = np.linspace(0.5, 1.5, 6).reshape(2, 3)
    for _ in range(cases_per_item):
        params = {
            "alpha": rng.standard_normal(3),
            "c0": rng.standard_normal((2, 3)),
            "c1": rng.standard_normal((2, 3)),
            "c2": rng.standard_normal((2, 3)),
        }
        check_gradients(
            lambda lv: ad.tsum(ad.mul(mixed_cell_input(lv["alpha"], [lv["c0"], lv["c1"], lv["c2"]]), ad.constant(w))),
            params,
            tol=1e-5,
        )

    # composite: beta/gamma-mixed fusion step with all primitive weights
    hidden = 2
    wout = np.linspace(0.4, 1.3, 4).reshape(2, 2)
    for _ in range(cases_per_item):
        prim_params = {
            op: {k: rng.standard_normal(shape) / np.sqrt(shape[0])
                 for k, shape in primitive_param_shapes(op, hidden).items()}
            for op in PRIMITIVES
        }
        flat = {f"{op}/{k}": v for op, d in prim_params.items() for k, v in d.items()}
        params = {
            "u": rng.standard_normal((2, hidden)),
            "v": rng.standard_normal((2, hidden)),
            "beta": rng.standard_normal(2),
            "gamma": rng.standard_normal(len(PRIMITIVES)),
            **flat,
        }

        def build(lv):
            pp = {op: {k: lv[f"{op}/{k}"] for k in prim_params[op]} for op in PRIMITIVES}
            out = mixed_step(lv["beta"], lv["gamma"], [(lv["u"], lv["v"]), (lv["v"], lv["u"])], pp, hidden)
            return ad.tsum(ad.mul(out, ad.constant(wout)))

        check_gradients(build, params, tol=1e-5)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    print(PASS.format(num=1, name="gradient suite", detail=f"{elapsed:.1f}s, 100 cases per item"))


# ---------------------------------------------------------------------------
# 2. contrastive loss oracle
# ---------------------------------------------------------------------------

def test_criterion_2_ntxent_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in (2, 4, 8):
        for _ in range(40):
            z = rng.standard_normal((2 * n, 6)) * rng.uniform(0.3, 3.0)
            mine = float(ntxent_loss(ad.constant(z), 0.2).data)
            ref = naive_ntxent(z, 0.2)
            worst = max(worst, abs(mine - ref))
            assert abs(mine - ref) < 1e-9
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    hand = float(ntxent_loss(ad.constant(z), 1.0).data)
    assert abs(hand - math.log(1.0 + 2.0 / math.e)) < 1e-9
    single = float(ntxent_loss(ad.constant(rng.standard_normal((2, 5))), 0.7).data)
    assert single == 0.0
    print(PASS.format(num=2, name="contrastive loss oracle", detail=f"max dev {worst:.2e}, hand case ok, N=1 exact 0"))


# ---------------------------------------------------------------------------
# 3. relaxation consistency
# ---------------------------------------------------------------------------

def test_criterion_3_relaxation_consistency():
    cfg = SearchSpaceConfig(
        features_per_modality=((9, 7), (8, 6)), num_cells=2, steps_per_cell=2, hidden_dim=5
    )
    rng = np.random.default_rng(103)
    mixed = MixedFusionEncoder(cfg)
    worst = 0.0
    for _ in range(20):
        genotype = random_genotype(cfg, rng)
        weights = mixed.init_weights(rng)
        feats = [rng.standard_normal((4, cfg.source_dim(s))) for s in cfg.sources()]
        arch = saturate_toward(genotype, cfg)
        derived = instantiate(genotype, cfg)
        shared = {k: weights[k] for k in derived.weight_shapes()}
        h_mixed = mixed.forward(weights, arch.named(), feats)
        h_inst = derived.forward(shared, dict(zip(cfg.sources(), feats)))
        dev = float(np.max(np.abs(h_mixed.data - h_inst.data)))
        worst = max(worst, dev)
        assert dev < 1e-9
    print(PASS.format(num=3, name="relaxation consistency", detail=f"20 genotypes, max dev {worst:.2e}"))


# ---------------------------------------------------------------------------
# 4. phase discipline + determinism
# ---------------------------------------------------------------------------

def test_criterion_4_phase_discipline_and_determinism():
    spec = SyntheticSpec(num_samples=400, seed=9)
    ds = generate(spec)
    space = RunConfig().space_config(ds.image_dims, ds.text_dims)
    ccfg = ContrastiveConfig()
    splits = split(ds, 0.25, seed=1)

    # bitwise phase freezes inside one epoch
    scfg = SearchConfig(max_epochs=1, batch_size=16, seed=3)
    state = init_search_state(scfg, space, ccfg)
    arch_before = {k: v.tobytes() for k, v in state.arch.named().items()}
    snapshots = {}

    def watch(rec):
        if rec["phase"] == "train":
            assert {k: v.tobytes() for k, v in state.arch.named().items()} == arch_before
            snapshots["w"] = {k: v.tobytes() for k, v in state.weights.items()}
        if rec["phase"] == "valid":
            assert {k: v.tobytes() for k, v in state.weights.items()} == snapshots["w"]

    search_epoch(
        state, splits.search_train, splits.search_valid, scfg, ccfg,
        MixedFusionEncoder(space), ProjectionHead(space.hidden_dim, ccfg.proj_hidden_dim, ccfg.proj_dim),
        MomentumSGD(scfg.lr_weights, scfg.momentum), Adam(scfg.lr_arch), report=watch,
    )
    assert "w" in snapshots

    # identical seeded full runs
    scfg = SearchConfig(max_epochs=2, batch_size=16)
    pcfg = PipelineConfig(labeled_ratio=0.25, pretrain_epochs=2, clf_epochs=30)
    _, a1 = run_pipeline(ds, space, scfg, ccfg, pcfg, seed=11)
    _, a2 = run_pipeline(ds, space, scfg, ccfg, pcfg, seed=11)
    assert a1["genotype"].hash() == a2["genotype"].hash()
    assert a1["weighted_f1"] == a2["weighted_f1"]
    print(
        PASS.format(
            num=4,
            name="phase discipline + determinism",
            detail=f"bitwise freezes ok, twin runs agree (f1={a1['weighted_f1']:.4f})",
        )
    )


# ---------------------------------------------------------------------------
# 5. planted-structure recovery
# ---------------------------------------------------------------------------

def test_criterion_5_planted_structure_recovery(default_dataset):
    t0 = time.perf_counter()
    ds = default_dataset
    space = RunConfig().space_config(ds.image_dims, ds.text_dims)
    ccfg = ContrastiveConfig()
    planted = {"image:0", "text:1"}
    perm = np.random.default_rng(0).permutation(len(ds))
    train = ds.subset(perm[:1600], strip_labels=True)  # 2,000 unlabeled total
    valid = ds.subset(perm[1600:], strip_labels=True)
    hits = 0
    for seed in range(10):
        genotype, _ = run_search(
            SearchConfig(max_epochs=6, batch_size=16, seed=seed), space, ccfg, train, valid
        )
        selected = set()
        for cell in genotype.cells:
            selected.update(cell.inputs)
        hits += planted <= selected
    elapsed = time.perf_counter() - t0
    assert hits >= 8, f"planted layers recovered in only {hits}/10 seeds"
    assert elapsed < 600.0, f"recovery suite took {elapsed:.0f}s (budget 600s)"
    print(PASS.format(num=5, name="planted-structure recovery", detail=f"{hits}/10 seeds, {elapsed:.0f}s"))


# ---------------------------------------------------------------------------
# 6. label-efficiency benefit of pretraining
# ---------------------------------------------------------------------------

def test_criterion_6_ssl_benefit(default_dataset):
    t0 = time.perf_counter()
    ds = default_dataset
    space = RunConfig().space_config(ds.image_dims, ds.text_dims)
    ccfg = ContrastiveConfig()
    scfg = SearchConfig(max_epochs=4, batch_size=16)
    full, base, zeros = [], [], []
    for seed in range(5):
        pcfg = PipelineConfig(labeled_ratio=0.05)
        _, art_full = run_pipeline(ds, space, scfg, ccfg, pcfg, seed=seed)
        pcfg_base = PipelineConfig(labeled_ratio=0.05, stage_search=False, stage_pretrain=False)
        _, art_base = run_pipeline(
            ds, space, scfg, ccfg, pcfg_base, seed=seed, genotype=art_full["genotype"]
        )
        full.append(art_full["weighted_f1"])
        base.append(art_base["weighted_f1"])
        truth = split(ds, 0.05, seed).test.labels_matrix()
        zeros.append(weighted_f1(np.zeros_like(truth, dtype=np.uint8), truth))
    wins_base = sum(f > b for f, b in zip(full, base))
    wins_zeros = sum(f > z for f, z in zip(full, zeros))
    mean_margin = float(np.mean(np.array(full) - np.array(base)))
    assert mean_margin > 0.0
    assert sign_test_p(wins_base, 5) <= 0.05, f"sign test vs random encoder: {wins_base}/5 wins"
    assert sign_test_p(wins_zeros, 5) <= 0.05, f"sign test vs all-zeros: {wins_zeros}/5 wins"
    elapsed = time.perf_counter() - t0
    print(
        PASS.format(
            num=6,
            name="pretraining benefit at r=0.05",
            detail=f"mean f1 {np.mean(full):.3f} vs {np.mean(base):.3f} (random) vs {np.mean(zeros):.3f} (zeros), "
            f"{wins_base}/5 wins, {elapsed:.0f}s",
        )
    )


# ---------------------------------------------------------------------------
# 7. metric oracle
# ---------------------------------------------------------------------------

def test_criterion_7_weighted_f1_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        labels = int(rng.integers(1, 7))
        truth = (rng.random((n, labels)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        pred = (rng.random((n, labels)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        dev = abs(weighted_f1(pred, truth) - weighted_f1_oracle(pred, truth))
        worst = max(worst, dev)
        assert dev < 1e-12
    print(PASS.format(num=7, name="weighted F1 oracle", detail=f"1000 instances, max dev {worst:.2e}"))


# ---------------------------------------------------------------------------
# 8. format round-trips
# ---------------------------------------------------------------------------

def test_criterion_8_format_roundtrips(tmp_path):
    spec = SyntheticSpec(num_samples=64, image_layer_dims=(12, 5), text_layer_dims=(7, 9), seed=21)
    ds = generate(spec)
    fpath = tmp_path / "ds.mmnf"
    save(ds, fpath)
    first = fpath.read_bytes()
    back = load(fpath)
    save(back, tmp_path / "ds2.mmnf")
    assert (tmp_path / "ds2.mmnf").read_bytes() == first
    assert list(back.features) == list(ds.features)
    for name, x in ds.features.items():
        assert back.features[name].shape == x.shape and back.features[name].tobytes() == x.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.text_len == ds.text_len

    rng = np.random.default_rng(108)
    weights = {"a/W": rng.standard_normal((5, 3)), "b": rng.standard_normal(4)}
    wpath = tmp_path / "w.mmnw"
    save_weights(wpath, weights)
    wball = load_weights(wpath)
    save_weights(tmp_path / "w2.mmnw", wball)
    assert (tmp_path / "w2.mmnw").read_bytes() == wpath.read_bytes()
    assert all(weights[k].tobytes() == wball[k].tobytes() for k in weights)

    cfg = SearchSpaceConfig(features_per_modality=((4, 4), (4, 4)), num_cells=2, steps_per_cell=2, hidden_dim=4)
    genotype = random_genotype(cfg, rng)
    text = genotype.to_json()
    assert Genotype.from_json(text).to_json() == text
    print(PASS.format(num=8, name="format round-trips", detail="MMNF, MMNW, genotype JSON all bit-stable"))
