import copy
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from helpers import (
    check_gradients,
    derive_oracle,
    derived_forward_oracle,
    mixed_cell_input_oracle,
    mixed_cell_slots_composed,
    mixed_step_composed,
    mixed_step_oracle,
    primitive_oracle,
)

import mmnas.autodiff as ad
from mmnas.autodiff import Tape
from mmnas.searchspace import (
    PRIMITIVES,
    ArchParams,
    CellGene,
    Genotype,
    GenotypeError,
    MixedFusionEncoder,
    SearchSpaceConfig,
    SpaceError,
    StepGene,
    apply_primitive,
    cell_candidate_names,
    derive_genotype,
    instantiate,
    mixed_cell_input,
    mixed_step,
    ordered_pairs,
    primitive_node,
    primitive_param_shapes,
    random_genotype,
    saturate_toward,
    validate_genotype,
)

CFG = SearchSpaceConfig(
    features_per_modality=((6, 5), (4, 7)),
    num_cells=2,
    steps_per_cell=2,
    hidden_dim=4,
)


def _mixed_weights(cfg, seed=0):
    return MixedFusionEncoder(cfg).init_weights(np.random.default_rng(seed))


def _random_arch(cfg, rng, scale=1.0):
    """Noise in every logit family, gamma included (init zeroes gamma)."""
    arch = ArchParams.init(cfg, rng, scale=scale)
    for gs in arch.gamma:
        for g in gs:
            g[:] = scale * rng.standard_normal(len(PRIMITIVES))
    return arch


def _features(cfg, batch=5, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((batch, cfg.source_dim(s))) for s in cfg.sources()]


# ---------------------------------------------------------------------------
# mixed_cell_input
# ---------------------------------------------------------------------------

def test_mixed_cell_input_symmetric_cancellation():
    v = ad.constant(np.full((3, 2), 1.5))
    out = mixed_cell_input(ad.constant([0.0, 0.0]), [v, ad.neg(v)])
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)


def test_mixed_cell_input_saturation_picks_one_candidate():
    rng = np.random.default_rng(0)
    cands = [ad.constant(rng.standard_normal((2, 3))) for _ in range(4)]
    logits = np.full(4, -50.0)
    logits[2] = 50.0
    out = mixed_cell_input(ad.constant(logits), cands)
    np.testing.assert_allclose(out.data, cands[2].data, atol=1e-12)


def test_mixed_cell_input_two_thirds_case():
    out = mixed_cell_input(
        ad.constant([np.log(2.0), 0.0]),
        [ad.constant([[3.0]]), ad.constant([[0.0]])],
    )
    np.testing.assert_allclose(out.data, [[2.0]], atol=1e-12)


def test_mixed_cell_input_count_mismatch():
    with pytest.raises(SpaceError, match="candidates"):
        mixed_cell_input(ad.constant([0.0, 0.0]), [ad.constant([[1.0]])])


def test_mixed_cell_input_shape_mismatch():
    with pytest.raises(SpaceError, match="shapes"):
        mixed_cell_input(
            ad.constant([0.0, 0.0]),
            [ad.constant([[1.0]]), ad.constant([[1.0, 2.0]])],
        )


def test_mixed_cell_input_gradient():
    rng = np.random.default_rng(5)
    cands = [rng.standard_normal((3, 4)) for _ in range(3)]
    for _ in range(10):
        logits = rng.standard_normal(3)
        check_gradients(
            lambda lv: ad.tsum(
                ad.mul(
                    mixed_cell_input(lv["alpha"], [lv["c0"], lv["c1"], lv["c2"]]),
                    ad.constant(np.linspace(0.3, 1.0, 12).reshape(3, 4)),
                )
            ),
            {"alpha": logits.copy(), "c0": cands[0].copy(), "c1": cands[1].copy(), "c2": cands[2].copy()},
            tol=1e-6,
        )


# which operands of the two cell-input slots are tape leaves
SLOT_TAPE_CONFIGS = {
    "everything": ("alpha", "candidates"),
    "valid-phase": ("alpha",),
    "train-phase": ("candidates",),
    "no-tape": (),
}


@pytest.mark.parametrize("config", SLOT_TAPE_CONFIGS)
@pytest.mark.parametrize("dims", [((3,), (3,)), ((3, 3), (3,)), ((3, 3, 3), (3, 3))], ids=["2", "3", "5"])
def test_cell_input_slots_are_bitwise_the_composed_chain(dims, config):
    """Each slot is one node whose value and gradients equal, bit for bit,
    those of softmax and mix (slot B: add, softmax and mix); the root reads
    every candidate again, so their gradients accumulate over both slots."""
    on_tape = SLOT_TAPE_CONFIGS[config]
    cfg = SearchSpaceConfig(features_per_modality=dims, num_cells=1, steps_per_cell=1, hidden_dim=4)
    encoder = MixedFusionEncoder(cfg)
    weights = encoder.init_weights(np.random.default_rng(0))
    count = cfg.num_cell_candidates(0)
    rng = np.random.default_rng(count)
    for trial in range(4):
        alpha = rng.standard_normal(count) * (1.0, 30.0, 1e-3, 0.0)[trial]  # the last ties every logit
        cands = [rng.standard_normal((5, 4)) for _ in range(count)]
        results = []
        for chain in ("node", "composed"):
            tape = Tape()
            a = tape.leaf(alpha, "alpha") if "alpha" in on_tape else alpha
            cs = [tape.leaf(c, f"c{p}") if "candidates" in on_tape else c for p, c in enumerate(cands)]
            arch = {**_random_arch(cfg, rng).named(), "alpha/c0": a}
            before = len(tape)
            if chain == "node":
                slots, _ = encoder.plan(weights, arch)[0]
                outs = [mixed_cell_input(a, cs, slot) for slot in slots]
            else:
                outs = mixed_cell_slots_composed(a, cs)
            nodes = len(tape) - before
            if not on_tape:
                results.append(([o.data for o in outs], [], nodes))
                continue
            root = ad.tsum(ad.mul(outs[0], ad.constant(np.full((5, 4), 0.7))))
            root = ad.add(root, ad.tsum(ad.mul(outs[1], outs[1])))
            for p, c in enumerate(cs):
                if isinstance(c, ad.Tensor):
                    root = ad.add(root, ad.tsum(ad.mul(c, ad.constant(np.full((5, 4), 0.3 + p)))))
            grads = tape.backward(root)
            leaves = ([a] if "alpha" in on_tape else []) + [c for c in cs if isinstance(c, ad.Tensor)]
            results.append(([o.data for o in outs], [grads.of(t) for t in leaves], nodes))
        (values, grads, nodes), (ref_values, ref_grads, ref_nodes) = results
        assert all(np.array_equal(v, r) for v, r in zip(values, ref_values))
        assert len(grads) == len(ref_grads) and all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
        assert nodes == (2 if on_tape else 0)
        assert ref_nodes == (5 if "alpha" in on_tape else 2 if on_tape else 0)


# ---------------------------------------------------------------------------
# mixed_step
# ---------------------------------------------------------------------------

def _step_params(hidden, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for op in PRIMITIVES:
        out[op] = {
            name: rng.standard_normal(shape) / np.sqrt(shape[0])
            for name, shape in primitive_param_shapes(op, hidden).items()
        }
    return out


def _step_weights(hidden, seed=0):
    """``_step_params`` as the flat ``"<op>/<param>"`` map a mixed step reads."""
    return {f"{op}/{k}": v for op, d in _step_params(hidden, seed).items() for k, v in d.items()}


def test_mixed_step_gamma_saturated_on_zero():
    rng = np.random.default_rng(1)
    u, v = ad.constant(rng.standard_normal((3, 4))), ad.constant(rng.standard_normal((3, 4)))
    gamma = np.full(len(PRIMITIVES), -50.0)
    gamma[PRIMITIVES.index("Zero")] = 50.0
    out = mixed_step(ad.constant([0.0, 0.0]), ad.constant(gamma), [u, v], _step_weights(4), 4)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_mixed_step_sum_composition():
    rng = np.random.default_rng(2)
    u, v = ad.constant(rng.standard_normal((3, 4))), ad.constant(rng.standard_normal((3, 4)))
    beta = np.array([50.0, -50.0])  # saturate on pair (u, v)
    gamma = np.full(len(PRIMITIVES), -50.0)
    gamma[PRIMITIVES.index("Sum")] = 50.0
    out = mixed_step(ad.constant(beta), ad.constant(gamma), [u, v], _step_weights(4), 4)
    np.testing.assert_allclose(out.data, u.data + v.data, atol=1e-12)


def test_mixed_step_uniform_sum_zero_half_mixture():
    rng = np.random.default_rng(3)
    u, v = ad.constant(rng.standard_normal((3, 4))), ad.constant(rng.standard_normal((3, 4)))
    gamma = np.full(len(PRIMITIVES), -1e9)
    gamma[PRIMITIVES.index("Sum")] = 0.0
    gamma[PRIMITIVES.index("Zero")] = 0.0
    out = mixed_step(ad.constant([50.0, -50.0]), ad.constant(gamma), [u, v], _step_weights(4), 4)
    np.testing.assert_allclose(out.data, 0.5 * (u.data + v.data), atol=1e-12)


def test_mixed_step_gradient():
    rng = np.random.default_rng(6)
    flat = _step_weights(3, seed=7)
    u0 = rng.standard_normal((2, 3))
    v0 = rng.standard_normal((2, 3))

    def build(lv):
        out = mixed_step(lv["beta"], lv["gamma"], [lv["u"], lv["v"]], lv, 3)
        return ad.tsum(ad.mul(out, ad.constant(np.linspace(0.2, 1.4, 6).reshape(2, 3))))

    check_gradients(
        build,
        {
            "u": u0,
            "v": v0,
            "beta": rng.standard_normal(2),
            "gamma": rng.standard_normal(len(PRIMITIVES)),
            **{k: v.copy() for k, v in flat.items()},
        },
        tol=1e-5,
    )


def _assert_matches_oracle(fused, oracle, params, out_shape):
    """Same value and same gradient of every leaf, to 1e-12."""
    weighting = np.linspace(0.2, 1.4, int(np.prod(out_shape))).reshape(out_shape)
    results = []
    for fn in (fused, oracle):
        tape = Tape()
        leaves = {k: tape.leaf(v, k) for k, v in params.items()}
        out = fn(leaves)
        grads = tape.backward(ad.tsum(ad.mul(out, ad.constant(weighting))))
        results.append((out.data, {k: grads.of(t) for k, t in leaves.items()}))
    (value, grads), (ref_value, ref_grads) = results
    np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=1e-12)
    for k in params:
        np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12, atol=1e-12, err_msg=k)


@pytest.mark.parametrize("count", [2, 3, 4, 6])
def test_mixed_cell_input_matches_the_per_candidate_oracle(count):
    rng = np.random.default_rng(30 + count)
    for _ in range(5):
        params = {"alpha": rng.standard_normal(count), **{f"c{i}": rng.standard_normal((5, 4)) for i in range(count)}}
        cands = [f"c{i}" for i in range(count)]
        _assert_matches_oracle(
            lambda lv: mixed_cell_input(lv["alpha"], [lv[c] for c in cands]),
            lambda lv: mixed_cell_input_oracle(lv["alpha"], [lv[c] for c in cands]),
            params,
            (5, 4),
        )


@pytest.mark.parametrize("pool_size", [2, 3, 4])
def test_mixed_step_matches_the_per_pair_oracle(pool_size):
    rng = np.random.default_rng(40 + pool_size)
    hidden = 4
    prim = _step_weights(hidden, seed=pool_size)
    for _ in range(5):
        params = {
            "beta": rng.standard_normal(len(ordered_pairs(pool_size))),
            "gamma": rng.standard_normal(len(PRIMITIVES)),
            **{f"pool{p}": rng.standard_normal((5, hidden)) for p in range(pool_size)},
            **{k: v.copy() for k, v in prim.items()},
        }

        def build(step):
            def fn(lv):
                return step(lv["beta"], lv["gamma"], [lv[f"pool{p}"] for p in range(pool_size)], lv, hidden)

            return fn

        _assert_matches_oracle(build(mixed_step), build(mixed_step_oracle), params, (5, hidden))


# which operand groups are tape leaves; the rest are plain arrays
TAPE_CONFIGS = {
    "everything": ("logits", "weights", "pool"),
    "train-phase": ("weights", "pool"),
    "valid-phase": ("logits", "pool"),
    "logits-and-weights": ("logits", "weights"),
    "weights-only": ("weights",),
    "logits-only": ("logits",),
    "pool-only": ("pool",),
    "no-tape": (),
}


def _step_operands(pool_size, hidden, seed):
    rng = np.random.default_rng(seed)
    return {
        "beta": rng.standard_normal(len(ordered_pairs(pool_size))),
        "gamma": rng.standard_normal(len(PRIMITIVES)),
        **{f"pool{p}": rng.standard_normal((5, hidden)) for p in range(pool_size)},
        **_step_weights(hidden, seed),
    }


def _run_step(step, operands, pool_size, hidden, on_tape):
    """Value and every leaf's gradient of a root that reads the step's
    output and, after it, each pool entry (so pool gradients accumulate)."""
    tape = Tape()
    group = {"beta": "logits", "gamma": "logits", **{f"pool{p}": "pool" for p in range(pool_size)}}
    lv = {k: tape.leaf(v, k) if group.get(k, "weights") in on_tape else v for k, v in operands.items()}
    pool = [lv[f"pool{p}"] for p in range(pool_size)]
    before = len(tape)
    out = step(lv["beta"], lv["gamma"], pool, lv, hidden)
    nodes = len(tape) - before
    if out.tape is None:
        return out.data, {}, nodes
    weighting = ad.constant(np.linspace(0.2, 1.4, out.data.size).reshape(out.shape))
    root = ad.tsum(ad.mul(out, weighting))
    for p, t in enumerate(pool):
        root = ad.add(root, ad.tsum(ad.mul(t, ad.constant(np.full(t.shape, 0.5 + p)))))
    grads = tape.backward(root)
    return out.data, {k: grads.of(t) for k, t in lv.items() if isinstance(t, ad.Tensor)}, nodes


@pytest.mark.parametrize("config", TAPE_CONFIGS)
@pytest.mark.parametrize("pool_size", [2, 3, 4])
def test_mixed_step_is_bitwise_the_composed_chain(pool_size, config):
    """One node whose value and gradients equal, bit for bit, those of the
    chain of generic nodes it replaces."""
    hidden = 4
    for seed in range(3):
        operands = _step_operands(pool_size, hidden, 60 + 10 * pool_size + seed)
        value, grads, nodes = _run_step(mixed_step, operands, pool_size, hidden, TAPE_CONFIGS[config])
        ref_value, ref_grads, _ = _run_step(mixed_step_composed, operands, pool_size, hidden, TAPE_CONFIGS[config])
        assert nodes == (1 if TAPE_CONFIGS[config] else 0)
        assert np.array_equal(value, ref_value)
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert np.array_equal(grads[k], ref_grads[k]), k


def test_mixed_step_tape_is_freed_without_the_cycle_collector():
    # the closed-form backward holds arrays, never tensors (see autodiff)
    gc.disable()
    try:
        tape = Tape()
        operands = _step_operands(3, 4, 0)
        lv = {k: tape.leaf(v, k) for k, v in operands.items()}
        out = mixed_step(lv["beta"], lv["gamma"], [lv[f"pool{p}"] for p in range(3)], lv, 4)
        tape.backward(ad.tsum(out))
        ref = weakref.ref(tape)
        del tape, lv, out
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "operand, part",
    [("LinearGLU/W1", "LinearGLU output"), ("ScaledDotAttention/Wv", "ScaledDotAttention output"),
     ("pool1", "slot input 0")],
)
def test_mixed_step_names_its_first_non_finite_part(operand, part):
    operands = _step_operands(2, 4, 1)
    operands[operand] = operands[operand].copy()
    operands[operand][0, 1] = np.nan
    with pytest.raises(ad.NonFiniteError, match=f"^mixed_step: non-finite {part}$"):
        _run_step(mixed_step, operands, 2, 4, ("logits",))


@pytest.mark.parametrize(
    "operand, value, message",
    [("beta", np.zeros(5), "beta length does not match pair candidate count"),
     ("gamma", np.zeros(len(PRIMITIVES) - 1), "gamma length does not match primitive count"),
     ("pool1", np.zeros((4, 4)), r"pool entry shapes differ: \[\(5, 4\), \(4, 4\), \(5, 4\)\]")],
    ids=["beta-length", "gamma-length", "pool-shapes"],
)
def test_mixed_step_rejects_operands_that_do_not_fit_its_pool(operand, value, message):
    # a pool of three entries has six ordered pairs
    operands = {**_step_operands(3, 4, 2), operand: value}
    with pytest.raises(SpaceError, match=f"^{message}$"):
        _run_step(mixed_step, operands, 3, 4, ("logits", "pool"))


# ---------------------------------------------------------------------------
# fused primitives
# ---------------------------------------------------------------------------

WEIGHTED_OPS = ("ScaledDotAttention", "LinearGLU", "ConcatFC")


def _primitive_inputs(op, hidden, rows, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, hidden)), rng.standard_normal((rows, hidden)), _step_params(hidden, seed)[op]


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("leaf_weights", [True, False], ids=["leaf-weights", "raw-weights"])
@pytest.mark.parametrize("op", WEIGHTED_OPS)
def test_fused_primitive_matches_the_unfused_oracle(op, leaf_weights, rows):
    """Bitwise the oracle's value, its gradients to 1e-12, in one node."""
    hidden = 4
    weighting = ad.constant(np.linspace(0.2, 1.4, rows * hidden).reshape(rows, hidden))
    for seed in range(5):
        x0, y0, p0 = _primitive_inputs(op, hidden, rows, seed)
        results = []
        for fused in (True, False):
            tape = Tape()
            x, y = tape.leaf(x0, "x"), tape.leaf(y0, "y")
            params = {k: tape.leaf(v, k) for k, v in p0.items()} if leaf_weights else p0
            if fused:
                before = len(tape)
                out = primitive_node(op, x, y, params, hidden)
                assert len(tape) - before == 1
            else:
                out = primitive_oracle(op, x, y, params, hidden)
            grads = tape.backward(ad.tsum(ad.mul(out, weighting)))
            leaves = {"x": x, "y": y, **(params if leaf_weights else {})}
            results.append((out.data, {k: grads.of(t) for k, t in leaves.items()}))
        (value, grads), (ref_value, ref_grads) = results
        assert value.tobytes() == ref_value.tobytes()
        for k in grads:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12, atol=1e-12, err_msg=k)
        off = primitive_node(op, ad.constant(x0), ad.constant(y0), p0, hidden)
        assert off.tape is None and off.data.tobytes() == value.tobytes()


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("op", WEIGHTED_OPS)
def test_fused_primitive_gradients_match_finite_differences(op, rows):
    hidden = 3
    weighting = ad.constant(np.linspace(0.3, 1.2, rows * hidden).reshape(rows, hidden))
    for seed in range(5):
        x0, y0, p0 = _primitive_inputs(op, hidden, rows, 20 + seed)

        def build(lv, weights=None):
            params = {k: lv[k] for k in p0} if weights is None else weights
            return ad.tsum(ad.mul(primitive_node(op, lv["x"], lv["y"], params, hidden), weighting))

        check_gradients(build, {"x": x0, "y": y0, **p0}, tol=1e-6)
        check_gradients(lambda lv: build(lv, p0), {"x": x0, "y": y0}, tol=1e-6)


def test_fused_primitive_tape_is_freed_without_the_cycle_collector():
    # the closed-form backwards hold arrays, never tensors (see autodiff)
    gc.disable()
    try:
        tape = Tape()
        x0, y0, _ = _primitive_inputs("Sum", 4, 3, 0)
        x, y = tape.leaf(x0, "x"), tape.leaf(y0, "y")
        params = {op: {k: tape.leaf(v, k) for k, v in d.items()} for op, d in _step_params(4).items()}
        root = ad.tsum(ad.concat([primitive_node(op, x, y, params[op], 4) for op in WEIGHTED_OPS], axis=1))
        tape.backward(root)
        ref = weakref.ref(tape)
        del tape, x, y, params, root
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("op", PRIMITIVES)
def test_apply_primitive_vjp_computes_only_the_gradients_asked_for(op):
    # a phase that leaves the weights (or the inputs) off the tape pays for no
    # gradient of them; what it does ask for is bitwise the full vjp's
    x, y, params = _primitive_inputs(op, 4, 3, 0)
    value, vjp = apply_primitive(op, x, y, tuple(params.values()), 4)
    g = np.linspace(-1.0, 1.0, value.size).reshape(value.shape)
    inputs = {"Sum": 2, "ScaledDotAttention": 2, "LinearGLU": 1, "ConcatFC": 1, "Zero": 0}[op]
    slots = inputs + len(params)  # (dx, dy) or (dcc,), then one per weight
    full = vjp(g, (True,) * slots)
    assert len(full) == slots
    assert all(d is not None for d in full)
    for mask in range(2 ** slots):
        need = tuple(bool(mask >> i & 1) for i in range(slots))
        for want, got, ref in zip(need, vjp(g, need), full):
            assert (got is None) if not want else np.array_equal(got, ref)


@pytest.mark.parametrize("op", WEIGHTED_OPS)
def test_apply_primitive_rejects_misshapen_weights(op):
    x = ad.constant(np.ones((2, 4)))
    params = dict(_step_params(4)[op])
    name = next(iter(params))
    params[name] = np.ones((3, 3))
    with pytest.raises(SpaceError, match=f"{op}: weight {name} has shape"):
        primitive_node(op, x, x, params, 4)


# ---------------------------------------------------------------------------
# cell forward / encoder
# ---------------------------------------------------------------------------

def test_single_step_cell_is_reprojected_step_output():
    cfg = SearchSpaceConfig(features_per_modality=((3,), (3,)), num_cells=1, steps_per_cell=1, hidden_dim=3)
    enc = MixedFusionEncoder(cfg)
    w = _mixed_weights(cfg)
    arch = ArchParams.init(cfg, np.random.default_rng(0))
    feats = _features(cfg, batch=4)
    h = enc.forward(w, arch.named(), feats)
    assert h.shape == (4, 3)


def test_all_zero_saturated_steps_give_bias_only_output():
    cfg = SearchSpaceConfig(features_per_modality=((3,), (3,)), num_cells=1, steps_per_cell=2, hidden_dim=3)
    enc = MixedFusionEncoder(cfg)
    w = _mixed_weights(cfg)
    arch = ArchParams.init(cfg, np.random.default_rng(0), scale=0.0)
    for s in range(2):
        arch.gamma[0][s][:] = -60.0
        arch.gamma[0][s][PRIMITIVES.index("Zero")] = 60.0
    h = enc.forward(w, arch.named(), _features(cfg, batch=4))
    np.testing.assert_allclose(h.data, np.broadcast_to(w["cell0/out/b"], (4, 3)), atol=1e-9)


def test_two_step_saturated_wiring_matches_hand_assembly():
    cfg = SearchSpaceConfig(features_per_modality=((5,), (6,)), num_cells=1, steps_per_cell=2, hidden_dim=4)
    genotype = Genotype(
        cells=(
            CellGene(
                inputs=("image:0", "text:0"),
                steps=(
                    StepGene(pair=("image:0", "text:0"), op="Sum"),
                    StepGene(pair=("step:0", "image:0"), op="ConcatFC"),
                ),
            ),
        ),
        config_hash=cfg.hash(),
    )
    arch = saturate_toward(genotype, cfg)
    w = _mixed_weights(cfg, seed=3)
    feats = _features(cfg, batch=6, seed=4)
    h = MixedFusionEncoder(cfg).forward(w, arch.named(), feats)

    # independent numpy assembly of the same wiring
    pa = feats[0] @ w["proj/image:0/W"] + w["proj/image:0/b"]
    pb = feats[1] @ w["proj/text:0/W"] + w["proj/text:0/b"]
    s0 = pa + pb
    cc = np.concatenate([s0, pa], axis=1)
    s1 = np.maximum(cc @ w["cell0/step1/ConcatFC/W"] + w["cell0/step1/ConcatFC/b"], 0.0)
    expected = np.concatenate([s0, s1], axis=1) @ w["cell0/out/W"] + w["cell0/out/b"]
    np.testing.assert_allclose(h.data, expected, atol=1e-12)


def test_missing_source_rejected():
    cfg = SearchSpaceConfig(features_per_modality=((3,), (3,)), num_cells=1, steps_per_cell=1, hidden_dim=3)
    enc = MixedFusionEncoder(cfg)
    w = _mixed_weights(cfg)
    arch = ArchParams.init(cfg, np.random.default_rng(0))
    with pytest.raises(SpaceError, match="feature arrays"):
        enc.forward(w, arch.named(), _features(cfg)[:1])


@pytest.mark.parametrize("dims", [((3,),), ((3,), (3,), (3,))], ids=["one-modality", "three-modalities"])
def test_layer_dims_of_other_than_the_two_modalities_rejected(dims):
    with pytest.raises(SpaceError, match=r"one tuple of layer dims per modality \('image', 'text'\), got"):
        SearchSpaceConfig(features_per_modality=dims)


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def test_derive_top2_alpha_example():
    cfg = SearchSpaceConfig(features_per_modality=((2, 2), (2, 2)), num_cells=1, steps_per_cell=1, hidden_dim=2)
    arch = ArchParams.init(cfg, np.random.default_rng(0), scale=0.0)
    arch.alpha[0][:] = [3.0, 1.0, 2.0, 0.0]
    names = cell_candidate_names(cfg, 0)
    genotype = derive_genotype(arch)
    assert genotype.cells[0].inputs == (names[0], names[2])


def test_derive_uniform_gamma_picks_first_non_zero_primitive():
    cfg = SearchSpaceConfig(features_per_modality=((2,), (2,)), num_cells=1, steps_per_cell=1, hidden_dim=2)
    arch = ArchParams.init(cfg, np.random.default_rng(0), scale=0.0)
    genotype = derive_genotype(arch)
    assert genotype.cells[0].steps[0].op == PRIMITIVES[0] == "Sum"


def test_derive_zero_dominance_prunes_step():
    cfg = SearchSpaceConfig(features_per_modality=((2,), (2,)), num_cells=1, steps_per_cell=2, hidden_dim=2)
    arch = ArchParams.init(cfg, np.random.default_rng(0), scale=0.0)
    arch.gamma[0][0][PRIMITIVES.index("Zero")] = 5.0
    genotype = derive_genotype(arch)
    assert len(genotype.cells[0].steps) == 1
    # the survivor re-indexes to step 0 and cannot reference the pruned one
    assert all(not p.startswith("step:") for p in genotype.cells[0].steps[0].pair)


def test_derive_zero_tie_is_not_pruned():
    cfg = SearchSpaceConfig(features_per_modality=((2,), (2,)), num_cells=1, steps_per_cell=1, hidden_dim=2)
    arch = ArchParams.init(cfg, np.random.default_rng(0), scale=0.0)
    # all-equal weights: Zero does not strictly exceed, so the step stays
    genotype = derive_genotype(arch)
    assert len(genotype.cells[0].steps) == 1


def test_derive_zero_saturated_cells_keep_one_step():
    arch = ArchParams.init(CFG, np.random.default_rng(3))
    for gs in arch.gamma:
        for g in gs:
            g[PRIMITIVES.index("Zero")] = 50.0
    genotype = derive_genotype(arch)
    assert [len(c.steps) for c in genotype.cells] == [1] * CFG.num_cells
    validate_genotype(genotype, CFG)
    # equal margins: the lowest step survives, with the best non-Zero op
    assert all(c.steps[0].op == "Sum" for c in genotype.cells)
    assert genotype == derive_oracle(arch)


def test_derive_keeps_the_step_zero_wins_by_least():
    cfg = SearchSpaceConfig(features_per_modality=((2,), (2,)), num_cells=1, steps_per_cell=3, hidden_dim=2)
    arch = ArchParams.init(cfg, np.random.default_rng(0), scale=0.0)
    for s, lead in enumerate((5.0, 3.0, 4.0)):
        arch.gamma[0][s][PRIMITIVES.index("Zero")] = lead
    arch.gamma[0][1][PRIMITIVES.index("LinearGLU")] = 1.0
    genotype = derive_genotype(arch)
    assert [step.op for step in genotype.cells[0].steps] == ["LinearGLU"]
    validate_genotype(genotype, cfg)
    assert genotype == derive_oracle(arch)


def test_fresh_init_never_derives_empty_cells():
    # gamma starts at exact zero, so init noise alone cannot prune steps
    rng = np.random.default_rng(33)
    for _ in range(50):
        arch = ArchParams.init(CFG, rng)
        genotype = derive_genotype(arch)
        assert all(len(c.steps) == CFG.steps_per_cell for c in genotype.cells)
        validate_genotype(genotype, CFG)


def test_derive_matches_enumerate_and_rank_oracle():
    rng = np.random.default_rng(11)
    pruned_seen = 0
    for _ in range(80):
        arch = _random_arch(CFG, rng)
        genotype = derive_genotype(arch)
        assert genotype == derive_oracle(arch)
        pruned_seen += any(len(c.steps) < CFG.steps_per_cell for c in genotype.cells)
    assert pruned_seen > 0  # the sample must exercise the pruning branch


def test_derive_is_shift_invariant_per_logit_vector():
    rng = np.random.default_rng(12)
    for _ in range(20):
        arch = _random_arch(CFG, rng)
        base = derive_genotype(arch)
        shifted = arch.copy()
        shifted.alpha[1] += 7.3
        shifted.beta[0][1] -= 2.2
        shifted.gamma[1][0] += 0.9
        assert derive_genotype(shifted) == base


def test_derived_genotypes_always_validate():
    rng = np.random.default_rng(13)
    for _ in range(60):
        arch = _random_arch(CFG, rng, scale=2.0)
        validate_genotype(derive_genotype(arch), CFG)


def test_arch_softmaxes_are_distributions():
    rng = np.random.default_rng(14)
    arch = _random_arch(CFG, rng, scale=3.0)
    for vec in arch.named().values():
        e = np.exp(vec - vec.max())
        assert abs(e.sum() / e.sum() - 1.0) < 1e-12
        s = e / e.sum()
        assert abs(s.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

def test_instantiate_shape_contract_matches_mixed():
    rng = np.random.default_rng(15)
    genotype = random_genotype(CFG, rng)
    derived = instantiate(genotype, CFG)
    w = derived.init_weights(rng)
    feats = dict(zip(CFG.sources(), _features(CFG, batch=3)))
    h = derived.forward(w, feats)
    assert h.shape == (3, CFG.hidden_dim)


def test_instantiate_sum_genotype_closed_form_with_unit_weights():
    cfg = SearchSpaceConfig(features_per_modality=((3,), (3,)), num_cells=1, steps_per_cell=1, hidden_dim=3)
    genotype = Genotype(
        cells=(CellGene(inputs=("image:0", "text:0"), steps=(StepGene(pair=("image:0", "text:0"), op="Sum"),)),),
        config_hash=cfg.hash(),
    )
    derived = instantiate(genotype, cfg)
    w = {name: np.zeros(shape) for name, shape in derived.weight_shapes().items()}
    w["proj/image:0/W"] = np.eye(3)
    w["proj/text:0/W"] = np.eye(3)
    w["cell0/out/W"] = np.eye(3)
    feats = _features(cfg, batch=4, seed=16)
    h = derived.forward(w, dict(zip(cfg.sources(), feats)))
    np.testing.assert_allclose(h.data, feats[0] + feats[1], atol=1e-14)


def test_instantiate_rejects_pruned_all_steps():
    genotype = Genotype(
        cells=(CellGene(inputs=("image:0", "text:0"), steps=()),),
        config_hash=SearchSpaceConfig(
            features_per_modality=((3,), (3,)), num_cells=1, steps_per_cell=1, hidden_dim=3
        ).hash(),
    )
    cfg = SearchSpaceConfig(features_per_modality=((3,), (3,)), num_cells=1, steps_per_cell=1, hidden_dim=3)
    with pytest.raises(GenotypeError, match="pruned"):
        instantiate(genotype, cfg)


def test_instantiate_rejects_config_mismatch():
    other = SearchSpaceConfig(features_per_modality=((4,), (3,)), num_cells=1, steps_per_cell=1, hidden_dim=3)
    genotype = random_genotype(CFG, np.random.default_rng(0))
    with pytest.raises(GenotypeError, match="config"):
        instantiate(genotype, other)


def test_relaxation_consistency_on_random_genotypes():
    rng = np.random.default_rng(17)
    mixed = MixedFusionEncoder(CFG)
    w = mixed.init_weights(rng)
    feats = _features(CFG, batch=4, seed=18)
    for _ in range(5):
        genotype = random_genotype(CFG, rng)
        arch = saturate_toward(genotype, CFG)
        derived = instantiate(genotype, CFG)
        shared = {k: w[k] for k in derived.weight_shapes()}
        h_mixed = mixed.forward(w, arch.named(), feats)
        h_inst = derived.forward(shared, dict(zip(CFG.sources(), feats)))
        assert np.max(np.abs(h_mixed.data - h_inst.data)) < 1e-9


def test_derived_forward_matches_oracle_on_pruned_derivations():
    cfg = SearchSpaceConfig(features_per_modality=((6, 5), (4, 7)), num_cells=2, steps_per_cell=3, hidden_dim=4)
    h = cfg.hidden_dim
    mixed_shapes = MixedFusionEncoder(cfg).weight_shapes()
    zero = PRIMITIVES.index("Zero")
    rng = np.random.default_rng(21)
    feats = dict(zip(cfg.sources(), _features(cfg, batch=5, seed=22)))
    pruned_seen = reindexed_seen = 0
    for _ in range(60):
        arch = _random_arch(cfg, rng)
        genotype = derive_genotype(arch)
        derived = instantiate(genotype, cfg)
        w = derived.init_weights(rng)
        h_derived = derived.forward(w, feats)
        assert np.max(np.abs(h_derived.data - derived_forward_oracle(genotype, w, feats))) < 1e-12

        selected = {f"proj/{src}" for cell in genotype.cells for src in cell.inputs if not src.startswith("cell:")}
        for c, cell in enumerate(genotype.cells):
            selected.add(f"cell{c}/out")
            selected.update(f"cell{c}/step{s}/{step.op}" for s, step in enumerate(cell.steps))
        shapes = derived.weight_shapes()
        assert list(shapes) == [k for k in mixed_shapes if k.rsplit("/", 1)[0] in selected]
        for c, cell in enumerate(genotype.cells):
            assert shapes[f"cell{c}/out/W"] == (len(cell.steps) * h, h)
        assert all(shapes[k] == mixed_shapes[k] for k in shapes if not k.endswith("/out/W"))

        for c, cell in enumerate(genotype.cells):
            pruned_seen += len(cell.steps) < cfg.steps_per_cell
            # step 0 lost to Zero yet two steps survive: "step:0" names original step 1
            first_pruned = int(np.argmax(arch.gamma[c][0])) == zero and len(cell.steps) > 1
            reindexed_seen += first_pruned and any("step:0" in step.pair for step in cell.steps)
    assert pruned_seen > 0 and reindexed_seen > 0  # the sample must exercise pruning and re-indexing


# ---------------------------------------------------------------------------
# genotype serialization
# ---------------------------------------------------------------------------

def test_genotype_json_roundtrip_canonical():
    genotype = random_genotype(CFG, np.random.default_rng(19))
    text = genotype.to_json()
    again = Genotype.from_json(text)
    assert again == genotype
    assert again.to_json() == text
    # canonical form is key-sorted
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_genotype_hash_stable():
    g1 = random_genotype(CFG, np.random.default_rng(20))
    g2 = Genotype.from_json(g1.to_json())
    assert g1.hash() == g2.hash()


def test_validate_rejects_unknown_source_and_cycles():
    one_cell = SearchSpaceConfig(
        features_per_modality=CFG.features_per_modality, num_cells=1, steps_per_cell=1, hidden_dim=4
    )
    bad_source = Genotype(
        cells=(CellGene(inputs=("image:9", "text:0"), steps=(StepGene(pair=("image:9", "text:0"), op="Sum"),)),),
        config_hash=one_cell.hash(),
    )
    with pytest.raises(GenotypeError, match="unknown input source"):
        validate_genotype(bad_source, one_cell)
    forward_ref = Genotype(
        cells=(
            CellGene(
                inputs=("image:0", "text:0"),
                steps=(
                    StepGene(pair=("step:1", "image:0"), op="Sum"),
                    StepGene(pair=("image:0", "text:0"), op="Sum"),
                ),
            ),
            CellGene(inputs=("image:0", "cell:0"), steps=(StepGene(pair=("image:0", "cell:0"), op="Sum"),)),
        ),
        config_hash=CFG.hash(),
    )
    with pytest.raises(GenotypeError, match="earlier step"):
        validate_genotype(forward_ref, CFG)


GOOD_DOC = {
    "config_hash": CFG.hash(),
    "cells": [
        {
            "inputs": ["image:0", "text:1"],
            "steps": [{"pair": ["image:0", "text:1"], "op": "Sum"}, {"pair": ["step:0", "image:0"], "op": "ConcatFC"}],
        },
        {
            "inputs": ["cell:0", "text:0"],
            "steps": [{"pair": ["cell:0", "text:0"], "op": "LinearGLU"}, {"pair": ["step:0", "cell:0"], "op": "Sum"}],
        },
    ],
}
MALFORMED = {
    "cell-ref-not-int": lambda d: d["cells"][1].update(inputs=["cell:x", "text:0"]),
    "step-ref-not-int": lambda d: d["cells"][0]["steps"][1].update(pair=["step:x", "image:0"]),
    "int-inputs": lambda d: d["cells"][0].update(inputs=[1, 2]),
    "null-input": lambda d: d["cells"][1].update(inputs=[None, "text:0"]),
    "int-pair": lambda d: d["cells"][0]["steps"][0].update(pair=[1, 2]),
    "null-op": lambda d: d["cells"][0]["steps"][0].update(op=None),
    "int-op": lambda d: d["cells"][1]["steps"][1].update(op=3),
    "one-input": lambda d: d["cells"][0].update(inputs=["image:0"]),
}
NOT_A_LIST = {
    "string-inputs": lambda d: d["cells"][0].update(inputs="image:0"),
    "string-pair": lambda d: d["cells"][0]["steps"][0].update(pair="image:0"),
    "object-inputs": lambda d: d["cells"][0].update(inputs={"image:0": 1, "text:1": 2}),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_genotype_documents_raise_genotype_error(edit):
    validate_genotype(Genotype.from_dict(GOOD_DOC), CFG)
    doc = copy.deepcopy(GOOD_DOC)
    edit(doc)
    with pytest.raises(GenotypeError):
        validate_genotype(Genotype.from_json(json.dumps(doc)), CFG)


@pytest.mark.parametrize("edit", NOT_A_LIST.values(), ids=NOT_A_LIST.keys())
def test_names_that_are_not_a_list_are_rejected_when_parsed(edit):
    # a bare string would otherwise be split into one-character sources
    doc = copy.deepcopy(GOOD_DOC)
    edit(doc)
    with pytest.raises(GenotypeError, match="list of source or op names"):
        Genotype.from_dict(doc)


def test_genotype_text_that_is_not_json_raises_genotype_error():
    with pytest.raises(GenotypeError, match="not valid JSON"):
        Genotype.from_json("{")


# source and op names, valid and invalid for CFG
_NAMES = st.sampled_from(
    ["", ":", "image:0", "image:1", "image:9", "text:0", "text:1", "cell:0", "cell:1", "cell:x", "cell:",
     "step:0", "step:1", "step:x", "step:", "Sum", "Zero", "ConcatFC"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["cells", "inputs", "steps", "pair", "op", "config_hash", "x"]), inner, max_size=4),
    max_leaves=12,
)


def _member_paths(node, prefix=()):
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _member_paths(child, prefix + (key,))


@st.composite
def _edited_good_docs(draw):
    """GOOD_DOC with one to three members, at any depth, replaced by a name, a
    list of names or arbitrary JSON.

    Near-valid documents reach every check of validate_genotype past the
    config hash, which arbitrary JSON almost never does.
    """
    doc = copy.deepcopy(GOOD_DOC)
    paths = draw(st.lists(st.sampled_from(list(_member_paths(GOOD_DOC))), min_size=1, max_size=3, unique=True))
    for path in sorted(paths, key=len, reverse=True):  # deepest first: every path still exists
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(draw(st.sampled_from([_NAMES, _NAMES, st.lists(_NAMES, max_size=3), _JSON])))
    return doc


def _validate_or_genotype_error(doc):
    try:
        validate_genotype(Genotype.from_dict(doc), CFG)
    except GenotypeError:
        pass


# 100 examples each: deterministic (derandomized, no example database) and cheap
_PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def test_any_json_document_raises_only_genotype_error(tmp_path):
    # hypothesis caches under its home directory, .hypothesis/ in the working
    # directory unless told otherwise; keep the run's caches in tmp_path
    set_hypothesis_home_dir(tmp_path)
    try:
        _PROPERTY(given(_JSON)(_validate_or_genotype_error))()
        _PROPERTY(given(_edited_good_docs())(_validate_or_genotype_error))()
    finally:
        set_hypothesis_home_dir(None)


def test_apply_primitive_zero_is_exact():
    x = ad.constant(np.ones((2, 3)))
    out = primitive_node("Zero", x, x, {}, 3)
    assert np.all(out.data == 0.0)


def test_ordered_pairs_lexicographic():
    assert ordered_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_arch_logits_are_views_of_one_vector_and_copies_own_theirs():
    arch = ArchParams.init(CFG, np.random.default_rng(15))
    named = arch.named()
    assert arch.flat.size == sum(v.size for v in named.values())
    assert all(np.shares_memory(v, arch.flat) for v in named.values())
    arch.flat += 1.0  # a whole-vector step moves every logit list
    np.testing.assert_array_equal(np.concatenate(list(arch.named().values())), arch.flat)
    arch.gamma[0][0][1] = 5.0  # and an in-place write to a list entry moves the vector
    assert 5.0 in arch.flat
    copied = arch.copy()
    assert not np.shares_memory(copied.flat, arch.flat)
    assert not any(np.shares_memory(a, b) for a in copied.named().values() for b in named.values())
    assert {k: v.tobytes() for k, v in copied.named().items()} == {k: v.tobytes() for k, v in named.items()}
    assert all(np.shares_memory(v, copied.flat) for v in copied.named().values())
