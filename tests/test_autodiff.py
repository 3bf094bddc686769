import gc
import weakref

import numpy as np
import pytest

from helpers import check_gradients, linear_oracle, mix

import mmnas.autodiff as ad
from mmnas.autodiff import AutodiffError, NonFiniteError, Tape


def test_softmax_uniform_on_equal_logits():
    out = ad.softmax(ad.constant([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_relu_definition():
    out = ad.relu(ad.constant([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_matmul_counting():
    out = ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 1))))
    np.testing.assert_array_equal(out.data, [[3.0], [3.0]])


def test_backward_square_sum():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], "x")
    root = ad.tsum(ad.mul(x, x))
    grads = tape.backward(root)
    np.testing.assert_array_equal(grads.of(x), [2.0, 4.0])


def test_backward_constant_root_gives_zero_grads():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], "x")
    root = tape.leaf(3.0, "c")  # scalar leaf not depending on x
    grads = tape.backward(root)
    np.testing.assert_array_equal(grads.of(x), [0.0, 0.0])


def test_backward_rejects_nonscalar_root():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], "x")
    with pytest.raises(AutodiffError, match="scalar"):
        tape.backward(ad.mul(x, x))


def test_backward_rejects_off_tape_root():
    tape = Tape()
    tape.leaf([1.0], "x")
    with pytest.raises(AutodiffError, match="tape"):
        tape.backward(ad.constant(1.0))


def test_tape_is_freed_without_the_cycle_collector():
    # backward closures hold arrays, not tensors, so nothing on the tape
    # points back at it and a finished batch frees its memory at once
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3), "x")
        y = ad.concat([ad.mul(x, x), ad.div(x, ad.add(x, 1.0)), ad.matmul(x, ad.transpose(x))], axis=1)
        root = ad.tsum(ad.log(ad.add(ad.l2norm(ad.sub(y, 1.0), axis=1), 1.0)))
        tape.backward(root)
        ref = weakref.ref(tape)
        del tape, x, y, root
        assert ref() is None
    finally:
        gc.enable()


def test_mixing_two_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf([1.0], "a")
    b = t2.leaf([1.0], "b")
    with pytest.raises(AutodiffError, match="different tapes"):
        ad.add(a, b)
    with pytest.raises(AutodiffError, match="different tapes"):
        ad.fused("f", [a, np.ones(1), b], 0.0, lambda g: (g, g, g))
    assert len(t1) == 1 and len(t2) == 1


def test_backward_repeated_is_bit_identical():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(4)

    def run():
        tape = Tape()
        x = tape.leaf(x0.copy(), "x")
        root = ad.mean(ad.log(ad.softmax(x, axis=0)))
        return tape.backward(root).of(x)

    g1, g2 = run(), run()
    assert g1.tobytes() == g2.tobytes()


def test_softmax_log_pipeline_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4)
    check_gradients(
        lambda lv: ad.mean(ad.log(ad.softmax(lv["x"], axis=0))),
        {"x": x},
        tol=1e-6,
    )


def test_softmax_rows_normalized_and_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.standard_normal((3, 5)) * rng.uniform(0.1, 30)
        out = ad.softmax(ad.constant(x), axis=1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_concat_slice_identity():
    rng = np.random.default_rng(3)
    a, b, c = rng.standard_normal((2, 3)), rng.standard_normal((2, 4)), rng.standard_normal((2, 1))
    merged = ad.concat([ad.constant(a), ad.constant(b), ad.constant(c)], axis=1)
    np.testing.assert_array_equal(merged[:, 0:3].data, a)
    np.testing.assert_array_equal(merged[:, 3:7].data, b)
    np.testing.assert_array_equal(merged[:, 7:8].data, c)


def test_nonfinite_output_names_op():
    with pytest.raises(NonFiniteError, match="exp"):
        ad.exp(ad.constant([1000.0]))
    with pytest.raises(NonFiniteError, match="log"):
        ad.log(ad.constant([0.0]))
    with pytest.raises(NonFiniteError, match="div"):
        ad.div(ad.constant([1.0]), ad.constant([0.0]))


def test_shape_mismatch_reported():
    with pytest.raises(AutodiffError, match="matmul"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(AutodiffError, match="add"):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,))))


def test_result_registered_on_tape_iff_input_is():
    tape = Tape()
    leaf = tape.leaf([1.0, 2.0], "x")
    const = ad.constant([3.0, 4.0])
    assert ad.add(leaf, const).tape is tape
    assert ad.add(const, const).tape is None


def _unary_cases(rng):
    # (name, builder, input transform keeping the op differentiable)
    return [
        ("relu", lambda lv: ad.tsum(ad.relu(lv["x"])), lambda x: np.where(np.abs(x) < 1e-3, 0.5, x)),
        ("sigmoid", lambda lv: ad.tsum(ad.sigmoid(lv["x"])), None),
        ("tanh", lambda lv: ad.tsum(ad.tanh(lv["x"])), None),
        ("exp", lambda lv: ad.tsum(ad.exp(lv["x"])), None),
        ("log", lambda lv: ad.tsum(ad.log(lv["x"])), lambda x: np.abs(x) + 0.5),
        ("softmax", lambda lv: ad.tsum(ad.mul(ad.softmax(lv["x"], axis=-1), ad.constant(_w(lv)))), None),
        ("mean", lambda lv: ad.mean(lv["x"]), None),
        ("sum", lambda lv: ad.tsum(lv["x"]), None),
        ("sum_axis", lambda lv: ad.tsum(ad.mul(ad.tsum(lv["x"], axis=0), ad.tsum(lv["x"], axis=0))), None),
        ("scale", lambda lv: ad.tsum(ad.scale(lv["x"], 2.5)), None),
        ("l2norm", lambda lv: ad.tsum(ad.l2norm(lv["x"], axis=-1)), lambda x: x + np.sign(x) * 0.2),
        ("neg", lambda lv: ad.tsum(ad.neg(lv["x"])), None),
        ("transpose", lambda lv: ad.tsum(ad.mul(ad.transpose(lv["x"]), ad.transpose(lv["x"]))), None),
        ("slice", lambda lv: ad.tsum(lv["x"][1:, :2]), None),
    ]


def _w(lv):
    # fixed weighting so softmax/sum gradients are not trivially uniform
    x = lv["x"].data
    return np.linspace(0.5, 2.0, x.size).reshape(x.shape)


@pytest.mark.parametrize("case", _unary_cases(None), ids=lambda c: c[0])
def test_unary_primitive_gradients(case):
    _, builder, fix = case
    rng = np.random.default_rng(hash(case[0]) % 2**32)
    for _ in range(20):
        x = rng.standard_normal((3, 4))
        if fix is not None:
            x = fix(x)
        check_gradients(builder, {"x": x}, tol=1e-6)


def _binary_cases():
    return [
        ("add", lambda lv: ad.tsum(ad.mul(ad.add(lv["a"], lv["b"]), ad.add(lv["a"], lv["b"])))),
        ("sub", lambda lv: ad.tsum(ad.mul(ad.sub(lv["a"], lv["b"]), lv["a"]))),
        ("mul", lambda lv: ad.tsum(ad.mul(lv["a"], lv["b"]))),
        ("div", lambda lv: ad.tsum(ad.div(lv["a"], lv["b"]))),
        ("matmul", lambda lv: ad.tsum(ad.matmul(lv["a"], ad.transpose(lv["b"])))),
        ("concat", lambda lv: ad.tsum(ad.mul(ad.concat([lv["a"], lv["b"]], axis=1), ad.concat([lv["b"], lv["a"]], axis=1)))),
    ]


@pytest.mark.parametrize("case", _binary_cases(), ids=lambda c: c[0])
def test_binary_primitive_gradients(case):
    name, builder = case
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        if name == "div":
            b = b + np.sign(b) * 1.0  # keep denominators away from zero
        check_gradients(builder, {"a": a, "b": b}, tol=1e-6)


def test_broadcast_add_bias_gradient():
    rng = np.random.default_rng(9)
    check_gradients(
        lambda lv: ad.tsum(ad.mul(ad.add(lv["x"], lv["b"]), ad.add(lv["x"], lv["b"]))),
        {"x": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)},
        tol=1e-6,
    )


def test_broadcast_div_rowwise_gradient():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 3))
    n = np.abs(rng.standard_normal((4, 1))) + 0.5
    check_gradients(
        lambda lv: ad.tsum(ad.div(lv["x"], lv["n"])),
        {"x": x, "n": n},
        tol=1e-6,
    )


# scatter with a part fed by two weights (row 0) and a weight feeding two
# parts (column 3), the shape of the pair-marginal slots in mixed_step
_SCATTER = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])


def _mix_cases(rng):
    """(name, params builder, scalar builder) for ``mix``, as in criterion 1."""
    w23 = np.linspace(0.4, 1.6, 6).reshape(2, 3)

    def weighted(t, w=w23):
        return ad.tsum(ad.mul(t, ad.constant(w)))

    def parts(n, shape=(2, 3)):
        return {f"p{i}": rng.standard_normal(shape) for i in range(n)}

    fixed = rng.standard_normal((2, 3))
    return [
        ("plain", lambda: {"w": rng.standard_normal(3), **parts(3)},
         lambda lv: weighted(mix(lv["w"], [lv["p0"], lv["p1"], lv["p2"]]))),
        ("scatter", lambda: {"w": rng.standard_normal(4), **parts(3)},
         lambda lv: weighted(mix(lv["w"], [lv["p0"], lv["p1"], lv["p2"]], _SCATTER))),
        ("scatter_repeated_part", lambda: {"w": rng.standard_normal(4), **parts(2)},
         lambda lv: weighted(mix(lv["w"], [lv["p0"], lv["p1"], lv["p0"]], _SCATTER))),
        ("softmax_weights", lambda: {"a": rng.standard_normal(4), **parts(3)},
         lambda lv: weighted(mix(ad.softmax(lv["a"], axis=0), [lv["p0"], lv["p1"], lv["p2"]], _SCATTER))),
        ("w_off_tape", lambda: parts(3),
         lambda lv: weighted(mix(ad.constant([0.3, -1.2, 0.7]), [lv["p0"], lv["p1"], lv["p2"]]))),
        ("part_off_tape", lambda: {"w": rng.standard_normal(4), **parts(1)},
         lambda lv: weighted(mix(lv["w"], [lv["p0"], ad.constant(np.zeros((2, 3))), ad.constant(fixed)], _SCATTER))),
        ("one_d", lambda: {"w": rng.standard_normal(4), **parts(3, (5,))},
         lambda lv: weighted(mix(lv["w"], [lv["p0"], lv["p1"], lv["p2"]], _SCATTER), np.linspace(0.5, 1.5, 5))),
    ]


@pytest.mark.parametrize("case", _mix_cases(np.random.default_rng(11)), ids=lambda c: c[0])
def test_mix_gradients(case):
    _, make_params, builder = case
    for _ in range(20):
        check_gradients(builder, make_params(), tol=1e-6)


def test_mix_is_one_node_and_matches_the_weighted_sum():
    rng = np.random.default_rng(12)
    w, parts = rng.standard_normal(4), [rng.standard_normal((2, 3)) for _ in range(3)]
    tape = Tape()
    leaves = [tape.leaf(p) for p in parts]
    before = len(tape)
    out = mix(ad.constant(w), leaves, _SCATTER)
    assert len(tape) == before + 1 and out.tape is tape
    c = _SCATTER @ w
    np.testing.assert_allclose(out.data, sum(cp * p for cp, p in zip(c, parts)), rtol=1e-15, atol=1e-15)
    assert mix(ad.constant(w[:3]), [ad.constant(p) for p in parts]).tape is None


@pytest.mark.parametrize("rows", [1, 4])
def test_linear_gradients(rows):
    rng = np.random.default_rng(13 + rows)
    weighting = ad.constant(np.linspace(0.5, 1.5, 2 * rows).reshape(rows, 2))
    for _ in range(20):
        x, w, b = rng.standard_normal((rows, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)
        check_gradients(
            lambda lv: ad.tsum(ad.mul(ad.linear(lv["x"], lv["w"], lv["b"]), weighting)),
            {"x": x, "w": w, "b": b},
            tol=1e-6,
        )
        # raw-array weights stay constants; only the input is differentiated
        check_gradients(lambda lv: ad.tsum(ad.mul(ad.linear(lv["x"], w, b), weighting)), {"x": x}, tol=1e-6)


@pytest.mark.parametrize("on_tape", ["xwb", "x", "wb"])
@pytest.mark.parametrize("rows", [1, 5])
def test_linear_is_one_node_and_bitwise_matmul_plus_add(rows, on_tape):
    rng = np.random.default_rng(rows)
    arrays = {"x": rng.standard_normal((rows, 3)), "w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
    weighting = ad.constant(np.linspace(0.5, 1.5, 4 * rows).reshape(rows, 4))
    results = []
    for layer in (ad.linear, linear_oracle):
        tape = Tape()
        leaves = {k: tape.leaf(v, k) for k, v in arrays.items() if k in on_tape}
        before = len(tape)
        out = layer(*(leaves.get(k, v) for k, v in arrays.items()))
        nodes = len(tape) - before
        grads = tape.backward(ad.tsum(ad.mul(out, weighting)))
        results.append((out.data.tobytes(), nodes, {k: grads.of(t).tobytes() for k, t in leaves.items()}))
    (value, nodes, grads), (ref_value, ref_nodes, ref_grads) = results
    assert (nodes, ref_nodes) == (1, 2)
    assert value == ref_value and grads == ref_grads
    off = ad.linear(*arrays.values())
    assert off.tape is None and off.data.tobytes() == value


def test_linear_rejects_malformed_operands():
    with pytest.raises(AutodiffError, match="linear: expects 2-D"):
        ad.linear(np.ones(3), np.ones((3, 2)), np.ones(2))
    with pytest.raises(AutodiffError, match="linear: inner dims differ"):
        ad.linear(np.ones((2, 3)), np.ones((2, 2)), np.ones(2))
    with pytest.raises(AutodiffError, match="linear: bias of shape"):
        ad.linear(np.ones((2, 3)), np.ones((3, 2)), np.ones((1, 2)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="linear"):
        ad.linear(np.full((1, 1), 1e308), np.full((1, 1), 10.0), np.zeros(1))


def test_leaves_reject_a_non_finite_view_by_name_and_record_nothing():
    from mmnas.util import flat_views

    flat, views = flat_views({"a": np.ones(2), "b": np.ones((2, 2)), "c": np.ones(1)})
    tape = Tape()
    tape.leaf([1.0], "x")
    views["b"][1, 0] = np.inf
    views["c"][0] = np.nan
    with pytest.raises(NonFiniteError, match=r"^leaf:b: non-finite output$"):
        tape.leaves(views, flat)
    assert len(tape) == 1


def test_leaves_are_named_leaves_of_the_views():
    from mmnas.util import flat_views

    flat, views = flat_views({"a": np.arange(2.0), "b": np.arange(4.0).reshape(2, 2)})
    tape = Tape()
    leaves = tape.leaves(views, flat)
    assert list(leaves) == ["a", "b"] and len(tape) == 2
    assert all(leaves[k].data is views[k] for k in views)
    grads = tape.backward(ad.tsum(ad.mul(leaves["b"], leaves["b"])))
    np.testing.assert_array_equal(grads.flat(leaves), [0.0, 0.0, 0.0, 2.0, 4.0, 6.0])


# --- the ``fused`` contract: every node is recorded through it ---


def test_fused_adds_a_repeated_operands_gradients_in_list_order():
    # summed in another order, the three gradients give other floats
    parts = [np.array([1.0, 1e-16, 3.0]), np.array([1e-16, -1.0, 0.1]), np.array([-1.0, 1.0, 0.2])]
    in_order = (parts[0] + parts[1]) + parts[2]
    assert in_order.tobytes() != (parts[0] + (parts[1] + parts[2])).tobytes()
    assert in_order.tobytes() != ((parts[2] + parts[1]) + parts[0]).tobytes()
    tape = Tape()
    x = tape.leaf(np.ones(3), "x")
    w = tape.leaf(np.ones(1), "w")
    root = ad.fused("rep", [x, w, x, x], 0.0, lambda g: (g * parts[0], g * np.ones(1), g * parts[1], g * parts[2]))
    grads = tape.backward(root)
    assert grads.of(x).tobytes() == in_order.tobytes()
    np.testing.assert_array_equal(grads.of(w), [1.0])


def test_fused_skips_a_none_gradient():
    tape = Tape()
    x, y = tape.leaf([1.0, 2.0], "x"), tape.leaf([3.0], "y")
    root = ad.fused("skip", [x, y, x], 0.0, lambda g: (None, g * np.ones(1), g * np.array([4.0, 5.0])))
    grads = tape.backward(root)
    np.testing.assert_array_equal(grads.of(x), [4.0, 5.0])
    np.testing.assert_array_equal(grads.of(y), [1.0])
    root = ad.fused("none", [x, y], 0.0, lambda g: (None, None))
    grads = tape.backward(root)
    np.testing.assert_array_equal(grads.of(x), [0.0, 0.0])
    np.testing.assert_array_equal(grads.of(y), [0.0])


def test_fused_gives_raw_and_off_tape_operands_no_gradient():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], "x")
    raw, const = np.array([5.0, 6.0]), ad.constant([7.0, 8.0])
    calls = []

    def backward(g):
        calls.append(g)
        return g * raw, g * np.ones(2), g * np.ones(2)

    out = ad.fused("sum3", [x, raw, const], np.sum(x.data * raw), backward)
    assert out.tape is tape and out.node_id == len(tape) - 1
    np.testing.assert_array_equal(tape.backward(out).of(x), [5.0, 6.0])
    assert len(calls) == 1
    with pytest.raises(AutodiffError, match="not on the tape"):
        tape.backward(out).of(const)
    # with no operand on a tape the value comes back as a constant, and nothing is recorded
    size = len(tape)
    off = ad.fused("off", [raw, const], raw + const.data, backward)
    assert off.tape is None and off.node_id is None and len(tape) == size
    np.testing.assert_array_equal(off.data, [12.0, 14.0])


def test_fused_rejects_a_non_finite_raw_operand_or_output_and_records_nothing():
    tape = Tape()
    x = tape.leaf([1.0], "x")
    with pytest.raises(NonFiniteError, match="tensor literal contains NaN or Inf"):
        ad.fused("f", [x, np.array([np.nan])], 0.0, lambda g: (g, g))
    with pytest.raises(NonFiniteError, match=r"^f: non-finite output$"):
        ad.fused("f", [x], np.array([np.inf]), lambda g: (g,))
    with pytest.raises(NonFiniteError, match=r"^f: non-finite output$"):
        ad.fused("f", [np.ones(1)], np.array([np.nan]), lambda g: (g,))
    assert len(tape) == 1


def test_fused_node_with_a_repeated_and_a_raw_operand_matches_finite_differences():
    # f(x, y) = sum(tanh(x) * c * x * y) as one node over [x, c, y, x], c raw
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 2))

    def build(p):
        x, y = p["x"].data, p["y"].data
        t = np.tanh(x)

        def backward(g):
            return g * (1.0 - t * t) * c * x * y, g * t * x * y, g * t * c * x, g * t * c * y

        return ad.fused("tanh_prod", [p["x"], c, p["y"], p["x"]], np.sum(t * c * x * y), backward)

    check_gradients(build, {"x": rng.standard_normal((3, 2)), "y": rng.standard_normal((3, 2))}, tol=1e-6)
