import gc
import weakref

import numpy as np
import pytest

from helpers import check_gradients

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
