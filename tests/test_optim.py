import numpy as np
import pytest

from helpers import AdamOracle, MomentumSGDOracle

from mmnas.optim import Adam, MomentumSGD
from mmnas.util import flat_views


def test_momentum_sgd_two_steps_hand_computed():
    p = np.array([1.0, -2.0])
    opt = MomentumSGD(lr=0.1, momentum=0.9)
    g = np.array([1.0, 1.0])
    opt.step(p, g)
    # v1 = g, p1 = p0 - 0.1 * v1
    np.testing.assert_allclose(p, [0.9, -2.1])
    opt.step(p, g)
    # v2 = 0.9 * 1 + 1 = 1.9
    np.testing.assert_allclose(p, [0.9 - 0.19, -2.1 - 0.19])


def test_adam_first_step_is_lr_sized():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = np.array([0.0, 0.0])
    opt = Adam(lr=0.01)
    opt.step(p, np.array([3.0, -0.5]))
    np.testing.assert_allclose(p, [-0.01, 0.01], rtol=1e-6)


def test_adam_second_step_hand_computed():
    p = np.array([0.0])
    opt = Adam(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step(p, np.array([1.0]))
    opt.step(p, np.array([1.0]))
    # m2 = 1-0.9^2 times corrected -> mhat = 1; vhat = 1; update = lr
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    mhat = m2 / (1 - 0.9**2)
    vhat = v2 / (1 - 0.999**2)
    expected = -0.1 * 1.0 / (np.sqrt(1.0) + 1e-8) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p, [expected], rtol=1e-12)


def test_state_is_per_parameter_name():
    flat, p = flat_views({"a": np.zeros(1), "b": np.zeros(1)})
    opt = MomentumSGD(lr=1.0, momentum=0.5)
    opt.step(flat, np.array([1.0, 0.0]))
    opt.step(flat, np.array([0.0, 1.0]))
    # momentum of a persists even with zero gradient on the second step
    np.testing.assert_allclose(p["a"], [-1.5])
    np.testing.assert_allclose(p["b"], [-1.0])


@pytest.mark.parametrize(
    "make, oracle",
    [
        (lambda: MomentumSGD(lr=0.05, momentum=0.9), lambda: MomentumSGDOracle(0.05, 0.9)),
        (lambda: Adam(lr=0.03), lambda: AdamOracle(0.03)),
    ],
    ids=["sgd", "adam"],
)
def test_flat_step_is_bitwise_the_per_array_step(make, oracle):
    rng = np.random.default_rng(5)
    shapes = {"s": (), "v": (3,), "m": (4, 2), "u": (1,)}
    start = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
    flat, views = flat_views(start)
    expected = {k: np.array(v, copy=True) for k, v in start.items()}
    opt, ref = make(), oracle()
    for _ in range(20):
        grads = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
        opt.step(flat, np.concatenate([g.reshape(-1) for g in grads.values()]))
        ref.step(expected, grads)
    for k in shapes:
        assert views[k].shape == shapes[k]
        assert views[k].tobytes() == expected[k].tobytes(), k
        assert np.shares_memory(views[k], flat), k
