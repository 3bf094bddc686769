import itertools
import math

import numpy as np
import pytest

from helpers import augment_view_oracle, check_gradients, max_rel_err, naive_ntxent

import mmnas.autodiff as ad
from mmnas.autodiff import Tape
from mmnas.contrastive import (
    ContrastiveConfig,
    ContrastiveError,
    ProjectionHead,
    augment_views,
    ntxent_loss,
)


def _batch(n=12, img_dims=(8, 6), txt_dims=(7,), seed=0):
    """(image matrices, text matrices) of an n-row batch."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, d)) for d in img_dims], [rng.standard_normal((n, d)) for d in txt_dims]


def _identity_cfg(**kw):
    return ContrastiveConfig(
        crop_prob=0.0,
        flip_prob=0.0,
        jitter_prob=0.0,
        blur_prob=0.0,
        rotate_prob=0.0,
        noise_scale=0.0,
        mask_prob=0.0,
        **kw,
    )


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_zero_probability_augmentation_is_identity():
    image, text = _batch(n=1)
    view = augment_views(image, text, 10, _identity_cfg(), np.random.default_rng(0))
    for orig, new in zip(image + text, view[0] + view[2]):
        np.testing.assert_array_equal(orig, new)
    assert view[1].shape == (1, 10) and not view[1].any()


def test_near_one_mask_probability_masks_nearly_everything():
    cfg = ContrastiveConfig(mask_prob=0.999999)
    _, mask, feats = augment_views(*_batch(n=1), 4000, cfg, np.random.default_rng(1))
    assert np.mean(mask) > 0.999
    assert np.mean(feats[0] == 0.0) > 0.99


def test_fixed_seed_views_are_byte_identical():
    image, text = _batch(n=1, seed=42)
    cfg = ContrastiveConfig()
    one = augment_views(image, text, 10, cfg, np.random.default_rng(42))
    two = augment_views(image, text, 10, cfg, np.random.default_rng(42))
    for a, b in zip(one[0] + [one[1]] + one[2], two[0] + [two[1]] + two[2]):
        assert a.tobytes() == b.tobytes()


def test_augmentation_does_not_touch_the_input():
    image, text = _batch(n=1, seed=3)
    before = [x.copy() for x in image + text]
    augment_views(image, text, 10, ContrastiveConfig(), np.random.default_rng(7))
    for orig, kept in zip(image + text, before):
        np.testing.assert_array_equal(orig, kept)


def test_empty_feature_vector_rejected():
    image, text = _batch(n=1)
    image[0] = np.zeros((1, 0))
    with pytest.raises(ContrastiveError, match="empty"):
        augment_views(image, text, 10, ContrastiveConfig(), np.random.default_rng(0))


def test_zero_length_text_sequence_rejected():
    for n in (1, 12):
        image, text = _batch(n=n)
        with pytest.raises(ContrastiveError, match="seq_len"):
            augment_views(image, text, 0, ContrastiveConfig(), np.random.default_rng(0))


def test_batched_validation_checks_every_row():
    # a one-row text matrix would otherwise broadcast over the whole batch,
    # and a short image layer would fail with a bare IndexError
    for short in ("image", "text"):
        image, text = _batch()
        layers = image if short == "image" else text
        layers[-1] = layers[-1][:1]
        with pytest.raises(ContrastiveError, match="12 rows"):
            augment_views(image, text, 10, ContrastiveConfig(), np.random.default_rng(0))


GATES = ("crop_prob", "flip_prob", "jitter_prob", "blur_prob", "rotate_prob")

ORACLE_CASES = (
    [pytest.param({"img_dims": (d,)}, {}, id=f"image-dim-{d}") for d in (1, 2, 3, 5, 32)]
    + [
        pytest.param({"txt_dims": (7, 13), "seq_len": 5}, {}, id="text-dims-not-multiple-of-L"),
        pytest.param({"seq_len": 1}, {}, id="L-1"),
    ]
    + [pytest.param({}, {"crop_fraction": f}, id=f"crop-fraction-{f}") for f in (0.0, 0.3, 1.0)]
    + [
        pytest.param({"img_dims": (8, 3)}, {"blur_width": w, "blur_prob": 0.9}, id=f"blur-width-{w}")
        for w in (1, 3, 4)
    ]
    + [
        pytest.param({}, {"noise_scale": 0.0}, id="no-noise"),
        pytest.param({}, {"mask_prob": 0.0}, id="no-masking"),
        pytest.param({}, {g: 0.0 for g in GATES}, id="all-gates-0"),
        pytest.param({}, {g: 1.0 for g in GATES}, id="all-gates-1"),
    ]
)


@pytest.mark.parametrize("shape, overrides", ORACLE_CASES)
def test_batched_augmentation_matches_the_per_row_oracle(shape, overrides):
    shape = dict(shape)
    seq_len = shape.pop("seq_len", 10)
    image, text = _batch(**shape)
    cfg = ContrastiveConfig(**overrides)
    batch_rng, row_rng = np.random.default_rng(11), np.random.default_rng(11)
    image_view, mask, text_view = augment_views(image, text, seq_len, cfg, batch_rng)
    assert mask.shape == (len(image[0]), seq_len)
    for r in range(len(image[0])):
        want_image, want_mask, want_text = augment_view_oracle(
            [x[r] for x in image], [f[r] for f in text], seq_len, cfg, row_rng
        )
        for want, got in zip(want_image + want_text, image_view + text_view):
            assert want.tobytes() == got[r].tobytes()
        assert want_mask.tobytes() == mask[r].tobytes()
    # the batch consumed exactly the draws of the per-row calls
    assert batch_rng.bit_generator.state == row_rng.bit_generator.state


READ_SETS = [r for r in itertools.product((False, True), repeat=4) if any(r)]


@pytest.mark.parametrize("img_dims", [(1, 2), (8, 6)], ids=["dims-1-2", "dims-8-6"])
@pytest.mark.parametrize("overrides", [{}, {g: 1.0 for g in GATES}], ids=["default", "all-gates-1"])
def test_reading_some_layers_gives_the_views_and_draws_of_reading_all(img_dims, overrides):
    # dim 1 has a crop span of 0 and no rotation pair, and the blur window is
    # wider than both dims: unread layers still draw every gate
    image, text = _batch(n=9, img_dims=img_dims, txt_dims=(5, 3), seed=4)
    cfg = ContrastiveConfig(**overrides)
    all_rng = np.random.default_rng(21)
    image_view, mask, text_view = augment_views(image, text, 4, cfg, all_rng)
    for read in READ_SETS:
        rng = np.random.default_rng(21)
        got_image, got_mask, got_text = augment_views(
            [x if r else x.shape[1] for x, r in zip(image, read)], [f for f, r in zip(text, read[2:]) if r], 4, cfg, rng
        )
        assert rng.bit_generator.state == all_rng.bit_generator.state, read
        assert got_mask.tobytes() == mask.tobytes()
        for want, got, r in zip(image_view, got_image, read):
            assert got is None if not r else got.tobytes() == want.tobytes(), read
        assert [v.tobytes() for v, r in zip(text_view, read[2:]) if r] == [v.tobytes() for v in got_text], read


def test_a_batch_without_matrices_is_rejected():
    with pytest.raises(ContrastiveError, match="at least one matrix"):
        augment_views([8, 6], [], 10, ContrastiveConfig(), np.random.default_rng(0))


def test_negative_jitter_scale_rejected():
    with pytest.raises(ContrastiveError, match="jitter_scale"):
        ContrastiveConfig(jitter_scale=-0.1)


def test_mask_prob_one_rejected():
    with pytest.raises(ContrastiveError, match="mask_prob"):
        ContrastiveConfig(mask_prob=1.0)


# ---------------------------------------------------------------------------
# projection head
# ---------------------------------------------------------------------------

def test_projection_zero_weights_give_zero():
    head = ProjectionHead(4, 6, 3)
    weights = {name: np.zeros(shape) for name, shape in head.weight_shapes().items()}
    z = head.forward(weights, ad.constant(np.random.default_rng(0).standard_normal((5, 4))))
    np.testing.assert_array_equal(z.data, np.zeros((5, 3)))


def test_projection_identity_construction_passes_relu():
    head = ProjectionHead(3, 3, 3)
    weights = {
        "head/W1": np.eye(3),
        "head/b1": np.zeros(3),
        "head/W2": np.eye(3),
        "head/b2": np.zeros(3),
    }
    h = np.array([[1.0, -2.0, 0.5]])
    z = head.forward(weights, ad.constant(h))
    np.testing.assert_array_equal(z.data, np.maximum(h, 0.0))


def test_projection_gradients_match_finite_differences():
    head = ProjectionHead(4, 5, 3)
    rng = np.random.default_rng(8)
    params = head.init_weights(rng)
    h = rng.standard_normal((4, 4))

    def build(lv):
        z = head.forward(lv, ad.constant(h))
        return ad.tsum(ad.mul(z, ad.constant(np.linspace(-1, 1, z.data.size).reshape(z.shape))))

    check_gradients(build, params, tol=1e-6)


def test_projection_shape_mismatch():
    head = ProjectionHead(4, 5, 3)
    weights = head.init_weights(np.random.default_rng(0))
    with pytest.raises(ContrastiveError, match="batch x 4"):
        head.forward(weights, ad.constant(np.zeros((2, 7))))


# ---------------------------------------------------------------------------
# nt-xent loss
# ---------------------------------------------------------------------------

def test_single_pair_loss_is_exactly_zero():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((2, 5))
    loss = ntxent_loss(ad.constant(z), temperature=0.37)
    assert float(loss.data) == 0.0


def test_two_pair_hand_value():
    # pairs identical within, orthogonal across: L = ln(1 + 2/e)
    z = np.array(
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, 1.0],
        ]
    )
    loss = float(ntxent_loss(ad.constant(z), temperature=1.0).data)
    assert abs(loss - math.log(1.0 + 2.0 / math.e)) < 1e-9
    assert abs(loss - 0.551445) < 1e-6


def test_scale_invariance():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((8, 6))
    l1 = float(ntxent_loss(ad.constant(z), 0.3).data)
    l2 = float(ntxent_loss(ad.constant(10.0 * z), 0.3).data)
    assert abs(l1 - l2) < 1e-12


def test_per_row_positive_rescaling_invariance():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((6, 4))
    scales = rng.uniform(0.2, 9.0, size=(6, 1))
    l1 = float(ntxent_loss(ad.constant(z), 0.5).data)
    l2 = float(ntxent_loss(ad.constant(z * scales), 0.5).data)
    assert abs(l1 - l2) < 1e-12


def test_pair_order_swap_symmetry():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((8, 5))
    swapped = z.reshape(4, 2, 5)[:, ::-1, :].reshape(8, 5)
    l1 = float(ntxent_loss(ad.constant(z), 0.2).data)
    l2 = float(ntxent_loss(ad.constant(swapped), 0.2).data)
    assert abs(l1 - l2) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
def test_matches_naive_reference(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        z = rng.standard_normal((2 * n, 7))
        mine = float(ntxent_loss(ad.constant(z), 0.25).data)
        ref = naive_ntxent(z, 0.25)
        assert abs(mine - ref) < 1e-9


@pytest.mark.parametrize("n", [2, 4, 8])
def test_loss_gradient_matches_finite_differences(n):
    rng = np.random.default_rng(20 + n)
    z = rng.standard_normal((2 * n, 5))
    check_gradients(lambda lv: ntxent_loss(lv["z"], 0.4), {"z": z}, tol=1e-5)


def test_zero_norm_row_rejected():
    z = np.ones((4, 3))
    z[2] = 0.0
    with pytest.raises(ContrastiveError, match="zero-norm"):
        ntxent_loss(ad.constant(z), 0.5)


def test_bad_batch_shapes_rejected():
    with pytest.raises(ContrastiveError, match="even"):
        ntxent_loss(ad.constant(np.ones((3, 2))), 0.5)
    with pytest.raises(ContrastiveError, match="even"):
        ntxent_loss(ad.constant(np.ones((0, 2))), 0.5)
    with pytest.raises(ContrastiveError, match="temperature"):
        ntxent_loss(ad.constant(np.ones((2, 2))), 0.0)


def test_loss_is_one_tape_node():
    tape = Tape()
    z = tape.leaf(np.random.default_rng(31).standard_normal((8, 5)), "z")
    before = len(tape)
    loss = ntxent_loss(z, 0.3)
    assert len(tape) == before + 1 and loss.tape is tape


@pytest.mark.parametrize(
    "z, temperature, match",
    [
        (np.array([[1.0, 2.0], [0.0, 0.0]]), 0.5, "zero-norm"),
        (np.ones((3, 2)), 0.5, "even"),
        (np.ones(4), 0.5, "2-D"),
        (np.ones((2, 2)), 0.0, "temperature"),
        (np.ones((2, 2)), -1.0, "temperature"),
    ],
    ids=["zero-norm", "odd-rows", "1-D", "zero-temperature", "negative-temperature"],
)
def test_rejected_input_records_no_node(z, temperature, match):
    tape = Tape()
    leaf = tape.leaf(z, "z")
    with pytest.raises(ContrastiveError, match=match):
        ntxent_loss(leaf, temperature)
    assert len(tape) == 1  # the leaf only


def test_overflowing_row_norm_is_non_finite():
    # |z|^2 overflows although z is finite; dividing by an infinite norm
    # would give zero rows and a finite, meaningless loss
    tape = Tape()
    z = tape.leaf([[1e200, 0.0], [0.0, 1.0]], "z")
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="ntxent"):
        ntxent_loss(z, 0.5)
    assert len(tape) == 1


def test_loss_differentiable_through_projection_head():
    head = ProjectionHead(3, 4, 3)
    rng = np.random.default_rng(30)
    params = head.init_weights(rng)
    h = rng.standard_normal((4, 3))

    def build(lv):
        return ntxent_loss(head.forward(lv, ad.constant(h)), 0.3)

    check_gradients(build, params, tol=1e-5)
