"""The batched input path and the in-place BatchNorm match the per-image oracle bit for bit.

``to_model_input`` gathers the bilinear corners from the float pixels and
quantizes only those; ``BatchNorm2D.forward`` runs its expression in
place. Both are output-neutral rewrites, so every comparison here is on
bytes, never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DeviceRuntime
from repro.imaging import ImageBuffer
from repro.imaging.ops import bilinear_resize, bilinear_resize_batch
from repro.nn.layers import BatchNorm2D
from repro.nn.preprocess import to_model_input
from tests.nn import reference

#: Source (height, width) pairs: integer ratios (96 -> 32), non-integer
#: ratios both ways round, the identity and upsampling.
SHAPES = [(96, 96), (97, 61), (61, 97), (32, 32), (16, 16), (33, 40)]


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _image(rng, shape, low=-0.25, high=1.25):
    """Pixels reaching outside [0, 1], plus exact bucket edges."""
    pixels = rng.uniform(low, high, shape + (3,)).astype(np.float32)
    edges = np.array([0.0, 1.0, 0.5 / 255, 1.5 / 255, 254.5 / 255], np.float32)
    pixels.reshape(-1)[: edges.size] = edges
    return ImageBuffer(pixels)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=7),
    size=st.sampled_from([32, 24]),
)
def test_to_model_input_matches_per_image_oracle(seed, picks, size):
    rng = np.random.default_rng(seed)
    images = [_image(rng, shape) for shape in picks]
    _same_bytes(to_model_input(images, size), reference.to_model_input(images, size))


@pytest.mark.parametrize("shape", SHAPES)
def test_each_ratio_single_and_batched(shape):
    rng = np.random.default_rng(sum(shape))
    images = [_image(rng, shape) for _ in range(5)]
    expected = reference.to_model_input(images)
    _same_bytes(to_model_input(images), expected)
    _same_bytes(to_model_input(images[2]), expected[2:3])


def test_mixed_shapes_keep_input_order():
    rng = np.random.default_rng(3)
    images = [_image(rng, SHAPES[i % len(SHAPES)]) for i in range(13)]
    out = to_model_input(images)
    _same_bytes(out, reference.to_model_input(images))
    for i, image in enumerate(images):
        _same_bytes(out[i : i + 1], reference.to_model_input([image]))


def test_inputs_are_not_modified():
    rng = np.random.default_rng(4)
    images = [_image(rng, (96, 96)), _image(rng, (32, 32))]
    before = [image.pixels.copy() for image in images]
    for image in images:
        image.pixels.flags.writeable = False
    to_model_input(images)
    for image, pixels in zip(images, before):
        _same_bytes(image.pixels, pixels)


@pytest.mark.parametrize("batch_size", [None, 1, 3, 64])
def test_predict_matches_oracle_tensor(tiny_model, batch_size):
    """``predict`` preprocesses per batch; the probabilities do not move."""
    rng = np.random.default_rng(5)
    images = [_image(rng, SHAPES[i % 3]) for i in range(7)]
    x = reference.to_model_input(images)
    step = batch_size or len(images)
    expected = np.concatenate(
        [tiny_model.predict_proba(x[s : s + step]) for s in range(0, len(x), step)]
    )
    got = DeviceRuntime(tiny_model, batch_size=batch_size).predict(images)
    assert [p.probabilities for p in got] == [tuple(map(float, row)) for row in expected]


@pytest.mark.parametrize("src", [(24, 32), (97, 61), (5, 5), (3, 7)])
@pytest.mark.parametrize("dst", [(12, 16), (32, 32), (40, 9), (5, 5)])
def test_bilinear_resize_matches_oracle(src, dst):
    rng = np.random.default_rng(6)
    plane = rng.uniform(-1, 2, src).astype(np.float32)
    rgb = rng.uniform(-1, 2, src + (3,)).astype(np.float32)
    _same_bytes(bilinear_resize(plane, *dst), reference.bilinear_resize(plane, *dst))
    _same_bytes(bilinear_resize(rgb, *dst), reference.bilinear_resize(rgb, *dst))
    stack = rng.uniform(0, 1, (3,) + src + (3,)).astype(np.float32)
    _same_bytes(
        bilinear_resize_batch(stack, *dst),
        np.stack([reference.bilinear_resize(item, *dst) for item in stack]),
    )


@pytest.mark.parametrize("training", [False, True])
def test_batchnorm_forward_matches_expression(training):
    rng = np.random.default_rng(7)
    bn = BatchNorm2D(5)
    bn.params["gamma"] = rng.normal(1, 0.5, 5).astype(np.float32)
    bn.params["beta"] = rng.normal(0, 0.5, 5).astype(np.float32)
    bn.running_mean = rng.normal(0, 1, 5).astype(np.float32)
    bn.running_var = rng.uniform(0.1, 3, 5).astype(np.float32)
    x = rng.normal(0, 2, (4, 5, 6, 7)).astype(np.float32)
    if training:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    else:
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
    y, x_hat, inv_std = reference.batchnorm_forward(
        x, mean, var, bn.params["gamma"], bn.params["beta"], bn.eps
    )
    x_before = x.copy()
    out = bn.forward(x, training=training)
    _same_bytes(out, y)
    _same_bytes(bn._cache[0], x_hat)
    _same_bytes(bn._cache[1], inv_std)
    _same_bytes(x, x_before)
    if not training:
        owned = x.copy()
        inferred = bn.infer(owned)
        _same_bytes(inferred, y)
        assert np.shares_memory(inferred, owned)  # in place, no x_hat kept
    # Backward still runs from the cache in both modes.
    dx = bn.backward(np.ones_like(x))
    assert dx.shape == x.shape and np.isfinite(dx).all()
