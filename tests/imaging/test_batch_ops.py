"""Batched imaging ops are bit-identical to their per-item forms.

Ops that only exist in batch form are checked as a batch of N against
N batches of one.
"""

import numpy as np
import pytest

from repro.imaging.color import (
    apply_wb_gains_batch,
    gray_world_gains,
    gray_world_gains_batch,
)
from repro.imaging.ops import (
    bilinear_resize,
    bilinear_resize_batch,
    gaussian_blur,
    gaussian_blur_batch,
    unsharp_mask_batch,
)


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(11)
    return rng.random((4, 24, 32, 3)).astype(np.float32)


def _identical(batched, serial_items):
    expected = np.stack(serial_items)
    assert batched.dtype == expected.dtype
    assert batched.tobytes() == expected.tobytes()


def test_bilinear_resize_batch(stack):
    for hw in ((12, 16), (24, 32), (30, 40)):
        out = bilinear_resize_batch(stack, *hw)
        _identical(out, [bilinear_resize(item, *hw) for item in stack])


def test_gaussian_blur_batch(stack):
    for sigma in (0.0, 0.8, 2.5):
        out = gaussian_blur_batch(stack, sigma)
        _identical(out, [gaussian_blur(item, sigma) for item in stack])


def test_gaussian_blur_planes_batch(stack):
    planes = np.ascontiguousarray(stack[..., 0])
    for sigma in (0.0, 1.2):
        out = gaussian_blur_batch(planes, sigma)
        _identical(out, [gaussian_blur(p, sigma) for p in planes])


def test_unsharp_mask_batch(stack):
    out = unsharp_mask_batch(stack, sigma=1.0, amount=0.6)
    _identical(
        out,
        [unsharp_mask_batch(item[None], sigma=1.0, amount=0.6)[0] for item in stack],
    )


def test_gray_world_gains_batch(stack):
    out = gray_world_gains_batch(stack)
    _identical(out, [np.asarray(gray_world_gains(item), np.float32) for item in stack])


def test_apply_wb_gains_batch(stack):
    gains = gray_world_gains_batch(stack)
    out = apply_wb_gains_batch(stack, gains)
    _identical(
        out,
        [apply_wb_gains_batch(item[None], g[None])[0] for item, g in zip(stack, gains)],
    )


def test_batch_ops_reject_wrong_rank(stack):
    with pytest.raises(ValueError):
        bilinear_resize_batch(stack[0], 12, 16)
    with pytest.raises(ValueError):
        gray_world_gains_batch(stack[..., 0])
