"""The convolution kernels match the einsum / ``np.pad`` oracle bit for bit.

``depthwise_conv2d_forward`` calls the batched matmul that
``np.einsum(..., optimize=True)`` contracts to, and ``im2col`` and the
depthwise forward pad into a zero buffer instead of calling ``np.pad``.
Both are output-neutral rewrites, so every comparison is on bytes. The
grid covers the model's batch sizes (1 for ``predict_one``, 40 and 64
for fused groups), a single channel (where einsum drops the batch axis
of its matmul), the model's activation sizes, and an odd size where the
stride-2 output is not half the input.
"""

import numpy as np
import pytest

from repro.nn.functional import depthwise_conv2d_forward, im2col
from tests.nn import reference

BATCHES = [1, 2, 5, 40, 64]
CHANNELS = [1, 16, 96]
SIZES = [4, 7, 8, 16]
STRIDES = [1, 2]


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("channels", CHANNELS)
@pytest.mark.parametrize("n", BATCHES)
def test_depthwise_forward_matches_einsum(n, channels, size, stride):
    rng = np.random.default_rng([n, channels, size, stride])
    x = rng.normal(0, 2, (n, channels, size, size)).astype(np.float32)
    weight = rng.normal(0, 1, (channels, 3, 3)).astype(np.float32)
    x_before = x.copy()
    y, (windows, *_) = depthwise_conv2d_forward(x, weight, None, stride, 1)
    expected = reference.depthwise_conv2d_forward(x, weight, stride, 1)
    _same_bytes(y, expected)
    # Backward reads the same windows, laid out alike, that the einsum saw.
    oracle_windows = reference.windows(x, 3, stride, 1)[0]
    assert windows.strides == oracle_windows.strides
    _same_bytes(np.ascontiguousarray(windows), np.ascontiguousarray(oracle_windows))
    _same_bytes(x, x_before)


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", BATCHES)
def test_im2col_matches_np_pad(n, size, stride):
    rng = np.random.default_rng([n, size, stride])
    x = rng.normal(0, 2, (n, 16, size, size)).astype(np.float32)
    for kernel, pad in [(3, 1), (1, 0)]:
        cols, out = im2col(x, kernel, stride, pad)
        expected_cols, expected_out = reference.im2col(x, kernel, stride, pad)
        assert out == expected_out
        _same_bytes(cols, expected_cols)


def test_depthwise_bias_and_float64_match_einsum():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 5, 7, 7))
    weight = rng.normal(size=(5, 3, 3)).astype(np.float32)
    bias = rng.normal(size=5).astype(np.float32)
    y, _ = depthwise_conv2d_forward(x, weight, bias, 2, 1)
    expected = reference.depthwise_conv2d_forward(x, weight, 2, 1)
    expected += bias[None, :, None, None]
    _same_bytes(y, expected)
