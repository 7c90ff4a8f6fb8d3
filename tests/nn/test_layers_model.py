"""Tests for trainable layers and the model container."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    GlobalAvgPool,
    ReLU,
    ReLU6,
)
from repro.nn.model import InvertedResidual, Model, micro_mobilenet


def _assert_rows_batch_independent(fn, x):
    """Row i of ``fn(x)`` depends on ``x[i]`` alone: it matches the batch
    of one and follows its input when the batch is reversed. BLAS
    blocking differs with the batch size, so the match is close, not
    bitwise (~2e-7 at float32); coupling rows through the batch moves
    them by orders of magnitude more."""
    full = fn(x)
    for i in range(len(x)):
        np.testing.assert_allclose(full[i], fn(x[i : i + 1])[0], rtol=0, atol=1e-5)
    np.testing.assert_allclose(fn(x[::-1]), full[::-1], rtol=0, atol=1e-5)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, (16, 4, 8, 8)).astype(np.float32)
        bn = BatchNorm2D(4)
        y = bn.forward(x, training=True)
        assert abs(y.mean()) < 1e-4
        assert y.std() == pytest.approx(1.0, abs=1e-2)

    def test_running_stats_converge(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2D(2, momentum=0.5)
        for _ in range(20):
            x = rng.normal(5.0, 1.0, (32, 2, 4, 4)).astype(np.float32)
            bn.forward(x, training=True)
        assert bn.running_mean.mean() == pytest.approx(5.0, abs=0.2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2D(2)
        bn.running_mean[:] = 1.0
        bn.running_var[:] = 4.0
        x = np.full((2, 2, 2, 2), 3.0, dtype=np.float32)
        y = bn.forward(x, training=False)
        assert np.allclose(y, (3.0 - 1.0) / 2.0, atol=1e-3)

    def test_eval_does_not_update_stats(self):
        bn = BatchNorm2D(2)
        before = bn.running_mean.copy()
        bn.forward(np.ones((4, 2, 4, 4), dtype=np.float32), training=False)
        assert np.array_equal(bn.running_mean, before)


class TestActivations:
    def test_relu6_clamps(self):
        r = ReLU6()
        x = np.array([[-1.0, 3.0, 10.0]], dtype=np.float32)
        assert r.forward(x).tolist() == [[0.0, 3.0, 6.0]]

    def test_relu6_gradient_masks(self):
        r = ReLU6()
        x = np.array([[-1.0, 3.0, 10.0]], dtype=np.float32)
        r.forward(x)
        dy = np.ones_like(x)
        assert r.backward(dy).tolist() == [[0.0, 1.0, 0.0]]

    def test_relu(self):
        r = ReLU()
        x = np.array([[-2.0, 2.0]], dtype=np.float32)
        assert r.forward(x).tolist() == [[0.0, 2.0]]
        assert r.backward(np.ones_like(x)).tolist() == [[0.0, 1.0]]


class TestGradAccumulation:
    def test_grads_accumulate_until_zeroed(self):
        dense = Dense(4, 2, rng=np.random.default_rng(0))
        x = np.ones((3, 4), dtype=np.float32)
        dense.zero_grad()
        dense.forward(x)
        dense.backward(np.ones((3, 2), dtype=np.float32))
        first = dense.grads["weight"].copy()
        dense.forward(x)
        dense.backward(np.ones((3, 2), dtype=np.float32))
        assert np.allclose(dense.grads["weight"], 2 * first)
        dense.zero_grad()
        assert np.allclose(dense.grads["weight"], 0.0)


class TestInvertedResidual:
    def test_residual_condition(self):
        rng = np.random.default_rng(0)
        assert InvertedResidual(8, 8, stride=1, rng=rng).use_residual
        assert not InvertedResidual(8, 16, stride=1, rng=rng).use_residual
        assert not InvertedResidual(8, 8, stride=2, rng=rng).use_residual

    def test_stride_halves_resolution(self):
        blk = InvertedResidual(4, 8, stride=2, rng=np.random.default_rng(0))
        y = blk.forward(np.zeros((1, 4, 8, 8), dtype=np.float32))
        assert y.shape == (1, 8, 4, 4)

    def test_zero_grad_recurses(self):
        blk = InvertedResidual(4, 4, rng=np.random.default_rng(0))
        blk.forward(np.random.default_rng(1).normal(size=(2, 4, 8, 8)).astype(np.float32), training=True)
        blk.backward(np.ones((2, 4, 8, 8), dtype=np.float32))
        blk.zero_grad()
        for layer in blk.sublayers:
            for g in layer.grads.values():
                assert np.allclose(g, 0.0)


class TestModel:
    def test_forward_returns_logits_and_embedding(self, tiny_model):
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
        logits, emb = tiny_model.forward(x)
        assert logits.shape == (2, 8)
        assert emb.shape == (2, 64)

    def test_predict_proba_batched(self, tiny_model):
        x = np.random.default_rng(1).normal(size=(5, 3, 32, 32)).astype(np.float32)
        p = tiny_model.predict_proba(x, batch_size=2)
        assert p.shape == (5, 8)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-5)
        _assert_rows_batch_independent(tiny_model.predict_proba, x)

    def test_embed_rows_batch_independent(self, tiny_model):
        x = np.random.default_rng(3).normal(size=(9, 3, 32, 32)).astype(np.float32)
        _assert_rows_batch_independent(tiny_model.embed, x)

    def test_embed_matches_forward(self, tiny_model):
        x = np.random.default_rng(2).normal(size=(3, 3, 32, 32)).astype(np.float32)
        _, emb = tiny_model.forward(x)
        assert np.allclose(tiny_model.embed(x), emb, atol=1e-6)

    def test_embedding_index_validation(self):
        from repro.nn.layers import Dense

        with pytest.raises(ValueError):
            Model([Dense(4, 4), Dense(4, 2)], embedding_index=1)

    def test_extra_embedding_layer_changes_arch(self):
        base = micro_mobilenet(num_classes=8, seed=0)
        extra = micro_mobilenet(num_classes=8, seed=0, extra_embedding_layer=True)
        assert extra.num_params > base.num_params

    def test_state_dict_roundtrip(self):
        a = micro_mobilenet(num_classes=4, seed=1)
        b = micro_mobilenet(num_classes=4, seed=2)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
        assert not np.allclose(a.forward(x)[0], b.forward(x)[0])
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.forward(x)[0], b.forward(x)[0])

    def test_load_rejects_missing_keys(self):
        a = micro_mobilenet(num_classes=4, seed=1)
        state = a.state_dict()
        state.pop(sorted(state)[0])
        with pytest.raises(KeyError):
            micro_mobilenet(num_classes=4, seed=1).load_state_dict(state)

    def test_load_rejects_shape_mismatch(self):
        a = micro_mobilenet(num_classes=4, seed=1)
        b = micro_mobilenet(num_classes=5, seed=1)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_copy_is_independent(self, tiny_model):
        clone = tiny_model.copy()
        x = np.random.default_rng(3).normal(size=(1, 3, 32, 32)).astype(np.float32)
        before = tiny_model.forward(x)[0].copy()
        first_layer = clone.trainable_layers()[0]
        first_layer.params["weight"] += 1.0
        assert np.allclose(tiny_model.forward(x)[0], before)

    def test_dembedding_injection_changes_grads(self, tiny_model):
        x = np.random.default_rng(4).normal(size=(2, 3, 32, 32)).astype(np.float32)
        logits, emb = tiny_model.forward(x, training=False)
        tiny_model.zero_grad()
        tiny_model.backward(np.zeros_like(logits), dembedding=np.ones_like(emb))
        # The head's weight gets no gradient (zero dlogits)...
        head = tiny_model.layers[-1]
        assert np.allclose(head.grads["weight"], 0.0)
        # ...but earlier layers do, via the embedding tap.
        first = tiny_model.trainable_layers()[0]
        assert not np.allclose(first.grads["weight"], 0.0)
