"""``predict_proba`` and ``embed`` run the cache-free inference pass.

Each layer's ``infer`` does ``forward(x, training=False)``'s float32
operations in the same order, so the pass is compared with ``forward``
on bytes, never a tolerance: on the untrained seed-1 model (the serve
suite's) and on one whose BatchNorm running statistics are perturbed,
so that the in-place normalisation is not a near-identity.
"""

import numpy as np
import pytest

from repro.nn.functional import softmax
from repro.nn.layers import BatchNorm2D, Dense, GlobalAvgPool, ReLU6
from repro.nn.model import InvertedResidual, Model, _flatten, micro_mobilenet

BATCHES = [1, 2, 40, 64]


def _model(perturbed, extra_embedding_layer):
    model = micro_mobilenet(
        num_classes=8, seed=1, extra_embedding_layer=extra_embedding_layer
    )
    if perturbed:
        rng = np.random.default_rng(17)
        for layer in _flatten(model.layers):
            if isinstance(layer, BatchNorm2D):
                c = layer.running_mean.size
                layer.running_mean = rng.normal(0, 0.5, c).astype(np.float32)
                layer.running_var = rng.uniform(0.2, 3.0, c).astype(np.float32)
                layer.params["gamma"] = rng.normal(1, 0.3, c).astype(np.float32)
                layer.params["beta"] = rng.normal(0, 0.3, c).astype(np.float32)
    return model


def _batch(n, seed=0):
    return np.random.default_rng([seed, n]).normal(size=(n, 3, 32, 32)).astype(np.float32)


def _read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("extra", [False, True], ids=["base", "extra-embedding"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["seed1", "perturbed-bn"])
def test_matches_forward_bit_for_bit(perturbed, extra):
    model = _model(perturbed, extra)
    for n in BATCHES:
        x = _batch(n)
        logits, embedding = model.forward(x, training=False)
        proba = model.predict_proba(x)
        emb = model.embed(x)
        assert proba.tobytes() == softmax(logits).tobytes(), n
        assert emb.dtype == embedding.dtype and emb.shape == embedding.shape
        assert emb.tobytes() == embedding.tobytes(), n


@pytest.mark.parametrize("perturbed", [False, True], ids=["seed1", "perturbed-bn"])
def test_leaves_no_backward_state(perturbed):
    model = _model(perturbed, extra_embedding_layer=True)
    x = _batch(3)
    model.predict_proba(x)
    model.embed(x)
    layers = _flatten(model.layers)
    assert [type(l).__name__ for l in layers if l._cache is not None] == []
    # forward still caches what backward needs.
    model.forward(x, training=False)
    assert all(layer._cache is not None for layer in layers)


@pytest.mark.parametrize("perturbed", [False, True], ids=["seed1", "perturbed-bn"])
def test_never_writes_its_input(perturbed):
    model = _model(perturbed, extra_embedding_layer=False)
    x = _batch(5)
    before = x.copy()
    ro = _read_only(x)
    assert model.predict_proba(ro).tobytes() == model.predict_proba(x).tobytes()
    assert model.embed(ro).tobytes() == model.embed(x).tobytes()
    assert x.tobytes() == before.tobytes()


def test_in_place_first_layer_does_not_reach_the_input():
    """BatchNorm and ReLU6 normalise in place; the pass hands them its own copy."""
    model = Model(
        [BatchNorm2D(3), ReLU6(), GlobalAvgPool(), Dense(3, 2)], embedding_index=2
    )
    x = _batch(2)
    logits, embedding = model.forward(x, training=False)
    assert model.predict_proba(_read_only(x)).tobytes() == softmax(logits).tobytes()
    assert model.embed(_read_only(x)).tobytes() == embedding.tobytes()


@pytest.mark.parametrize("perturbed", [False, True], ids=["seed1", "perturbed-bn"])
def test_residual_adds_the_unmodified_block_input(perturbed):
    model = _model(perturbed, extra_embedding_layer=False)
    blocks = [b for b in model.layers if isinstance(b, InvertedResidual)]
    residual = [b for b in blocks if b.use_residual]
    assert residual, "the model has stride-1 blocks with a skip"
    rng = np.random.default_rng(23)
    for block in residual:
        c = block.sublayers[0].params["weight"].shape[1]
        x = rng.uniform(-1, 7, (4, c, 8, 8)).astype(np.float32)
        expected = block.forward(x, training=False)
        # A read-only input raises if any sublayer writes the block input
        # before the skip reads it.
        assert block.infer(_read_only(x)).tobytes() == expected.tobytes()


def test_float64_input_is_cast_like_forward():
    model = _model(perturbed=True, extra_embedding_layer=False)
    x = np.random.default_rng(5).normal(size=(2, 3, 32, 32))
    logits, _ = model.forward(x, training=False)
    assert model.predict_proba(x).tobytes() == softmax(logits).tobytes()
