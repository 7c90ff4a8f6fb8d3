"""Model graph: sequential container, inverted residual blocks, and the
MicroMobileNet architecture.

MicroMobileNet is a laptop-scale stand-in for MobileNetV2 (Sandler et
al. 2018), preserving the architectural features that matter here:
inverted residual blocks (1x1 expand -> depthwise 3x3 -> 1x1 project,
with a residual skip at stride 1), ReLU6 activations, batch norm
everywhere, a global-average-pool *embedding layer* feeding a dense
classifier head. The embedding is exposed directly because the paper's
embedding-distance stability loss (§9.1) is defined on "the input to the
last fully-connected layer of the model".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .functional import softmax
from .layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    Layer,
    ReLU,
    ReLU6,
)

__all__ = ["InvertedResidual", "Model", "micro_mobilenet"]


class InvertedResidual(Layer):
    """MobileNetV2's building block: expand, depthwise filter, project.

    With ``stride == 1`` and matching channel counts the block adds a
    residual connection around itself.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expand_ratio: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        # Deterministic fallback for layers constructed standalone (unit
        # tests, ad-hoc probes). Every real model path threads the rng
        # from micro_mobilenet's seed, so this literal never reaches
        # capture results.
        rng = rng or np.random.default_rng(0)
        hidden = in_channels * expand_ratio
        self.use_residual = stride == 1 and in_channels == out_channels
        self.sublayers: List[Layer] = [
            Conv2D(in_channels, hidden, kernel=1, pad=0, bias=False, rng=rng),
            BatchNorm2D(hidden),
            ReLU6(),
            DepthwiseConv2D(hidden, kernel=3, stride=stride, bias=False, rng=rng),
            BatchNorm2D(hidden),
            ReLU6(),
            Conv2D(hidden, out_channels, kernel=1, pad=0, bias=False, rng=rng),
            BatchNorm2D(out_channels),
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.sublayers:
            out = layer.forward(out, training)
        if self.use_residual:
            out = out + x
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        # The expand conv reads x without writing it, so the skip adds the
        # block input as it came in.
        out = x
        for layer in self.sublayers:
            out = layer.infer(out)
        if self.use_residual:
            out += x
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = dy
        for layer in reversed(self.sublayers):
            dx = layer.backward(dx)
        if self.use_residual:
            dx = dx + dy
        return dx

    def zero_grad(self) -> None:
        for layer in self.sublayers:
            layer.zero_grad()

    @property
    def num_params(self) -> int:
        return sum(l.num_params for l in self.sublayers)


def _flatten(layers: Iterable[Layer]) -> List[Layer]:
    flat: List[Layer] = []
    for layer in layers:
        sub = getattr(layer, "sublayers", None)
        if sub is not None:
            flat.extend(_flatten(sub))
        else:
            flat.append(layer)
    return flat


class Model:
    """A sequential model with an exposed embedding tap.

    ``layers[: embedding_index + 1]`` compute the embedding;
    the remaining layers are the classifier head. ``forward`` returns
    ``(logits, embedding)`` and ``backward`` accepts gradients for both,
    which is exactly the interface stability training needs.
    """

    def __init__(self, layers: List[Layer], embedding_index: int) -> None:
        if not 0 <= embedding_index < len(layers) - 1:
            raise ValueError(
                "embedding_index must leave at least one head layer after it"
            )
        self.layers = layers
        self.embedding_index = embedding_index

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, training: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        out = x.astype(np.float32, copy=False)
        embedding = None
        for i, layer in enumerate(self.layers):
            out = layer.forward(out, training)
            if i == self.embedding_index:
                embedding = out
        assert embedding is not None
        return out, embedding

    def backward(
        self, dlogits: np.ndarray, dembedding: Optional[np.ndarray] = None
    ) -> np.ndarray:
        grad = dlogits
        for i in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[i].backward(grad)
            if i == self.embedding_index + 1 and dembedding is not None:
                grad = grad + dembedding
        return grad

    # ------------------------------------------------------------------
    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities in inference mode, mini-batched.

        The bits of ``softmax(forward(x, training=False)[0])``, computed by
        the layers' ``infer`` passes, so no backward state is kept.
        """
        outputs = []
        for start in range(0, len(x), batch_size):
            logits = self._infer(x[start : start + batch_size], self.layers)
            outputs.append(softmax(logits))
        return np.concatenate(outputs, axis=0)

    def embed(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Embeddings in inference mode (``forward``'s, with no backward state)."""
        outputs = []
        tap = self.layers[: self.embedding_index + 1]
        for start in range(0, len(x), batch_size):
            outputs.append(self._infer(x[start : start + batch_size], tap))
        return np.concatenate(outputs, axis=0)

    @staticmethod
    def _infer(x: np.ndarray, layers: List[Layer]) -> np.ndarray:
        # The layers may overwrite what they are handed; the pass starts
        # from its own float32 copy so the caller's array is never written.
        out = x.astype(np.float32)
        for layer in layers:
            out = layer.infer(out)
        return out

    # ------------------------------------------------------------------
    def trainable_layers(self) -> List[Layer]:
        return [l for l in _flatten(self.layers) if l.params]

    def zero_grad(self) -> None:
        for layer in _flatten(self.layers):
            layer.zero_grad()

    @property
    def num_params(self) -> int:
        return sum(l.num_params for l in _flatten(self.layers))

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters and batch-norm running stats, keyed by path."""
        state: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(_flatten(self.layers)):
            for key, value in layer.params.items():
                state[f"layer{i:03d}.{key}"] = value.copy()
            if isinstance(layer, BatchNorm2D):
                state[f"layer{i:03d}.running_mean"] = layer.running_mean.copy()
                state[f"layer{i:03d}.running_var"] = layer.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        flat = _flatten(self.layers)
        for i, layer in enumerate(flat):
            for key in layer.params:
                full = f"layer{i:03d}.{key}"
                if full not in state:
                    raise KeyError(f"missing parameter {full}")
                if state[full].shape != layer.params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {full}: "
                        f"{state[full].shape} vs {layer.params[key].shape}"
                    )
                layer.params[key] = state[full].astype(np.float32).copy()
            if isinstance(layer, BatchNorm2D):
                layer.running_mean = state[f"layer{i:03d}.running_mean"].copy()
                layer.running_var = state[f"layer{i:03d}.running_var"].copy()

    def copy(self) -> "Model":
        """A deep copy with independent parameters (same architecture)."""
        import copy as _copy

        clone = _copy.deepcopy(self)
        clone.zero_grad()
        return clone


def micro_mobilenet(
    num_classes: int = 8,
    seed: int = 0,
    embed_dim: int = 64,
    extra_embedding_layer: bool = False,
) -> Model:
    """Build the MicroMobileNet classifier.

    Input is ``(N, 3, 32, 32)``. With ``extra_embedding_layer=True`` an
    additional Dense+ReLU is inserted between the pooled features and the
    head — the modification the paper makes to evaluate the
    embedding-distance stability loss.
    """
    rng = np.random.default_rng(seed)
    layers: List[Layer] = [
        Conv2D(3, 16, kernel=3, stride=2, bias=False, rng=rng),  # 32 -> 16
        BatchNorm2D(16),
        ReLU6(),
        InvertedResidual(16, 24, stride=2, expand_ratio=4, rng=rng),  # 16 -> 8
        InvertedResidual(24, 24, stride=1, expand_ratio=4, rng=rng),
        InvertedResidual(24, 32, stride=2, expand_ratio=4, rng=rng),  # 8 -> 4
        InvertedResidual(32, 32, stride=1, expand_ratio=4, rng=rng),
        Conv2D(32, embed_dim, kernel=1, pad=0, bias=False, rng=rng),
        BatchNorm2D(embed_dim),
        ReLU6(),
        GlobalAvgPool(),
    ]
    if extra_embedding_layer:
        layers.append(Dense(embed_dim, embed_dim, rng=rng))
        layers.append(ReLU())
    embedding_index = len(layers) - 1
    layers.append(Dense(embed_dim, num_classes, rng=rng))
    return Model(layers, embedding_index=embedding_index)
