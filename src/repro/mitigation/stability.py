"""Stability training (paper §9.1; after Zheng et al. 2016).

Fine-tunes a model with the augmented objective

    L(x, x', theta) = L0(x, theta) + alpha * Ls(x, x', theta)

where ``L0`` is cross entropy on the clean image, ``x'`` comes from a
:class:`~repro.mitigation.noise.NoiseGenerator`, and ``Ls`` is either the
KL divergence between the two predictions ("kl") or the Euclidean
distance between the two embeddings ("embedding"). The paper's Table 6
sweeps the 4 noise schemes x 2 losses; :func:`run_table6` reproduces
that sweep and :func:`evaluate_cross_device_instability` scores each
fine-tuned model on held-out Samsung/iPhone photo pairs.

Implementation note: each step runs three forward passes — one to obtain
the clean prediction values, one through the noisy image (backward for
the x'-side gradients), one through the clean image (backward for the
L0 and x-side gradients). Gradients accumulate across the two backward
passes before the optimizer step; this is the explicit-cache equivalent
of autodiff through a two-branch graph with shared weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.instability import instability
from ..core.records import ExperimentResult
from ..devices.runtime import Prediction
from ..lab.common import make_record
from ..nn.losses import (
    cross_entropy,
    embedding_stability_loss,
    kl_stability_loss,
)
from ..nn.model import Model
from ..nn.optim import Adam
from .data import StabilityCorpus
from .noise import NoiseGenerator

__all__ = [
    "StabilityTrainConfig",
    "StabilityTrainer",
    "evaluate_cross_device_instability",
    "Table6Row",
    "run_table6",
]


@dataclass
class StabilityTrainConfig:
    """Hyperparameters for one stability fine-tuning run."""

    alpha: float = 0.01
    stability_loss: str = "kl"  # "kl" or "embedding"
    epochs: int = 6
    batch_size: int = 32
    lr: float = 4e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.stability_loss not in ("kl", "embedding"):
            raise ValueError(f"unknown stability loss {self.stability_loss!r}")


class StabilityTrainer:
    """Fine-tune ``model`` in place with the stability objective."""

    def __init__(
        self,
        model: Model,
        noise: NoiseGenerator,
        config: StabilityTrainConfig,
    ) -> None:
        self.model = model
        self.noise = noise
        self.config = config
        self.optimizer = Adam(model.trainable_layers(), lr=config.lr)
        #: (total, l0, ls) per epoch, populated by :meth:`fit`.
        self.history: List[Dict[str, float]] = []

    def _step(self, xb: np.ndarray, yb: np.ndarray, idxb: np.ndarray, rng) -> Dict[str, float]:
        cfg = self.config
        x_noisy = self.noise.generate(xb, yb, idxb, rng)

        # Pass 1: clean prediction values (for the x'-side gradient).
        logits_clean_ref, embed_clean_ref = self.model.forward(xb, training=True)

        self.model.zero_grad()

        # Pass 2: noisy branch forward + backward.
        logits_noisy, embed_noisy = self.model.forward(x_noisy, training=True)
        if cfg.stability_loss == "kl":
            ls, dclean, dnoisy = kl_stability_loss(logits_clean_ref, logits_noisy)
            self.model.backward(cfg.alpha * dnoisy)
            dembed_clean = None
        else:
            ls, demb_clean, demb_noisy = embedding_stability_loss(
                embed_clean_ref, embed_noisy
            )
            self.model.backward(
                np.zeros_like(logits_noisy), dembedding=cfg.alpha * demb_noisy
            )
            dclean = np.zeros_like(logits_noisy)
            dembed_clean = cfg.alpha * demb_clean

        # Pass 3: clean branch forward + backward (classification + x-side
        # stability gradient).
        logits_clean, _ = self.model.forward(xb, training=True)
        l0, dlogits0 = cross_entropy(logits_clean, yb)
        self.model.backward(dlogits0 + cfg.alpha * dclean, dembedding=dembed_clean)

        self.optimizer.step()
        return {"l0": l0, "ls": ls, "total": l0 + cfg.alpha * ls}

    def fit(self, x: np.ndarray, y: np.ndarray) -> List[Dict[str, float]]:
        """Run the configured number of fine-tuning epochs."""
        if len(x) != len(y):
            raise ValueError("x and y lengths differ")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        for _epoch in range(cfg.epochs):
            order = rng.permutation(len(x))
            epoch_stats: List[Dict[str, float]] = []
            for start in range(0, len(x), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                epoch_stats.append(self._step(x[idx], y[idx], idx, rng))
            self.history.append(
                {
                    key: float(np.mean([s[key] for s in epoch_stats]))
                    for key in ("l0", "ls", "total")
                }
            )
        return self.history


def evaluate_cross_device_instability(
    model: Model, corpus: StabilityCorpus
) -> ExperimentResult:
    """Predict the held-out pairs on both phones; returns the records.

    ``instability(result)`` over these records is the paper's Table 6
    number: instability between iPhone and Samsung photos.
    """
    result = ExperimentResult([], name="stability_eval")
    for env, x in (
        (corpus.primary_name, corpus.x_test_primary),
        (corpus.secondary_name, corpus.x_test_secondary),
    ):
        result.extend(
            make_record(Prediction.from_probabilities(row), shown, environment=env)
            for row, shown in zip(model.predict_proba(x), corpus.test_displayed)
        )
    return result


@dataclass(frozen=True)
class Table6Row:
    """One cell of the paper's Table 6."""

    noise: str
    stability_loss: str
    alpha: float
    instability: float
    accuracy: float
    hyper: Dict[str, float] = field(default_factory=dict)


def run_table6(
    base_model: Model,
    corpus: StabilityCorpus,
    epochs: int = 6,
    seed: int = 0,
    images_per_class: int = 10,
    embedding_base_model: Optional[Model] = None,
) -> List[Table6Row]:
    """Reproduce Table 6: every noise scheme under both stability losses.

    Alphas were re-tuned by grid search on this reproduction's loss
    scales (the paper likewise grid-searched; our losses are not on the
    paper's numeric scale, so its alphas do not transfer). Each run
    fine-tunes a fresh copy of ``base_model`` on the corpus's primary-
    phone training photos and is scored on the held-out cross-device
    pairs. Pass ``embedding_base_model`` (a base trained with the extra
    embedding dense layer, as the paper does for the embedding-distance
    loss) to use a different base for the embedding rows.
    """
    from ..core.instability import accuracy as accuracy_metric
    from .noise import (
        DistortionNoise,
        GaussianNoise,
        NoNoise,
        SubsampleNoise,
        TwoImageNoise,
    )

    rng = np.random.default_rng(seed)
    schemes = []
    # (noise name, factory, {loss: alpha}) — alphas from the paper's Table 6.
    schemes.append(
        (
            "two_images",
            lambda: TwoImageNoise(corpus.x_train_secondary),
            {"embedding": 1.0, "kl": 1.0},
            {},
        )
    )
    schemes.append(
        (
            "subsample",
            lambda: SubsampleNoise.from_corpus(
                corpus.x_train_secondary, corpus.y_train, images_per_class, rng
            ),
            {"embedding": 1.0, "kl": 1.0},
            {"images_per_class": images_per_class},
        )
    )
    schemes.append(
        ("distortion", DistortionNoise, {"embedding": 1.0, "kl": 1.0}, {})
    )
    schemes.append(
        (
            "gaussian",
            lambda: GaussianNoise(0.04),
            {"embedding": 1.0, "kl": 1.0},
            {"sigma2": 0.04},
        )
    )
    schemes.append(("no_noise", NoNoise, {"embedding": 0.0, "kl": 0.0}, {}))

    rows: List[Table6Row] = []
    for loss_name in ("embedding", "kl"):
        source = (
            embedding_base_model
            if loss_name == "embedding" and embedding_base_model is not None
            else base_model
        )
        for noise_name, factory, alphas, hyper in schemes:
            model = source.copy()
            config = StabilityTrainConfig(
                alpha=alphas[loss_name],
                stability_loss=loss_name,
                epochs=epochs,
                seed=seed,
            )
            trainer = StabilityTrainer(model, factory(), config)
            trainer.fit(corpus.x_train_primary, corpus.y_train)
            result = evaluate_cross_device_instability(model, corpus)
            rows.append(
                Table6Row(
                    noise=noise_name,
                    stability_loss=loss_name,
                    alpha=alphas[loss_name],
                    instability=instability(result),
                    accuracy=accuracy_metric(result),
                    hyper=dict(hyper),
                )
            )
    return rows
