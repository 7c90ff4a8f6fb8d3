"""Tests for stability training and the mitigation wrappers."""

import numpy as np
import pytest

from repro.core import ExperimentResult, instability
from repro.mitigation.data import StabilityCorpus, build_stability_corpus
from repro.mitigation.noise import GaussianNoise, NoNoise, TwoImageNoise
from repro.mitigation.raw_pipeline import ConsistentRawConverter
from repro.mitigation.stability import (
    StabilityTrainConfig,
    StabilityTrainer,
    evaluate_cross_device_instability,
)
from repro.mitigation.topk import simplify_task
from repro.nn.model import micro_mobilenet
from tests.conftest import environments, make_record


@pytest.fixture(scope="module")
def corpus():
    return build_stability_corpus(per_class=2, angles=(0.0,), seed=0)


class TestConfig:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            StabilityTrainConfig(alpha=-1.0)

    def test_rejects_unknown_loss(self):
        with pytest.raises(ValueError):
            StabilityTrainConfig(stability_loss="wasserstein")


class TestCorpus:
    def test_alignment_validated(self, corpus):
        with pytest.raises(ValueError):
            StabilityCorpus(
                x_train_primary=corpus.x_train_primary,
                x_train_secondary=corpus.x_train_secondary[:-1],
                y_train=corpus.y_train,
                x_test_primary=corpus.x_test_primary,
                x_test_secondary=corpus.x_test_secondary,
                y_test=corpus.y_test,
                test_displayed=corpus.test_displayed,
                primary_name="a",
                secondary_name="b",
            )

    def test_default_phones_are_the_raw_pair(self, corpus):
        assert corpus.primary_name == "samsung_galaxy_s10"
        assert corpus.secondary_name == "iphone_xr"

    def test_object_level_split(self, corpus):
        # No object appears in both splits: verified indirectly by
        # disjoint image ids in the displayed provenance.
        train_n = len(corpus.y_train)
        test_n = len(corpus.y_test)
        assert train_n > 0 and test_n > 0
        assert corpus.x_train_primary.shape == (train_n, 3, 32, 32)

    def test_deterministic(self):
        a = build_stability_corpus(per_class=1, angles=(0.0,), seed=5)
        b = build_stability_corpus(per_class=1, angles=(0.0,), seed=5)
        assert np.array_equal(a.x_train_primary, b.x_train_primary)
        assert np.array_equal(a.x_test_secondary, b.x_test_secondary)


class TestTrainer:
    def _tiny(self, extra=False):
        return micro_mobilenet(num_classes=8, seed=11, extra_embedding_layer=extra)

    @pytest.mark.parametrize("loss", ["kl", "embedding"])
    def test_training_reduces_total_loss(self, corpus, loss):
        model = self._tiny()
        trainer = StabilityTrainer(
            model,
            GaussianNoise(0.02),
            StabilityTrainConfig(alpha=0.1, stability_loss=loss, epochs=5, seed=0, lr=2e-3),
        )
        history = trainer.fit(corpus.x_train_primary, corpus.y_train)
        assert history[-1]["total"] < history[0]["total"]
        assert all(h["ls"] >= 0 for h in history)

    def test_two_image_noise_integrates(self, corpus):
        model = self._tiny()
        trainer = StabilityTrainer(
            model,
            TwoImageNoise(corpus.x_train_secondary),
            StabilityTrainConfig(alpha=0.5, stability_loss="kl", epochs=2, seed=0),
        )
        history = trainer.fit(corpus.x_train_primary, corpus.y_train)
        assert len(history) == 2

    def test_alpha_zero_matches_plain_fine_tune_mechanics(self, corpus):
        """With alpha=0 the stability term contributes no gradient."""
        a = self._tiny()
        b = self._tiny()
        for model, noise in ((a, NoNoise()), (b, GaussianNoise(0.5))):
            trainer = StabilityTrainer(
                model, noise, StabilityTrainConfig(alpha=0.0, epochs=2, seed=0)
            )
            trainer.fit(corpus.x_train_primary, corpus.y_train)
        xa = a.predict_proba(corpus.x_test_primary)
        xb = b.predict_proba(corpus.x_test_primary)
        # BN running stats see different noisy batches, so allow slack, but
        # the weights-path should be essentially identical.
        assert np.allclose(xa, xb, atol=0.05)

    def test_length_mismatch(self, corpus):
        trainer = StabilityTrainer(
            self._tiny(), NoNoise(), StabilityTrainConfig(epochs=1)
        )
        with pytest.raises(ValueError):
            trainer.fit(corpus.x_train_primary, corpus.y_train[:-1])

    def test_embedding_loss_with_extra_layer(self, corpus):
        model = self._tiny(extra=True)
        trainer = StabilityTrainer(
            model,
            GaussianNoise(0.02),
            StabilityTrainConfig(alpha=0.1, stability_loss="embedding", epochs=1, seed=0),
        )
        history = trainer.fit(corpus.x_train_primary, corpus.y_train)
        assert len(history) == 1


class TestEvaluation:
    def test_records_cover_both_phones(self, corpus, tiny_model):
        result = evaluate_cross_device_instability(tiny_model, corpus)
        assert set(environments(result)) == {
            corpus.primary_name,
            corpus.secondary_name,
        }
        assert len(result) == 2 * len(corpus.y_test)
        assert 0.0 <= instability(result) <= 1.0


class TestTopKMitigation:
    def test_report_values(self):
        records = [
            # unstable at top-1, stable at top-3
            make_record("a", 0, 1, 1, ranking=(1, 2, 3, 0, 4, 5, 6, 7)),
            make_record("b", 0, 1, 2, ranking=(2, 1, 3, 0, 4, 5, 6, 7)),
        ]
        report = simplify_task(ExperimentResult(records), k=3)
        assert report.instability_top1 == 1.0
        assert report.instability_topk == 0.0
        assert report.instability_reduction == 1.0
        assert report.accuracy_topk >= report.accuracy_top1

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            simplify_task(ExperimentResult([make_record()]), k=1)


class TestRawConverter:
    def test_roundtrip(self):
        from repro.codecs import encode_dng
        from repro.imaging import RawImage

        rng = np.random.default_rng(0)
        raw = RawImage(rng.random((32, 32)).astype(np.float32))
        converter = ConsistentRawConverter(output_size=24)
        img = converter.convert(encode_dng(raw))
        assert img.shape == (24, 24, 3)

    def test_consistency_across_devices(self):
        """The point of §9.2: one converter, identical processing."""
        from repro.codecs import encode_dng
        from repro.devices import Phone, capture_fleet
        from repro.imaging import ImageBuffer

        radiance = ImageBuffer.full(96, 96, 0.5)
        converter = ConsistentRawConverter()
        outs = []
        for profile in (p for p in capture_fleet() if p.supports_raw):
            phone = Phone(profile)
            dng = phone.photograph_raw(radiance, np.random.default_rng(1))
            outs.append(converter.convert(dng))
        # Same scene, same converter; differences are sensor-level only.
        diff = np.abs(outs[0].pixels - outs[1].pixels).mean()
        assert diff < 0.1

    def test_convert_many(self):
        from repro.codecs import encode_dng
        from repro.imaging import RawImage

        raw = RawImage(np.full((16, 16), 0.4, dtype=np.float32))
        converter = ConsistentRawConverter(output_size=16)
        outs = converter.convert_many([encode_dng(raw)] * 3)
        assert len(outs) == 3
        assert np.array_equal(outs[0].pixels, outs[1].pixels)
