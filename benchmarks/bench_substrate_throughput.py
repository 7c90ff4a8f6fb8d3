"""Substrate micro-benchmarks: codec and pipeline throughput.

Classic pytest-benchmark timings for the building blocks every
experiment leans on. Useful for catching performance regressions in the
vectorized NumPy paths (DCT, Huffman, demosaic, CNN inference).
"""

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.devices import Phone, capture_fleet
from repro.imaging import ImageBuffer
from repro.isp import build_isp
from repro.nn.preprocess import to_model_input
from repro.sensor import BayerSensor, SensorConfig


@pytest.fixture(scope="module")
def test_image():
    from scipy import ndimage

    rng = np.random.default_rng(0)
    img = ndimage.gaussian_filter(rng.random((96, 96, 3)), (3, 3, 0))
    img = (img - img.min()) / (img.max() - img.min())
    return ImageBuffer(img.astype(np.float32))


@pytest.fixture(scope="module")
def test_raw(test_image):
    sensor = BayerSensor(SensorConfig(resolution=(96, 96)))
    return sensor.capture(test_image, np.random.default_rng(0))


@pytest.mark.parametrize("fmt", ["jpeg", "png", "webp", "heif"])
def test_codec_encode_throughput(benchmark, test_image, fmt):
    codec = get_codec(fmt)
    if codec.default_quality is None:
        benchmark(codec.encode, test_image)
    else:
        benchmark(codec.encode, test_image, quality=codec.default_quality)


@pytest.mark.parametrize("fmt", ["jpeg", "png", "webp", "heif"])
def test_codec_decode_throughput(benchmark, test_image, fmt):
    codec = get_codec(fmt)
    if codec.default_quality is None:
        data = codec.encode(test_image)
    else:
        data = codec.encode(test_image, quality=codec.default_quality)
    benchmark(codec.decode, data)


@pytest.mark.parametrize("isp", ["imagemagick", "samsung_s10", "adobe"])
def test_isp_throughput(benchmark, test_raw, isp):
    pipeline = build_isp(isp)
    benchmark(pipeline.process, test_raw)


def test_full_capture_path_throughput(benchmark, test_image):
    phone = Phone(capture_fleet()[0])
    rng = np.random.default_rng(0)
    benchmark(phone.photograph, test_image, rng)


def test_model_inference_throughput(benchmark, base_model, test_image):
    x = to_model_input([test_image] * 32)
    benchmark(base_model.predict_proba, x)


# ----------------------------------------------------------------------
# Fleet executor: parallel + cached end-to-end vs. the serial seed path
# ----------------------------------------------------------------------
def _fleet_model():
    from repro.nn.model import micro_mobilenet

    # Untrained but deterministic: executor throughput does not depend on
    # model quality, and this keeps the bench independent of the 4-minute
    # base-model training.
    return micro_mobilenet(num_classes=8, seed=5)


def _fleet_run(model, workers=0, cache=None):
    from repro.lab import EndToEndExperiment

    return EndToEndExperiment(
        model=model, angles=(0.0, 15.0), seed=0, workers=workers, cache=cache
    ).run(per_class=2)


def test_fleet_executor_warm_cache_speedup(tmp_path):
    """Acceptance: >= 2x end-to-end speedup at 4 workers on a warm cache
    vs. the serial seed path, with bit-identical results."""
    import time

    from repro.runner import CaptureCache

    model = _fleet_model()

    start = time.perf_counter()
    serial = _fleet_run(model)
    t_serial = time.perf_counter() - start

    cache = CaptureCache(tmp_path / "fleet-cache")
    parallel_exp_time = time.perf_counter()
    cold = _fleet_run(model, workers=4, cache=cache)
    t_parallel_cold = time.perf_counter() - parallel_exp_time

    # A fresh cache object over the same directory: every hit is read
    # from disk, not from the cold run's in-memory layer.
    start = time.perf_counter()
    warm = _fleet_run(model, workers=4, cache=CaptureCache(tmp_path / "fleet-cache"))
    t_warm = time.perf_counter() - start

    assert serial.records == cold.records == warm.records
    speedup = t_serial / t_warm
    print(
        f"\nfleet end-to-end: serial {t_serial:.2f}s, "
        f"4-worker cold {t_parallel_cold:.2f}s, "
        f"4-worker warm-cache {t_warm:.2f}s ({speedup:.1f}x vs serial)"
    )
    assert speedup >= 2.0, f"warm-cache speedup {speedup:.2f}x < 2x"


def test_fleet_executor_parallel_throughput(benchmark):
    """Raw 4-worker fan-out, no cache (scheduling + IPC overhead check)."""
    model = _fleet_model()
    benchmark.pedantic(
        lambda: _fleet_run(model, workers=4), rounds=1, iterations=1, warmup_rounds=0
    )
