"""Observability neutrality: instrumented runs are bit-identical to bare runs.

The obs layer's core contract is that hooks never touch an RNG and never
alter a payload, so enabling tracing/metrics — serially or across a
worker pool — cannot change a single output bit. This suite locks that
in at the experiment level, plus end-to-end smoke for the export and
report path.
"""

import numpy as np

from repro import obs
from repro.lab import EndToEndExperiment
from repro.obs.report import render_report
from repro.runner import (
    CaptureCache,
    CaptureUnit,
    FleetExecutor,
    execute_unit,
    unit_entropy,
)
from repro.runner.units import execute_unit_group, execute_unit_group_observed


def _records(result):
    return list(result.records)


class TestBitIdentical:
    def test_serial_observed_equals_bare(self, tiny_model):
        bare = EndToEndExperiment(model=tiny_model, angles=(0.0,), seed=5).run(
            per_class=1
        )
        with obs.observed():
            traced = EndToEndExperiment(
                model=tiny_model, angles=(0.0,), seed=5
            ).run(per_class=1)
        assert _records(bare) == _records(traced)

    def test_parallel_observed_equals_bare_serial(self, tiny_model, tmp_path):
        bare = EndToEndExperiment(model=tiny_model, angles=(0.0,), seed=5).run(
            per_class=1
        )
        with obs.observed() as ob:
            traced = EndToEndExperiment(
                model=tiny_model,
                angles=(0.0,),
                seed=5,
                workers=2,
                cache=CaptureCache(tmp_path / "fleet"),
            ).run(per_class=1)
        assert _records(bare) == _records(traced)
        # The worker spans made it back across the pool boundary. The
        # batched executor runs photograph units through the fused group
        # path, so the per-unit spans appear under their group names.
        names = {span.name for span in ob.tracer.finished()}
        assert "fleet.run" in names
        assert "unit.execute_group" in names
        assert "isp.process_batch" in names
        counters = ob.metrics.snapshot()["counters"]
        assert counters["fleet.units_executed"] == counters["fleet.units_submitted"]

    def test_unit_payload_identical_under_observation(self, small_radiance):
        from repro.devices import capture_fleet

        profile = capture_fleet()[0]
        units = [
            CaptureUnit(
                kind="photograph",
                profile=profile,
                radiance=small_radiance,
                entropy=unit_entropy(0, profile.name, 0, repeat),
            )
            for repeat in range(2)
        ]
        bare = execute_unit_group(units)
        observed, span_dicts, metrics_snapshot = execute_unit_group_observed(units)
        assert len(observed) == len(bare)
        for bare_payload, observed_payload in zip(bare, observed):
            assert bare_payload.keys() == observed_payload.keys()
            for key in bare_payload:
                assert np.array_equal(bare_payload[key], observed_payload[key]), key
        # Observation is neutral against the per-unit reference too.
        reference = execute_unit(units[0])
        assert np.array_equal(reference["pixels"], observed[0]["pixels"])
        assert any(d["name"] == "unit.execute_group" for d in span_dicts)
        assert metrics_snapshot["counters"]["fleet.units_executed"] == 2

    def test_observation_does_not_leak_after_block(self, small_radiance):
        from repro.devices import capture_fleet

        profile = capture_fleet()[0]
        unit = CaptureUnit(
            kind="photograph",
            profile=profile,
            radiance=small_radiance,
            entropy=unit_entropy(0, profile.name, 0, 0),
        )
        with obs.observed():
            execute_unit(unit)
        assert obs.active() is None
        after = execute_unit(unit)  # no observer: must still work and match
        bare = execute_unit(unit)
        assert np.array_equal(after["pixels"], bare["pixels"])


class TestFusedCodecAccounting:
    def test_jpeg_phone_codec_column_is_timed(self, small_radiance):
        """The fused JPEG roundtrip lands in the per-phone codec column."""
        from repro.devices import capture_fleet
        from repro.obs.report import device_rows

        phones = [p for p in capture_fleet() if p.save_format == "jpeg"]
        assert phones
        units = [
            CaptureUnit(
                kind="photograph",
                profile=profile,
                radiance=small_radiance,
                entropy=unit_entropy(0, profile.name, 0, repeat),
            )
            for profile in phones
            for repeat in range(4)
        ]
        bare = FleetExecutor(workers=0).run(units)
        with obs.observed() as ob:
            traced = FleetExecutor(workers=0).run(units)
        for bare_payload, traced_payload in zip(bare, traced):
            assert np.array_equal(bare_payload["pixels"], traced_payload["pixels"])

        spans = ob.tracer.finished()
        encodes = [s for s in spans if s.name == "codec.encode"]
        assert {s.attrs.get("codec") for s in encodes} == {"jpeg"}
        assert len(encodes) == len(phones)  # one fused roundtrip per group
        rows = {row[0]: row for row in device_rows(spans)}
        codec_column = 3 + 2  # device, units, total, sensor, isp, codec
        for profile in phones:
            assert float(rows[profile.name][codec_column].rstrip("s")) > 0.0
        counters = ob.metrics.snapshot()["counters"]
        assert counters["codec.encoded.jpeg"] == len(units)
        assert counters["codec.bytes_encoded"] > 0
        assert "codec.bytes_decoded" not in counters


class TestCodecIdentityPreserved:
    def test_instrumentation_keeps_registry_identity(self):
        """get returns the registered object; wrappers keep their names."""
        from repro.codecs.jpeg import encode_jpeg
        from repro.codecs.registry import get_codec

        codec = get_codec("jpeg")
        assert get_codec("jpeg") is codec
        # functools.wraps keeps module + qualname, so fingerprints of the
        # wrapped callables are those of the codec functions.
        assert codec.encode.__wrapped__ is encode_jpeg
        assert (codec.encode.__module__, codec.encode.__qualname__) == (
            encode_jpeg.__module__,
            encode_jpeg.__qualname__,
        )


class TestExportAndReport:
    def test_trace_export_and_report_round_trip(self, tiny_model, tmp_path):
        with obs.observed() as ob:
            EndToEndExperiment(
                model=tiny_model, angles=(0.0,), seed=5, workers=2
            ).run(per_class=1)
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        n = ob.tracer.export_jsonl(trace_path)
        assert n == len(ob.tracer.finished())
        obs.write_metrics_json(ob.metrics.snapshot(), metrics_path)

        report = render_report(trace_path=trace_path, metrics_path=metrics_path)
        assert "per-stage timing" in report
        assert "per-phone timing" in report
        assert "unit.execute" in report
        assert "fleet.units_executed" in report
        # Phones from the fleet appear as attribution rows.
        from repro.devices import capture_fleet

        assert any(p.name in report for p in capture_fleet())

    def test_report_metrics_only(self, tmp_path):
        reg = obs.MetricsRegistry()
        reg.count("capture_cache.hit", 3)
        reg.count("capture_cache.miss", 1)
        reg.count("capture_cache.store", 1)
        path = tmp_path / "m.json"
        obs.write_metrics_json(reg.snapshot(), path)
        report = render_report(metrics_path=path)
        assert "cache efficiency" in report
        assert "capture_cache" in report
        assert "75.0%" in report


class TestDisabledPathIsCheap:
    def test_disabled_span_is_a_shared_singleton(self):
        """The no-op path allocates nothing: same object every call."""
        assert obs.active() is None
        assert obs.span("a") is obs.span("b", device="x")

    def test_cli_flags_wire_up(self):
        """`report` and the --trace-out/--metrics-out flags parse."""
        from repro.__main__ import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "end-to-end",
                "--per-class",
                "1",
                "--trace-out",
                "t.jsonl",
                "--metrics-out",
                "m.json",
            ]
        )
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out == "m.json"
        args = parser.parse_args(["report", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"
