"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro end-to-end --per-class 8 --save results.json
    python -m repro end-to-end --workers 4 --cache-dir .cache/fleet
    python -m repro firebase --format jpeg --photos 100
    python -m repro compression --per-class 10
    python -m repro isp --per-class 10
    python -m repro raw-vs-jpeg --per-class 10
    python -m repro stability --per-class 12 --epochs 6
    python -m repro fleet --fleet-size 1000 --scenes 4 --workers 4
    python -m repro fleet --study drift --fleet-size 200 --time-steps 8
    python -m repro end-to-end --trace-out trace.jsonl --metrics-out metrics.json
    python -m repro report --trace trace.jsonl --metrics metrics.json

``--workers N`` fans capture work across N processes and ``--cache-dir``
reuses captured frames across runs; both are output-neutral — results
are bit-identical to a serial, uncached run.

``--trace-out``/``--metrics-out`` activate the :mod:`repro.obs`
observability layer for the run and write a JSONL span trace / JSON
metrics snapshot; ``report`` renders those files as per-stage and
per-phone timing plus cache-efficiency tables. Observation is also
output-neutral: it times and counts, it never touches results.

Each experiment command trains/loads the shared base model (cached after
the first run), executes the experiment deterministically, and prints
the same report the corresponding ``benchmarks/`` script does.
Performance numbers come from ``perfbench/run.py``, not from this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    confidence_analysis,
    format_percent,
    format_table,
    instability,
    per_class_instability,
    per_environment_accuracy,
)
from .core.serialize import save_result


def _make_cache(args):
    """Build the shared capture cache when ``--cache-dir`` is given."""
    if args.cache_dir is None:
        return None
    from .runner import CaptureCache

    return CaptureCache(args.cache_dir)


def _cmd_end_to_end(args) -> None:
    from .lab import EndToEndExperiment

    result = EndToEndExperiment(
        seed=args.seed, workers=args.workers, cache=_make_cache(args)
    ).run(per_class=args.per_class)
    print("accuracy by phone:")
    for phone, acc in per_environment_accuracy(result).items():
        print(f"  {phone}: {format_percent(acc)}")
    print(f"instability: {format_percent(instability(result))}")
    for cls, inst in per_class_instability(result).items():
        print(f"  {cls}: {format_percent(inst)}")
    split = confidence_analysis(result).summary()
    print("confidence (mean, std) by stability group:")
    for group, (mean, std) in split.items():
        print(f"  {group}: {mean:.3f}, {std:.3f}")
    if args.save:
        save_result(result, args.save)
        print(f"records saved to {args.save}")


def _cmd_firebase(args) -> None:
    from .lab import FirebaseTestLab

    out = FirebaseTestLab(seed=args.seed).run(
        num_photos=args.photos, image_format=args.format
    )
    print(f"instability ({args.format}): {format_percent(out.instability())}")
    for group, devices in out.hash_groups().items():
        print(f"  {group}: {', '.join(devices)}")
    if args.save:
        save_result(out.result, args.save)
        print(f"records saved to {args.save}")


def _cmd_compression(args) -> None:
    from .lab import (
        CompressionFormatExperiment,
        CompressionQualityExperiment,
        RawCaptureBank,
    )

    cache = _make_cache(args)
    bank = RawCaptureBank.collect(
        per_class=args.per_class, seed=args.seed, workers=args.workers, cache=cache
    )
    quality = CompressionQualityExperiment(workers=args.workers, cache=cache).run(bank)
    formats = CompressionFormatExperiment(workers=args.workers, cache=cache).run(bank)
    for label, out in (("quality", quality), ("formats", formats)):
        accs = out.accuracy_by_environment()
        rows = [
            [env, f"{out.avg_size_bytes[env] / 1024:.1f} KiB", format_percent(accs[env])]
            for env in out.avg_size_bytes
        ]
        print(f"--- {label} ---")
        print(format_table(["environment", "avg size", "accuracy"], rows))
        print(f"instability: {format_percent(out.instability())}\n")


def _cmd_isp(args) -> None:
    from .lab import ISPComparisonExperiment, RawCaptureBank

    cache = _make_cache(args)
    bank = RawCaptureBank.collect(
        per_class=args.per_class, seed=args.seed, workers=args.workers, cache=cache
    )
    out = ISPComparisonExperiment(workers=args.workers, cache=cache).run(bank)
    for isp, acc in out.accuracy_by_isp().items():
        print(f"{isp} accuracy: {format_percent(acc)}")
    print(f"instability: {format_percent(out.instability())}")


def _cmd_raw_vs_jpeg(args) -> None:
    from .lab import RawVsJpegExperiment

    out = RawVsJpegExperiment(
        seed=args.seed, workers=args.workers, cache=_make_cache(args)
    ).run(per_class=args.per_class)
    print(f"JPEG-path instability: {format_percent(out.instability_jpeg())}")
    print(f"raw-path instability:  {format_percent(out.instability_raw())}")
    print(f"relative improvement:  {format_percent(out.relative_improvement())}")


def _cmd_fleet(args) -> None:
    import json

    from .fleet import run_drift_study, run_population_study

    payload = {}
    if args.study in ("capture", "both"):
        out = run_population_study(
            fleet_size=args.fleet_size,
            seed=args.seed,
            scenes=args.scenes,
            repeats=args.repeats,
            workers=args.workers,
            cache=_make_cache(args),
        )
        summary = out.summary
        payload["population"] = summary
        vendors = {}
        for device in out.devices:
            vendors[device.vendor] = vendors.get(device.vendor, 0) + 1
        print(f"fleet: {summary['devices']} devices, seed {args.seed}")
        print("  " + ", ".join(f"{v}: {n}" for v, n in sorted(vendors.items())))
        print(
            f"records: {summary['records']} "
            f"({args.scenes} scenes x {args.repeats} repeats)"
        )
        print(f"population instability: {format_percent(summary['population_instability'])}")
        print(f"mean divergence:        {format_percent(summary['mean_divergence'])}")
        for title, key in (
            ("divergence", "divergence_percentiles"),
            ("accuracy", "accuracy_percentiles"),
            ("confidence", "confidence_percentiles"),
        ):
            cells = summary[key]
            print(
                f"{title} percentiles: "
                + "  ".join(f"{p}={cells[p]:.4f}" for p in cells)
            )
        print(
            f"outliers (|z| > {summary['outlier_threshold']}): "
            f"{summary['outlier_count']}"
        )
        for row in summary["outliers"][:10]:
            print(
                f"  {row['name']}: divergence {format_percent(row['divergence'])} "
                f"(z = {row['robust_z']:.2f})"
            )
    if args.study in ("drift", "both"):
        out = run_drift_study(
            fleet_size=args.fleet_size,
            seed=args.seed,
            steps=args.time_steps,
            photos=args.photos,
            image_format=args.format,
        )
        payload["drift"] = {"steps": out.step_table, "summary": out.summary}
        print(f"drift over {args.time_steps} steps ({args.format}, {args.photos} photos):")
        print(
            format_table(
                ["step", "upgraded", "instability", "divergence"],
                [
                    [
                        row["step"],
                        format_percent(row["upgraded_fraction"]),
                        format_percent(row["instability"]),
                        format_percent(row["mean_divergence"]),
                    ]
                    for row in out.step_table
                ],
            )
        )
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"summary saved to {args.save}")


def _cmd_stability(args) -> None:
    from .mitigation import build_stability_corpus, run_table6
    from .nn import load_pretrained

    corpus = build_stability_corpus(per_class=args.per_class, seed=args.seed)
    rows = run_table6(load_pretrained(), corpus, epochs=args.epochs, seed=args.seed)
    print(
        format_table(
            ["noise", "loss", "alpha", "instability", "accuracy"],
            [
                [r.noise, r.stability_loss, r.alpha,
                 format_percent(r.instability), format_percent(r.accuracy)]
                for r in rows
            ],
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the MLSys 2021 model-instability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--per-class", type=int, default=8, dest="per_class")
        observability(p)

    def capture(p):
        p.add_argument(
            "--workers",
            type=int,
            default=0,
            help="capture worker processes (0 = serial, -1 = all cores); "
            "results are bit-identical for every setting",
        )
        p.add_argument(
            "--cache-dir",
            type=str,
            default=None,
            dest="cache_dir",
            help="content-addressed capture cache directory (reused across runs)",
        )

    def observability(p):
        p.add_argument(
            "--trace-out",
            type=str,
            default=None,
            dest="trace_out",
            help="record per-stage timing spans and append them to this "
            "JSONL file (render with `python -m repro report`)",
        )
        p.add_argument(
            "--metrics-out",
            type=str,
            default=None,
            dest="metrics_out",
            help="write the run's metrics snapshot (cache hit rates, "
            "units executed, bytes encoded, ...) to this JSON file",
        )

    p = sub.add_parser("end-to-end", help="the §4 five-phone study")
    common(p)
    capture(p)
    p.add_argument("--save", type=str, default=None, help="save records as JSON")
    p.set_defaults(func=_cmd_end_to_end)

    p = sub.add_parser("firebase", help="the §7 OS/processor experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--photos", type=int, default=100)
    p.add_argument("--format", choices=("jpeg", "png"), default="jpeg")
    p.add_argument("--save", type=str, default=None)
    observability(p)
    p.set_defaults(func=_cmd_firebase)

    p = sub.add_parser("compression", help="Tables 2 and 3")
    common(p)
    capture(p)
    p.set_defaults(func=_cmd_compression)

    p = sub.add_parser("isp", help="Table 4")
    common(p)
    capture(p)
    p.set_defaults(func=_cmd_isp)

    p = sub.add_parser("raw-vs-jpeg", help="Figure 8 / §9.2")
    common(p)
    capture(p)
    p.set_defaults(func=_cmd_raw_vs_jpeg)

    p = sub.add_parser("stability", help="Table 6 / §9.1")
    common(p)
    p.add_argument("--epochs", type=int, default=6)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser(
        "fleet",
        help="population-scale studies on a synthetic device fleet",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fleet-size",
        type=int,
        default=1000,
        dest="fleet_size",
        help="synthetic devices to sample from the vendor distributions",
    )
    p.add_argument(
        "--scenes", type=int, default=4, help="displayed scenes every device shoots"
    )
    p.add_argument(
        "--repeats", type=int, default=1, help="repeat shots per (device, scene)"
    )
    p.add_argument(
        "--study",
        choices=("capture", "drift", "both"),
        default="capture",
        help="capture = population instability percentiles + outliers; "
        "drift = OS decoder upgrades over simulated time",
    )
    p.add_argument(
        "--time-steps",
        type=int,
        default=6,
        dest="time_steps",
        help="simulated time steps for the drift study",
    )
    p.add_argument(
        "--photos", type=int, default=40, help="drift-study photo corpus size"
    )
    p.add_argument(
        "--format",
        choices=("jpeg", "png"),
        default="jpeg",
        help="drift-study corpus encoding",
    )
    p.add_argument("--save", type=str, default=None, help="save summary JSON here")
    capture(p)
    observability(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "report",
        help="render a recorded trace/metrics pair as timing and "
        "cache-efficiency tables",
    )
    p.add_argument(
        "--trace",
        type=str,
        default=None,
        help="JSONL span trace written by --trace-out",
    )
    p.add_argument(
        "--metrics",
        type=str,
        default=None,
        help="JSON metrics snapshot written by --metrics-out",
    )
    p.set_defaults(func=_cmd_report)

    return parser


def _cmd_report(args) -> None:
    if args.trace is None and args.metrics is None:
        raise SystemExit(
            "repro report: provide --trace and/or --metrics "
            "(files written by an experiment's --trace-out/--metrics-out)"
        )
    from .obs.report import render_report

    print(render_report(trace_path=args.trace, metrics_path=args.metrics))


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        # Detach stdout so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out is None and metrics_out is None:
        args.func(args)
        return 0

    # Observed run: collect spans/metrics around the whole experiment,
    # then export. Observation is side-band only — results are
    # bit-identical to an unobserved run.
    from . import obs

    with obs.observed() as ob:
        args.func(args)
    if trace_out is not None:
        written = ob.tracer.export_jsonl(trace_out)
        print(f"trace: {written} spans appended to {trace_out}")
    if metrics_out is not None:
        obs.write_metrics_json(ob.metrics.snapshot(), metrics_out)
        print(f"metrics: snapshot written to {metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
