"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lab_repeats --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``harness.py``). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output check passed.

BLAS is pinned to one thread before NumPy is imported: on two shared
cores its default threading widens run-to-run spread.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("lab_repeats", "population_pooled", "cache_replay", "serve_closed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory tracker process.

    The pooled workload's shared-memory slabs start it; left alone it
    would exit only after this process does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe, then waits for it to exit


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import json

    from harness import OutputMismatch, Run

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    run = Run(args.workload, args.seed, args.seconds, work_dir=work_dir)
    correct = True
    try:
        metrics = run.measure(bool(args.trace))
    except (OutputMismatch, AssertionError) as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    for note in run.notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
