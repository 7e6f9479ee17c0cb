"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload proof-4 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` wraps each layer's entry point with benchmark-side spans
and reports the per-layer metrics, the tracing overhead and the share of
op time no layer accounts for.  Every output is checked; a failed check
makes the run exit 1.  The last line of standard output is the result as
one JSON object.  ``setup_s`` and ``service-mixed``'s miss latency are
in reference-host seconds (see ``perfbench/calibration.py``); the
wall-clock figures are printed beside them.

    python3 perfbench/run.py --describe     # instances, definitions, layer map
    python3 perfbench/run.py --workload ladder-6 --smoke ...   # seconds-long

Run it from the repository root; it needs ``src/`` beside ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import spec  # noqa: E402
from perfbench.calibration import calibrate, reference_seconds  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.names("workloads"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec.benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small instances, for the benchmark's own tests")
    parser.add_argument("--describe", action="store_true",
                        help="print instances, metric definitions and the "
                             "layer map as JSON")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.describe or args.workload):
        parser.error("--workload is required")
    return args


def set_up(args, workdir: str):
    """Everything before the first timed op; returns the run object."""
    if args.workload == "service-mixed":
        from perfbench.service_workload import ServiceRun

        return ServiceRun(args.seed, args.seconds, args.smoke, workdir)
    from perfbench.compile_workloads import CompileRun

    return CompileRun(args.workload, args.seed, args.seconds, args.smoke)


def setup_probe(args, workdir: str) -> int:
    """Child mode: set up from a fresh interpreter, say ``ready``, leave."""
    run = set_up(args, workdir)
    if args.workload == "service-mixed":
        from perfbench.service_workload import set_up as service_set_up

        daemon, _, _ = service_set_up(
            workdir, os.path.join(workdir, "cache"), run.max_records,
            run.hit_keys)
        print("ready", flush=True)
        daemon.stop()
    else:
        print("ready", flush=True)
    return 0


def measure_setup(args, workdir: str, count: int) -> list[tuple]:
    """Time from a fresh process start to ``ready``, ``count`` times:
    ``(wall seconds, mean calibration seconds just before and after)``."""
    samples = []
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for _ in range(count):
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        before = calibrate()
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                 cwd=probe_dir)
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        child.stdout.close()
        if child.wait(timeout=120) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append((elapsed, (before + calibrate()) / 2))
    return samples


def report(args, run, metrics: dict, setup: list[tuple] | None) -> dict:
    samples = metrics.pop("_samples", {})
    wall = metrics.pop("_wall", {})
    if setup is not None:
        metrics["setup_s"] = statistics.median(
            reference_seconds(*sample) for sample in setup)
        wall["setup_s"] = statistics.median(sample[0] for sample in setup)
        samples["setup_s"] = len(setup)
    table = spec.units()
    names = spec.names("per_layer" if args.trace else "end_to_end")
    print(f"{args.workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}):")
    for name in names:
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:30s} {metrics[name]:>14.6g} {table[name]}{count}")
    for name, value in wall.items():
        print(f"  {name + ' (wall clock)':30s} {value:>14.6g} {table[name]}")
    digest = hashlib.sha256(repr(run.digest_rows).encode()).hexdigest()
    print(f"  determinism digest: {digest}")
    for failure in run.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    correct = not run.failures and run.failed == 0
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": table[name]}
                    for name in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.describe:
        print(json.dumps(spec.describe(), indent=2))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    base = os.getcwd() if args.setup_probe else os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, str(os.getpid()))
    os.makedirs(os.path.join(workdir, "tmp"))
    # Scratch files of the program (temporary directories included)
    # stay inside the checkout.
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    tempfile.tempdir = None
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        if args.trace:
            run = set_up(args, workdir)
            result = report(args, run, run.measure_traced(), None)
        else:
            # The set-up samples bracket the measured window.
            count = 1 if args.smoke else spec.SETUP_SAMPLES
            setup = measure_setup(args, workdir, count - count // 2)
            run = set_up(args, workdir)
            metrics = run.measure()
            setup += measure_setup(args, workdir, count // 2)
            result = report(args, run, metrics, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.setup_probe:
            try:
                os.rmdir(base)
            except OSError:
                pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
