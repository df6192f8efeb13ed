"""Benchmark of the fakesurfaces classifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
workloads are in bench/workloads.py and bench/README.md says why each is
there.  With --trace 0 the workload repeats whole rounds until S seconds of
rounds have run, and the end-to-end metrics are medians over rounds.  With
--trace 1 it runs one traced round at jobs=1 and one untraced round at the
workload's own job count, requires both to give identical outputs, and
reports the per-layer metrics.  Every round's outputs are checked.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ".bench_out"  # per-run output directories, under the working directory
SETUP_SAMPLES = 5  # set-ups per run: this process's own, plus fresh processes


def use_source_tree() -> None:
    """Import the package from the repository's src directory."""
    src = ROOT / "src"
    if not (src / "fakesurfaces" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def setup(name: str, seed: int):
    """Imports and input generation; the program's caches stay cold."""
    started = time.perf_counter()
    use_source_tree()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    return workload, inputs, time.perf_counter() - started


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """The larger of this process's and its largest reaped child's peak RSS."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


@contextlib.contextmanager
def scratch_dir(name: str):
    """A private directory under SCRATCH, removed with everything in it."""
    work = Path(SCRATCH) / f"{name}-{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)  # fails while another run still uses it


def timed_round(workload, inputs, jobs: int, out_dir: str):
    os.makedirs(out_dir)
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    output = workload.run(inputs, jobs, out_dir)
    wall = time.perf_counter() - started
    return output, wall, cpu_seconds() - cpu_before


def setup_probes(args, count: int) -> list[float]:
    """Set-up seconds measured in `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def check_rounds(workload, inputs, first, later, tracer=None):
    """Check the first round's output in full.  Later rounds, given by their
    outputs' fingerprints, repeat the same operations and must give the same
    output."""
    report = workload.check(inputs, first, tracer)
    same = workload.fingerprint(first)
    for n, fingerprint in enumerate(later, start=1):
        report.whole(fingerprint == same, f"round {n} output differs from round 0's")
    report.attempted *= 1 + len(later)
    report.failed *= 1 + len(later)
    return report


def measure(args, workload, inputs, work: Path):
    """Untraced rounds until args.seconds of rounds have run."""
    walls, cpus, later = [], [], []
    while not walls or sum(walls) < args.seconds:
        output, wall, cpu = timed_round(workload, inputs, workload.jobs,
                                        str(work / f"round{len(walls)}"))
        if walls:
            # only a fingerprint, so memory does not grow with the round count
            later.append(workload.fingerprint(output))
        else:
            first = output
        del output
        walls.append(wall)
        cpus.append(cpu)
        print(f"round {len(walls) - 1}: wall {wall:.3f} s, cpu {cpu:.3f} s",
              file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return metrics, check_rounds(workload, inputs, first, later)


def measure_traced(workload, inputs, work: Path):
    """One traced round at jobs=1, then one untraced round at the workload's
    job count; their outputs must be identical."""
    import layers

    with layers.Tracer() as tracer:
        traced, _, _ = timed_round(workload, inputs, 1, str(work / "traced"))
    plain, wall, cpu = timed_round(workload, inputs, workload.jobs, str(work / "plain"))
    metrics = tracer.metrics(
        pool_busy_ratio=cpu / (workload.jobs * wall),
        output_bytes=workload.output_bytes(traced),
    )
    return metrics, check_rounds(workload, inputs, traced, [workload.fingerprint(plain)],
                                 tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("t4-named", "t4-nosmall", "listing-certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload, inputs, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    with scratch_dir(args.workload) as work:
        if args.trace:
            metrics, report = measure_traced(workload, inputs, work)
        else:
            metrics, report = measure(args, workload, inputs, work)
            setups = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
            metrics["setup_s"] = (statistics.median(setups), "s")

    for p in report.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
