"""Output hashes of classify(3) and classify(4).

    python3 bench/hashes.py [--jobs N]
    python3 bench/hashes.py --trace

Run from the repository root.  Classifies complexities 3 and 4 into fresh
directories under .bench_out (removed afterwards) and prints the sha256 of
surfaces_t3.jsonl and surfaces_t4.jsonl, the files whose bytes must not
change unless a change means to change them.  With --trace both runs go
through the benchmark's layer tracer at jobs=1, and the per-layer figures
of each run are printed as well.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from run import cpu_seconds, scratch_dir, use_source_tree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    use_source_tree()
    import layers
    from fakesurfaces import pipeline

    jobs = 1 if args.trace else args.jobs
    with scratch_dir("hashes") as work:
        for t in (3, 4):
            out_dir = work / f"t{t}"
            tracer = layers.Tracer() if args.trace else None
            cpu_before = cpu_seconds()
            started = time.perf_counter()
            if tracer is not None:
                with tracer:
                    pipeline.classify(t, jobs=jobs, out_dir=str(out_dir))
            else:
                pipeline.classify(t, jobs=jobs, out_dir=str(out_dir))
            wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu_before
            path = out_dir / f"surfaces_t{t}.jsonl"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  surfaces_t{t}.jsonl  ({wall:.1f} s wall, "
                  f"{cpu:.1f} s cpu, jobs={jobs})")
            if tracer is not None:
                size = sum(p.stat().st_size for p in out_dir.iterdir())
                metrics = tracer.metrics(cpu / (jobs * wall), size)
                for name, (value, unit) in metrics.items():
                    print(f"    {name:28s} {value:14.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
