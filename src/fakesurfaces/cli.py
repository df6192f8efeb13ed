"""Command-line interface.

Subcommands:
  skeleta   enumerate 1-skeleta of a complexity, one record per line
  classify  run the classification pipeline for a complexity
  verify    re-derive and check every claim in a surface file
  tables    print the census tables from completed runs
  pi1       triviality verdicts for the surfaces in a file
  canon     canonical form of each surface in a file
  bp        complexity of the fake surface obtained from a presentation

Output directory defaults to $FAKESURFACES_OUT, else ./fakesurfaces-out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import algebra, pipeline
from .canon import canonical_form
from .formats import normalize_orientations, read_records
from .skeleta import enumerate_skeleta, skeleton_record
from .surfaces import Surface
from .skeleta import skeleton_by_index


def _shard_spec(value: str) -> tuple[int, int]:
    try:
        k, m = value.split("/")
        k, m = int(k), int(m)
    except ValueError:
        raise argparse.ArgumentTypeError("shard must look like k/m")
    if not 1 <= k <= m:
        raise argparse.ArgumentTypeError("shard index out of range")
    return k, m


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fakesurfaces", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("skeleta", help="enumerate 1-skeleta")
    p.add_argument("--complexity", type=int, required=True)
    p.add_argument("--out", help="write records to FILE instead of stdout")

    p = sub.add_parser("classify", help="classify acyclic cellular fake surfaces")
    p.add_argument("--complexity", type=int, required=True)
    p.add_argument("--min-disk-len", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--shards", type=int, default=None,
                   help="number of in-process scan shards per skeleton")
    p.add_argument("--shard", type=_shard_spec, default=None, metavar="k/m",
                   help="scan only the k-th of m shard ranges and persist "
                        "survivors for a later merge run")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--coset-cap", type=int, default=algebra.DEFAULT_COSET_CAP)

    p = sub.add_parser("verify", help="verify a surface file")
    p.add_argument("file")
    p.add_argument("--coset-cap", type=int, default=algebra.DEFAULT_COSET_CAP)

    p = sub.add_parser("tables", help="print census tables")
    p.add_argument("--max-complexity", type=int, required=True)
    p.add_argument("--out", default=None,
                   help="directory containing classification runs")

    p = sub.add_parser("pi1", help="fundamental group triviality verdicts")
    p.add_argument("file")
    p.add_argument("--coset-cap", type=int, default=algebra.DEFAULT_COSET_CAP)

    p = sub.add_parser("canon", help="canonical forms of surfaces in a file")
    p.add_argument("file")

    p = sub.add_parser("bp", help="complexity of the surface of a presentation")
    p.add_argument("presentation", help='e.g. "x,y|x^5y^-3,y^3(xy)^-2"')
    return ap


def cmd_skeleta(args) -> int:
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for s in enumerate_skeleta(args.complexity):
            out.write(json.dumps(skeleton_record(s), separators=(",", ":")) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def _shard_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "shards")


def _shard_options(t: int, min_disk_len: int) -> dict:
    """What a shard file was scanned under; a merge uses only matching files."""
    return {
        "complexity": t,
        "min_disk_len": min_disk_len,
        "source": pipeline.source_fingerprint(),
    }


def cmd_classify(args) -> int:
    out_dir = args.out or pipeline.default_out_dir()
    t = args.complexity
    if args.shard is not None:
        k, m = args.shard
        os.makedirs(_shard_dir(out_dir), exist_ok=True)
        options = _shard_options(t, args.min_disk_len)
        for s in enumerate_skeleta(t):
            started = time.time()
            prefixes = pipeline.shard_prefixes(s, m)
            mine = prefixes[k - 1 :: m] if len(prefixes) >= m else prefixes
            survivors = []
            for p in mine:
                survivors.extend(
                    pipeline._scan_shard((t, s.index, args.min_disk_len, p))
                )
            header = dict(options, seconds=round(time.time() - started, 2))
            path = os.path.join(
                _shard_dir(out_dir), f"t{t}_g{s.index}_shard{k}of{m}.txt"
            )
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
                for cfg in survivors:
                    fh.write(",".join(map(str, cfg)) + "\n")
            os.replace(path + ".tmp", path)
            print(f"shard {k}/{m} skeleton {s.index}: {len(survivors)} survivors")
        return 0

    merged = _try_merge_shards(out_dir, t, args.min_disk_len, args.coset_cap)
    if merged is not None:
        result = merged
    else:
        result = pipeline.classify(
            t,
            min_disk_len=args.min_disk_len,
            jobs=args.jobs,
            shards=args.shards,
            out_dir=out_dir,
            coset_cap=args.coset_cap,
            progress=lambda s, recs: print(
                f"skeleton {s.index}: {len(recs)} surfaces", file=sys.stderr
            ),
        )
    print(f"complexity {t}: {result.total} surfaces "
          f"({result.spines} spines) across {len(result.per_skeleton())} skeleta")
    for idx, n in result.per_skeleton().items():
        print(f"  skeleton {idx}: {n}")
    _print_sign_flip_merges(result.sign_flip_merges)
    return 0


def _print_sign_flip_merges(merges) -> None:
    for first, later in merges:
        print(f"  records {first} and {later}: one published (sign-flip) class")


def _shard_header(path: str) -> dict | None:
    """The options line of a shard file; None for a file without one."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("# "):
        return None
    try:
        return json.loads(first[2:])
    except ValueError:
        return None


def _try_merge_shards(out_dir, t, min_disk_len, coset_cap):
    """Merge a complete k/m shard sweep when present on disk.  Shard files
    scanned under other options or other code are ignored."""
    sdir = _shard_dir(out_dir)
    if not os.path.isdir(sdir):
        return None
    import re

    pat = re.compile(rf"t{t}_g(\d+)_shard(\d+)of(\d+)\.txt$")
    options = _shard_options(t, min_disk_len)
    found: dict[int, dict[int, str]] = {}
    scan_seconds: dict[int, float] = {}
    ms = set()
    for name in os.listdir(sdir):
        mch = pat.match(name)
        if not mch:
            continue
        path = os.path.join(sdir, name)
        header = _shard_header(path) or {}
        seconds = header.pop("seconds", 0.0)
        if header != options:
            continue
        g, k, m = int(mch.group(1)), int(mch.group(2)), int(mch.group(3))
        ms.add(m)
        found.setdefault(g, {})[k] = path
        scan_seconds[g] = scan_seconds.get(g, 0.0) + seconds
    if not found or len(ms) != 1:
        return None
    m = ms.pop()
    skeleta = enumerate_skeleta(t)
    if set(found) != {s.index for s in skeleta} or any(
        set(found[g]) != set(range(1, m + 1)) for g in found
    ):
        print("shard sweep incomplete; ignoring shard files", file=sys.stderr)
        return None
    result = pipeline.ClassificationResult(t, min_disk_len)
    manifest = pipeline._Manifest(out_dir, t, min_disk_len, coset_cap)
    for s in skeleta:
        started = time.time()
        survivors = set()
        for k in range(1, m + 1):
            with open(found[s.index][k], encoding="utf-8") as fh:
                for line in fh:
                    if line.strip() and not line.startswith("#"):
                        survivors.add(tuple(int(x) for x in line.split(",")))
        records = pipeline.reduce_survivors(s, sorted(survivors), coset_cap)
        elapsed = scan_seconds[s.index] + time.time() - started
        manifest.store_skeleton(s.index, records, elapsed)
        result.records.extend(records)
    result.sign_flip_merges = pipeline.find_sign_flip_merges(
        r.surface() for r in result.records
    )
    manifest.finalize(result)
    return result


def cmd_verify(args) -> int:
    """Re-derive validity, acyclicity, flags, spine and pi1 of every record.

    Two homeomorphic records of one skeleton are a `duplicate` mismatch.
    Two records that only the published sign-flip quotient puts in one class
    are listed after the mismatches and do not change the exit status: the
    classifier keeps them apart on purpose.
    """
    report = pipeline.verify_file(args.file, coset_cap=args.coset_cap)
    print(f"records: {report['records']}  verified: {report['verified']}  "
          f"mismatches: {len(report['mismatches'])}  "
          f"sign-flip merges: {len(report['sign_flip_merges'])}")
    for m in report["mismatches"]:
        print(f"  record {m['record']}: {m['field']}: {m['got']}")
    _print_sign_flip_merges(report["sign_flip_merges"])
    return 0 if not report["mismatches"] else 1


def cmd_tables(args) -> int:
    out_dir = args.out or pipeline.default_out_dir()
    results = {}
    for t in range(1, args.max_complexity + 1):
        path = os.path.join(out_dir, f"surfaces_t{t}.jsonl")
        if not os.path.exists(path):
            print(f"missing classification for complexity {t} ({path}); "
                  f"run classify first", file=sys.stderr)
            return 1
        recs = read_records(path)
        r = pipeline.ClassificationResult(t, 1)
        r.records = recs
        results[t] = r
    print(pipeline.emit_tables(results))
    return 0


def cmd_pi1(args) -> int:
    worst = 0
    for n, rec in enumerate(read_records(args.file), start=1):
        s = skeleton_by_index(rec.complexity, rec.skeleton_index)
        f = Surface(s, normalize_orientations(s, rec.disks))
        v = algebra.pi1_trivial(f, cap=args.coset_cap)
        desc = {"trivial": "trivial (proven)",
                "finite": f"finite of order {v.order}",
                "inconclusive": f"inconclusive at cap (used {v.cosets_used} cosets)"}
        print(f"record {n}: {desc[v.status]}")
        if v.status != "trivial":
            worst = 1
    return worst


def cmd_canon(args) -> int:
    for n, rec in enumerate(read_records(args.file), start=1):
        s = skeleton_by_index(rec.complexity, rec.skeleton_index)
        f = Surface(s, normalize_orientations(s, rec.disks))
        form = canonical_form(f)
        words = " | ".join(" ".join(str(x) for x in w) for w in form)
        print(f"{rec.complexity} {rec.skeleton_index} | {words}")
    return 0


def cmd_bp(args) -> int:
    p = algebra.parse_presentation(args.presentation)
    print(algebra.bp_complexity(p))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "skeleta": cmd_skeleta,
        "classify": cmd_classify,
        "verify": cmd_verify,
        "tables": cmd_tables,
        "pi1": cmd_pi1,
        "canon": cmd_canon,
        "bp": cmd_bp,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
