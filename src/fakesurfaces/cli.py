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
`classify` scans each skeleton as share 1 of 1 of pipeline's one share
plan, with --jobs workers.  `classify --shard k/m` scans share k of an
m-share sweep (pipeline.scan_share); a later `classify` in the same --out
merges each skeleton whose sweep is complete.  A share computes no pi1, so
--shard and --coset-cap exclude each other: the merging run's cap applies.
`tables` reads only runs without --min-disk-len (pipeline.load_census).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import algebra, pipeline
from .canon import canonical_form
from .formats import IngestError, ingest_row, iter_records
from .skeleta import enumerate_skeleta, skeleton_record


def _shard_spec(value: str) -> tuple[int, int]:
    try:
        k, m = value.split("/")
        k, m = int(k), int(m)
    except ValueError:
        raise argparse.ArgumentTypeError("shard must look like k/m")
    if not 1 <= k <= m:
        raise argparse.ArgumentTypeError("shard index out of range")
    return k, m


def _at_least_one(name: str):
    """The argparse type of an option that must be a whole number of at
    least 1, refused with a usage message that names it."""
    def parse(value: str) -> int:
        if not value.isdecimal() or int(value) < 1:
            raise argparse.ArgumentTypeError(f"{name} must be a whole number of at least 1, "
                                             f"not {value!r}")
        return int(value)
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fakesurfaces", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    complexity, cap = _at_least_one("complexity"), _at_least_one("coset cap")

    p = sub.add_parser("skeleta", help="enumerate 1-skeleta")
    p.add_argument("--complexity", type=complexity, required=True)
    p.add_argument("--out", help="write records to FILE instead of stdout")

    p = sub.add_parser("classify", help="classify acyclic cellular fake surfaces")
    p.add_argument("--complexity", type=complexity, required=True)
    p.add_argument("--min-disk-len", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--jobs", type=_at_least_one("jobs"), default=1,
                   help="worker processes; each skeleton's scan goes whole to one "
                        "of them while there are at least as many skeleta to scan")
    p.add_argument("--out", default=None, help="output directory")
    share_or_cap = p.add_mutually_exclusive_group()
    share_or_cap.add_argument("--shard", type=_shard_spec, default=None, metavar="k/m",
                              help="scan only share k of an m-share sweep and persist its "
                                   "survivors; a later classify run merges complete sweeps")
    share_or_cap.add_argument("--coset-cap", type=cap, default=algebra.DEFAULT_COSET_CAP)

    p = sub.add_parser("verify", help="verify a surface file")
    p.add_argument("file")
    p.add_argument("--coset-cap", type=cap, default=algebra.DEFAULT_COSET_CAP)

    p = sub.add_parser("tables", help="print census tables")
    p.add_argument("--max-complexity", type=_at_least_one("max complexity"), required=True)
    p.add_argument("--out", default=None,
                   help="directory containing classification runs")

    p = sub.add_parser("pi1", help="fundamental group triviality verdicts")
    p.add_argument("file")
    p.add_argument("--coset-cap", type=cap, default=algebra.DEFAULT_COSET_CAP)

    p = sub.add_parser("canon", help="canonical forms of surfaces in a file")
    p.add_argument("file")

    p = sub.add_parser("bp", help="complexity of the surface of a presentation")
    p.add_argument("presentation", help='e.g. "x,y|x^5y^-3,y^3(xy)^-2"')
    return ap


def cmd_skeleta(args) -> int:
    """One skeleton record per line.  An --out file that cannot be written
    is reported as `<path>: <reason>` on stderr, with exit status 1."""
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            for s in enumerate_skeleta(args.complexity):
                out.write(json.dumps(skeleton_record(s), separators=(",", ":")) + "\n")
    except OSError as exc:
        return _unreadable(args.out or "<stdout>", exc)
    return 0


def cmd_classify(args) -> int:
    """Run a classification or scan one share.  Bad run state in the
    output directory (a manifest or shard file that does not read) is
    reported as one line on stderr, with exit status 1."""
    out_dir = args.out or pipeline.default_out_dir()
    t = args.complexity
    try:
        if args.shard is not None:
            k, m = args.shard
            pipeline.scan_share(
                t, k, m, out_dir, min_disk_len=args.min_disk_len, jobs=args.jobs,
                progress=lambda s, survivors: print(
                    f"shard {k}/{m} skeleton {s.index}: {len(survivors)} survivors"
                ),
            )
            return 0
        result = pipeline.classify(
            t,
            min_disk_len=args.min_disk_len,
            jobs=args.jobs,
            out_dir=out_dir,
            coset_cap=args.coset_cap,
            progress=lambda s, recs: print(
                f"skeleton {s.index}: {len(recs)} surfaces", file=sys.stderr
            ),
        )
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"complexity {t}: {result.total} surfaces "
          f"({result.spines} spines) across {len(result.per_skeleton())} skeleta")
    for idx, n in result.per_skeleton().items():
        print(f"  skeleton {idx}: {n}")
    _print_sign_flip_merges(result.sign_flip_merges)
    return 0


def _print_sign_flip_merges(merges) -> None:
    for first, later in merges:
        print(f"  records {first} and {later}: one published (sign-flip) class")


def cmd_verify(args) -> int:
    """Re-derive validity, acyclicity, flags, spine and pi1 of every record.

    Two homeomorphic records of one skeleton are a `duplicate` mismatch; a
    native record not in canonical words is a `representative` mismatch.
    Two records that only the published sign-flip quotient puts in one class
    are listed after the mismatches and do not change the exit status: the
    classifier keeps them apart on purpose.
    """
    try:
        report = pipeline.verify_file(args.file, coset_cap=args.coset_cap)
    except (OSError, ValueError) as exc:
        return _unreadable(args.file, exc)
    print(f"records: {report['records']}  verified: {report['verified']}  "
          f"mismatches: {len(report['mismatches'])}  "
          f"sign-flip merges: {len(report['sign_flip_merges'])}")
    for m in report["mismatches"]:
        print(f"  record {m['record']}: {m['field']}: {m['got']}")
    _print_sign_flip_merges(report["sign_flip_merges"])
    return 0 if not report["mismatches"] else 1


def cmd_tables(args) -> int:
    out_dir = args.out or pipeline.default_out_dir()
    try:
        results = {t: pipeline.load_census(out_dir, t)
                   for t in range(1, args.max_complexity + 1)}
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(pipeline.emit_tables(results))
    return 0


def _unreadable(path, exc) -> int:
    """Report a file that cannot be read, written or parsed as
    `<path>: <message>` on stderr; the exit status 1."""
    print(f"{path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
    return 1


def _ingested(path):
    """(record number, record, Surface or None) per record of a surface
    file, as it is read.  A record that does not ingest has no Surface and
    is reported as `record N: <field>: <message>`, as verify reports it."""
    for n, rec in enumerate(iter_records(path), start=1):
        try:
            f = ingest_row(rec)
        except IngestError as exc:
            print(f"record {n}: {exc.field}: {exc}")
            f = None
        yield n, rec, f


def cmd_pi1(args) -> int:
    """A verdict per record, printed as the record is read.  A file that
    does not open or a line that does not parse is reported on stderr, after
    the verdicts of the records before it, with exit status 1."""
    worst = 0
    try:
        for n, _, f in _ingested(args.file):
            if f is None:
                worst = 1
                continue
            v = algebra.pi1_trivial(f, cap=args.coset_cap)
            desc = {"trivial": "trivial (proven)",
                    "finite": f"finite of order {v.order}",
                    "inconclusive": f"inconclusive at cap (used {v.cosets_used} cosets)"}
            print(f"record {n}: {desc[v.status]}")
            if v.status != "trivial":
                worst = 1
    except (OSError, ValueError) as exc:
        return _unreadable(args.file, exc)
    return worst


def cmd_canon(args) -> int:
    """A canonical form per record, printed as the record is read; a bad
    file or line is reported as pi1 reports it."""
    status = 0
    try:
        for _, rec, f in _ingested(args.file):
            if f is None:
                status = 1
                continue
            words = " | ".join(" ".join(str(x) for x in w) for w in canonical_form(f))
            print(f"{rec.complexity} {rec.skeleton_index} | {words}")
    except (OSError, ValueError) as exc:
        return _unreadable(args.file, exc)
    return status


def cmd_bp(args) -> int:
    try:
        print(algebra.bp_complexity(algebra.parse_presentation(args.presentation)))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
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
