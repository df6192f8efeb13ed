"""End-to-end classification: enumerate, filter, quotient, flag, certify.

For each skeleton of the requested complexity the gluing space is scanned
in fixed prefix ranges (share 1 of 1 of the plan below, in a pool of
worker processes when jobs > 1), acyclic survivors are collected as configuration
tuples, and the reducer quotients them by the germ symmetries.  The scan is one
explicit-stack DFS kernel (surfaces.enumerate_surfaces): it builds each
curve's boundary row as its path closes, skips a child near the end when no
completion can close the curves still needed, stops before the last two
edges and looks both edges' closures up per pairing of their open path
ends; both tables are cached per skeleton, so a leaf costs one determinant
(algebra.det_bareiss, a compiled straight-line formula at these sizes) and
no word is traced.  The prefix ranges' survivors are concatenated in
range order.  Words are traced only for the orbit representatives in the
reduce, which keeps one set of survivors not yet in a reduced orbit: each
survivor still in it removes its orbit and contributes one class whose
representative is the orbit-minimal configuration.  That orbit is the only
quotient applied.  Flags, the spine rule and the pi1 verdict of a class are
derived by one helper that verify_file shares.  The published,
coarser sign-flip key (canon.canonical_key) is computed once per class
after the reduce and never merges anything: the pairs of classes it would
merge are reported (ClassificationResult.sign_flip_merges, the manifest,
verify_file).  Orbits never cross the survivor set's boundary, so the
classes, their representatives and all derived data are independent of the
share plan and job count; output files are byte-identical across runs.

Results persist per complexity as a JSON-lines surface file plus a manifest
with options, a fingerprint of the package's sources and content hashes;
skeletons already present in a manifest of the same options and code are
skipped on resume.  One plan splits every scan: share k of an m-share
sweep of a skeleton is share_prefixes(s, k, m), at least SHARE_TASKS prefix
ranges whatever the job count, one scan task each; classify scans share 1
of 1.  A scan too long for one run splits into a k-of-m sweep: scan_share
writes a shard file per skeleton whose header holds the scan options,
source fingerprint, skeleton, k, m and seconds.  classify takes each
skeleton from the manifest, else from a complete sweep of matching shard
files (reduced and stored like a scan), else from a scan.  load_census
reads a finished run without a disk-length filter back for the tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import Pool

from . import algebra, canon, topology
from .formats import SurfaceRecord, file_format, normalize_orientations, read_records
from .skeleta import Skeleton, enumerate_skeleta, skeleton_by_index, skeleton_stats
from .surfaces import Surface, enumerate_surfaces, trace_gluing, validate_words

OUT_DIR_ENV = "FAKESURFACES_OUT"
# the least number of scan tasks per skeleton in one share of a k-of-m sweep
SHARE_TASKS = 36


def default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, "fakesurfaces-out")


@dataclass
class ClassificationResult:
    complexity: int
    records: list[SurfaceRecord] = field(default_factory=list)
    # (first, later) record numbers in one published sign-flip class
    sign_flip_merges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def per_skeleton(self) -> dict[int, int]:
        counts: Counter = Counter(r.skeleton_index for r in self.records)
        return dict(sorted(counts.items()))

    @property
    def spines(self) -> int:
        return sum(1 for r in self.records if r.spine)

    def t_histogram(self) -> dict[int, int]:
        """Surface counts by number of disks with nontrivial triod bundle."""
        hist: Counter = Counter(
            sum(1 for fl in r.flags if not fl[1]) for r in self.records
        )
        return dict(sorted(hist.items()))

    def pi1_summary(self) -> dict[str, int]:
        return dict(sorted(Counter(r.pi1 for r in self.records).items()))


def _scan_shard(args) -> list[tuple[int, ...]]:
    """Worker: survivors (acyclic, t+1 curves, length filter) of one prefix
    range of one skeleton's gluing space."""
    complexity, index, min_disk_len, prefix = args
    s = skeleton_by_index(complexity, index)
    leaves = enumerate_surfaces(s, min_disk_len=min_disk_len, prefix=prefix)
    return [cfg for cfg, rows in leaves if abs(algebra.det_bareiss(rows)) == 1]


def shard_prefixes(s: Skeleton, shards: int) -> list[tuple[int, ...]]:
    """Split the gluing space into at least `shards` fixed prefix ranges."""
    depth = 0
    while 6**depth < shards and depth < s.n_edges:
        depth += 1
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(depth):
        prefixes = [p + (k,) for p in prefixes for k in range(6)]
    return prefixes


def share_prefixes(s: Skeleton, k: int, m: int) -> list[tuple[int, ...]]:
    """The prefix ranges of share k of an m-share sweep of skeleton s: at
    least SHARE_TASKS of them (fewer only when the skeleton has fewer
    gluings), a plan that depends on m alone."""
    return shard_prefixes(s, SHARE_TASKS * m)[k - 1 :: m]


def classify_skeleton(
    s: Skeleton,
    min_disk_len: int = 1,
    coset_cap: int = algebra.DEFAULT_COSET_CAP,
    pool: Pool | None = None,
) -> list[SurfaceRecord]:
    """Classify all acyclic surfaces over one skeleton, scanned as share 1
    of 1 (in the pool, if one is given); deterministic."""
    survivors = _scan(s, share_prefixes(s, 1, 1), min_disk_len, pool)
    return reduce_survivors(s, survivors, coset_cap)


def _scan(s: Skeleton, prefixes, min_disk_len: int, pool: Pool | None):
    """Survivors of some prefix ranges of one skeleton, one _scan_shard task
    per prefix, in the pool, or in this process when pool is None.  Each
    range comes back in mixed-radix order and ranges are disjoint, so
    ascending prefixes give ascending survivors."""
    tasks = [(s.complexity, s.index, min_disk_len, p) for p in prefixes]
    outputs = map(_scan_shard, tasks) if pool is None else pool.map(_scan_shard, tasks)
    return [cfg for output in outputs for cfg in output]


def scan_share(t: int, k: int, m: int, out_dir: str, min_disk_len: int = 1,
               jobs: int = 1, progress=None) -> None:
    """Scan share k of a k-of-m sweep of every skeleton of complexity t and
    persist its survivors under out_dir for classify(t, out_dir=out_dir) to
    merge.  Share k of skeleton s is share_prefixes(s, k, m), SHARE_TASKS
    scan tasks or more to spread over its jobs."""
    manifest = _Manifest(out_dir, t, min_disk_len)
    with (Pool(jobs) if jobs > 1 else nullcontext()) as pool:
        for s in enumerate_skeleta(t):
            started = time.time()
            survivors = _scan(s, share_prefixes(s, k, m), min_disk_len, pool)
            manifest.store_share(s, k, m, survivors, time.time() - started)
            if progress is not None:
                progress(s, survivors)


def reduce_survivors(
    s: Skeleton, survivors, coset_cap: int = algebra.DEFAULT_COSET_CAP
) -> list[SurfaceRecord]:
    """Quotient survivor configurations by the germ symmetries and derive
    flags and certificates for one representative per class.

    The quotient is the germ-symmetry orbit of each configuration: every
    orbit is one class, represented by the words its minimal configuration
    traces.  The published, coarser sign-flip quotient (canon.canonical_key)
    is not applied here; see find_sign_flip_merges.
    """
    remaining = set(survivors)  # not yet in a reduced orbit
    records = []
    for cfg in survivors:
        if cfg not in remaining:
            continue
        # orbits are disjoint, so this orbit meets no reduced one
        orbit = canon.config_orbit(s, cfg)
        if not orbit <= remaining:
            missing = sorted(orbit - remaining)[:3]
            raise AssertionError(
                f"orbit escapes the survivor set at {missing}; shard scan incomplete?"
            )
        remaining -= orbit
        words = canon.normalize_words(trace_gluing(s, min(orbit)))
        flags, spine, pi1 = _derived_claims(Surface(s, words), coset_cap)
        records.append(
            SurfaceRecord(
                complexity=s.complexity,
                skeleton_index=s.index,
                disks=words,
                flags=flags,
                acyclic=True,
                spine=spine,
                pi1=pi1,
            )
        )
    records.sort(key=lambda r: canon.encode_words(r.disks))
    return records


def _derived_claims(f: Surface, coset_cap: int, acyclic: bool = True):
    """(flags, spine, pi1) as a surface record stores them: the disk flags,
    whether every disk's triod bundle is trivial, and the pi1 verdict as
    "trivial", "finite:<order>" or "inconclusive".  Acyclicity is the
    caller's to establish; no determinant is taken here.  For a surface the
    caller found not acyclic pi1 is None and no coset enumeration runs: its
    group is not trivial, and a capped enumeration could only say
    "inconclusive"."""
    flags = tuple(topology.disk_flags(f))
    spine = all(t for _, t in flags)
    if not acyclic:
        return flags, spine, None
    verdict = algebra.pi1_trivial(f, cap=coset_cap)
    pi1 = f"finite:{verdict.order}" if verdict.status == "finite" else verdict.status
    return flags, spine, pi1


def classify(
    t: int,
    min_disk_len: int = 1,
    jobs: int = 1,
    out_dir: str | None = None,
    coset_cap: int = algebra.DEFAULT_COSET_CAP,
    skeleton_indices=None,
    progress=None,
) -> ClassificationResult:
    """Classify complexity t end to end.

    Each skeleton is scanned as share 1 of 1, in a pool of `jobs` workers
    when jobs > 1.  With out_dir, results persist incrementally per skeleton
    and a matching interrupted run resumes where it stopped.  A skeleton not
    in the manifest is reduced from a complete scan_share sweep of matching
    shard files when out_dir holds one.
    """
    if t < 1:
        raise ValueError("complexity must be at least 1")
    skeleta = enumerate_skeleta(t)
    if skeleton_indices is not None:
        wanted = set(skeleton_indices)
        unknown = sorted(wanted - {s.index for s in skeleta})
        if unknown:
            raise ValueError(f"unknown skeleton indices {unknown}: t={t} has {len(skeleta)}")
        skeleta = tuple(s for s in skeleta if s.index in wanted)
    result = ClassificationResult(t)

    manifest = None
    if out_dir is not None:
        manifest = _Manifest(out_dir, t, min_disk_len, coset_cap)

    with (Pool(jobs) if jobs > 1 else nullcontext()) as pool:
        for s in skeleta:
            if manifest is not None and manifest.has_skeleton(s.index):
                records = manifest.load_skeleton(s.index)
            else:
                started = time.time()
                sweep = manifest.shard_sweep(s) if manifest is not None else None
                if sweep is not None:
                    survivors, scan_seconds = sweep
                    started -= scan_seconds
                    records = reduce_survivors(s, survivors, coset_cap)
                else:
                    records = classify_skeleton(s, min_disk_len, coset_cap, pool)
                if manifest is not None:
                    manifest.store_skeleton(s.index, records, time.time() - started)
            if progress is not None:
                progress(s, records)
            result.records.extend(records)
    result.sign_flip_merges = find_sign_flip_merges(r.surface() for r in result.records)
    if manifest is not None:
        manifest.finalize(result, [s.index for s in skeleta])
    return result


def load_census(out_dir: str, t: int) -> ClassificationResult:
    """The finished classify(t) run persisted in out_dir, for the census
    tables.  Raises ValueError naming the complexity when there is none, or
    when its manifest does not describe the surface file, or records a
    min_disk_len other than 1 or a subset of the skeleta: a filtered run is
    not the census."""
    path = os.path.join(out_dir, f"surfaces_t{t}.jsonl")
    manifest = os.path.join(out_dir, f"manifest_t{t}.json")
    if not (os.path.exists(path) and os.path.exists(manifest)):
        raise ValueError(f"missing classification for complexity {t} ({path}); "
                         f"run classify first")
    with open(manifest, encoding="utf-8") as fh:
        state = json.load(fh)
    if state.get("combined", {}).get("sha256") != _sha256(path):
        raise ValueError(f"complexity {t}: {path} is not the finished run "
                         f"{manifest} records; run classify again")
    min_disk_len = state["options"]["min_disk_len"]
    if min_disk_len != 1:
        raise ValueError(f"complexity {t}: the run in {out_dir} keeps only disks of "
                         f"length at least {min_disk_len}, not the census; run "
                         f"classify without --min-disk-len")
    if state["combined"]["skeletons"] != [s.index for s in enumerate_skeleta(t)]:
        raise ValueError(f"complexity {t}: the run in {out_dir} classified only "
                         f"skeleta {state['combined']['skeletons']}, not the census")
    result = ClassificationResult(t)
    result.records = read_records(path)
    return result


def find_sign_flip_merges(surfaces) -> list[tuple[int, int]]:
    """Pairs (first, later) of 1-based positions whose surfaces lie over one
    skeleton and in one published sign-flip class (canon.canonical_key).

    The classifier keeps such classes apart, since the sign-flip quotient
    can merge non-homeomorphic surfaces; this reports what the published
    quotient would have merged.  None entries are skipped.
    """
    first_of_class: dict[tuple, int] = {}
    merges = []
    for n, f in enumerate(surfaces, start=1):
        if f is None:
            continue
        s = f.skeleton
        first = first_of_class.setdefault((s.complexity, s.index, canon.canonical_key(f)), n)
        if first != n:
            merges.append((first, n))
    return merges


def source_fingerprint() -> str:
    """sha256 over the package's .py sources: state on disk written by other
    code is not reused."""
    package = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


class _Manifest:
    """Per-complexity run state: options, per-skeleton part files, hashes,
    and the shard files of k-of-m sweeps."""

    def __init__(self, out_dir: str, t: int, min_disk_len: int,
                 coset_cap: int = algebra.DEFAULT_COSET_CAP):
        self.dir = out_dir
        self.t = t
        # what a scan depends on; every shard file's header records it
        self.scan_options = {
            "complexity": t,
            "min_disk_len": min_disk_len,
            "source": source_fingerprint(),
        }
        self.options = dict(self.scan_options, coset_cap=coset_cap)
        self.shard_dir = os.path.join(out_dir, "shards")
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, f"manifest_t{t}.json")
        from . import __version__

        self.state = {
            "options": self.options,
            "skeletons": {},
            "version": 1,
            "tool": __version__,
        }
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                prev = json.load(fh)
            if prev.get("options") == self.options:
                self.state = prev
            # differing options or code: start over, old part files are overwritten

    def _part_path(self, index: int) -> str:
        return os.path.join(self.dir, f"surfaces_t{self.t}_g{index}.jsonl")

    def has_skeleton(self, index: int) -> bool:
        meta = self.state["skeletons"].get(str(index))
        path = self._part_path(index)
        return (
            meta is not None
            and os.path.exists(path)
            and _sha256(path) == meta["sha256"]
        )

    def load_skeleton(self, index: int) -> list[SurfaceRecord]:
        return read_records(self._part_path(index))

    def store_skeleton(self, index: int, records, elapsed: float) -> None:
        path = self._part_path(index)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(r.to_json() + "\n")
        os.replace(tmp, path)
        self.state["skeletons"][str(index)] = {
            "surfaces": len(records),
            "sha256": _sha256(path),
            "seconds": round(elapsed, 2),
        }
        self._write()

    def store_share(self, s: Skeleton, k: int, m: int, survivors, elapsed: float) -> None:
        os.makedirs(self.shard_dir, exist_ok=True)
        header = dict(self.scan_options, skeleton=s.index, k=k, m=m, seconds=round(elapsed, 2))
        path = os.path.join(self.shard_dir, f"t{self.t}_g{s.index}_shard{k}of{m}.txt")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.writelines(",".join(map(str, cfg)) + "\n" for cfg in survivors)
        os.replace(path + ".tmp", path)

    def shard_sweep(self, s: Skeleton) -> tuple[set, float] | None:
        """(survivors, summed scan seconds) of a complete k-of-m sweep of
        skeleton s under these scan options, or None.  The plan is read from
        the shard headers; every complete plan has the same survivors, and
        the one with the fewest shares is read."""
        plans: dict = {}  # m -> k -> (path, seconds)
        names = os.listdir(self.shard_dir) if os.path.isdir(self.shard_dir) else ()
        for name in names:
            if name.endswith(".txt"):
                path = os.path.join(self.shard_dir, name)
                header = _shard_header(path)
                g, k, m, seconds = (header.pop(key, None)
                                    for key in ("skeleton", "k", "m", "seconds"))
                if g == s.index and header == self.scan_options:
                    plans.setdefault(m, {})[k] = (path, seconds)
        for m, shares in sorted(plans.items()):
            if set(shares) == set(range(1, m + 1)):
                survivors = {cfg for path, _ in shares.values()
                             for cfg in _read_shard(path, s.n_edges)}
                return survivors, sum(seconds for _, seconds in shares.values())
        return None

    def finalize(self, result: ClassificationResult, indices: list[int]) -> None:
        combined = os.path.join(self.dir, f"surfaces_t{self.t}.jsonl")
        tmp = combined + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for r in result.records:
                fh.write(r.to_json() + "\n")
        os.replace(tmp, combined)
        # listing-format twin for eyeball diffs against published tables
        from .formats import ListingRow, format_listing_line

        listing = os.path.join(self.dir, f"listing_t{self.t}.txt")
        with open(listing + ".tmp", "w", encoding="utf-8") as fh:
            for r in result.records:
                row = ListingRow(r.complexity, r.skeleton_index, r.disks, r.flags)
                fh.write(format_listing_line(row) + "\n")
        os.replace(listing + ".tmp", listing)
        self.state["combined"] = {
            "skeletons": indices,
            "surfaces": result.total,
            "sha256": _sha256(combined),
            "listing_sha256": _sha256(listing),
            "sign_flip_merges": [list(pair) for pair in result.sign_flip_merges],
        }
        self._write()

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.state, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _shard_header(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        return dict(json.loads(first.removeprefix("# ")))
    except (TypeError, ValueError):
        raise ValueError(f"{path}:1: not a shard file header") from None


def _read_shard(path: str, n_edges: int):
    """The configurations of a shard file; a bad line fails with its number."""
    with open(path, encoding="utf-8") as fh:
        next(fh)  # the header
        for n, line in enumerate(fh, start=2):
            try:
                cfg = tuple(int(x) for x in line.split(","))
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
            if len(cfg) != n_edges or min(cfg) < 0 or max(cfg) > 5:
                raise ValueError(f"{path}:{n}: not a configuration of {n_edges} edges")
            yield cfg


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tables


def emit_table1(results: dict[int, ClassificationResult]) -> str:
    """Surfaces by complexity and number of disks with nontrivial bundles.

    The percentage column is recomputed as round(100*spines/total, 1) from
    the raw integers; the raw fraction is printed alongside.
    """
    ts = sorted(results)
    buckets = max((max(results[t].t_histogram(), default=0) for t in ts), default=0)
    head = ["t", "spines"] + [str(k) for k in range(1, buckets + 1)] + [
        "total",
        "% spines",
        "fraction",
    ]
    lines = ["\t".join(head)]
    for t in ts:
        r = results[t]
        hist = r.t_histogram()
        row = [str(t), str(hist.get(0, 0))]
        row += [str(hist.get(k, 0)) for k in range(1, buckets + 1)]
        pct = round(100 * r.spines / r.total, 1) if r.total else 0.0
        row += [str(r.total), f"{pct}", f"{r.spines}/{r.total}"]
        lines.append("\t".join(row))
    return "\n".join(lines)


def emit_table2(max_complexity: int) -> str:
    """Skeleta by complexity and number of self-loops."""
    rows = []
    width = 0
    for t in range(1, max_complexity + 1):
        c = Counter(skeleton_stats(s)["self_loops"] for s in enumerate_skeleta(t))
        rows.append((t, c))
        width = max(width, max(c) + 1)
    lines = ["\t".join(["t"] + [str(k) for k in range(width)] + ["total"])]
    for t, c in rows:
        lines.append(
            "\t".join(
                [str(t)]
                + [str(c.get(k, 0)) for k in range(width)]
                + [str(sum(c.values()))]
            )
        )
    return "\n".join(lines)


def emit_table3(max_complexity: int) -> str:
    """Skeleta by length of the shortest cycle."""
    lines = ["\t".join(["t", "1", "2", "3", "total"])]
    for t in range(1, max_complexity + 1):
        c = Counter(skeleton_stats(s)["girth"] for s in enumerate_skeleta(t))
        lines.append(
            "\t".join(
                [str(t)]
                + [str(c.get(k, 0)) for k in (1, 2, 3)]
                + [str(sum(c.values()))]
            )
        )
    return "\n".join(lines)


def emit_tables(results: dict[int, ClassificationResult]) -> str:
    if not results:
        raise ValueError("no classification results to tabulate")
    max_t = max(results)
    if sorted(results) != list(range(1, max_t + 1)):
        raise ValueError("incomplete run: need every complexity 1..max")
    parts = [
        "Fake surfaces by complexity and nontrivial-bundle count",
        emit_table1(results),
        "",
        "One-skeleta by number of self-loops",
        emit_table2(max_t),
        "",
        "One-skeleta by shortest cycle",
        emit_table3(max_t),
    ]
    return "\n".join(parts)


def stats_spine_ratio(results: dict[int, ClassificationResult]) -> list[dict]:
    rows = []
    for t in sorted(results):
        r = results[t]
        rows.append(
            {
                "complexity": t,
                "spines": r.spines,
                "total": r.total,
                "percent": round(100 * r.spines / r.total, 1) if r.total else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# verification of external files


def verify_file(path, coset_cap: int = algebra.DEFAULT_COSET_CAP) -> dict:
    """Re-derive every stored claim of a surface file and report agreement.

    A record homeomorphic to an earlier record of its skeleton (same
    canon.geometric_key) is a `duplicate` mismatch.  Records that only the
    coarser published sign-flip quotient puts in one class are not an error
    (the classifier keeps them apart); they are listed as (first, later)
    pairs in report["sign_flip_merges"].  A native record not in its class's
    canonical words (canon.geometric_form, as classify writes them) is a
    `representative` mismatch; published listing rows are exempt.  A record
    that is not acyclic gets an `acyclic` mismatch and its flags and spine
    are still checked, but its stored pi1 is not: no coset enumeration runs
    for it.  Mismatches are collected, not raised; parse errors abort with
    line info.
    """
    records = read_records(path)
    native = file_format(path) == "native"
    report = {"records": len(records), "mismatches": [], "verified": 0}
    first_of_class: dict[tuple, int] = {}  # (complexity, skeleton, key) -> record
    distinct: list[Surface | None] = []  # valid records of a class not seen yet
    for n, rec in enumerate(records, start=1):
        distinct.append(None)
        problems = []
        try:
            s = skeleton_by_index(rec.complexity, rec.skeleton_index)
            disks = normalize_orientations(s, rec.disks)
        except ValueError as exc:
            report["mismatches"].append({"record": n, "field": "words", "got": str(exc)})
            continue
        f = Surface(s, disks)
        v = validate_words(s, disks)
        if not v:
            problems.append(("validity", f"{v.kind}: {v.detail}"))
        else:
            key = canon.geometric_key(f)
            first = first_of_class.setdefault((rec.complexity, rec.skeleton_index, key), n)
            if first != n:
                problems.append(("duplicate", f"same class as record {first}"))
            else:
                distinct[-1] = f
            if native and canon.encode_words(rec.disks) != key:
                problems.append(("representative", "not the canonical words of its class"))
            acyclic = algebra.is_acyclic(f)
            if not acyclic:
                problems.append(("acyclic", "record is not acyclic"))
            elif rec.acyclic is False:
                problems.append(("acyclic", "derived True"))
            flags, spine, pi1 = _derived_claims(f, coset_cap, acyclic)
            if rec.flags and len(rec.flags) != len(flags):
                problems.append(
                    ("flags", f"stored {len(rec.flags)} pairs for {len(flags)} disks")
                )
            elif rec.flags:
                for d, (want, got) in enumerate(zip(rec.flags, flags)):
                    if want != got:
                        problems.append(
                            (
                                f"disk {d + 1} flags",
                                f"stored {_yn(want)} derived {_yn(got)}",
                            )
                        )
            if rec.spine is not None and spine != rec.spine:
                problems.append(("spine", f"derived {spine}"))
            if rec.pi1 is not None and pi1 is not None and pi1 != rec.pi1:
                problems.append(("pi1", f"stored {rec.pi1} derived {pi1}"))
        if problems:
            for fieldname, detail in problems:
                report["mismatches"].append(
                    {"record": n, "field": fieldname, "got": detail}
                )
        else:
            report["verified"] += 1
    report["sign_flip_merges"] = find_sign_flip_merges(distinct)
    return report


def _yn(flags: tuple[bool, bool]) -> str:
    return "".join("Y" if b else "N" for b in flags)
