"""End-to-end classification: enumerate, filter, quotient, flag, certify.

Every skeleton's gluing space is scanned in fixed prefix ranges (share 1 of
1 of the plan below), acyclic survivors are collected packed, one byte per
edge, and the reducer quotients them by the germ symmetries.  The scan is
one explicit-stack DFS kernel (surfaces.enumerate_surfaces): it builds each
curve's boundary row as its path closes, skips a child near the end when no
completion can close the curves still needed, stops before the last two
edges and looks both edges' closures up per pairing of their open path
ends; both tables are built by one edge-gluing step and cached per
skeleton, so a leaf costs one determinant (algebra.det_bareiss, a compiled
straight-line formula at these sizes) and no word is traced.

A run's scan is one task stream: every scanned skeleton's prefix ranges,
one task each, in skeleton order, run in this process at jobs=1 and in a
pool of worker processes otherwise.  While a run has at least `jobs`
skeleta to scan, the pool takes the stream one skeleton's tasks per chunk,
so each skeleton goes whole to one worker, which builds that skeleton's
kernel tables once; a run of fewer skeleta is split in smaller chunks (see
_scan_stream).  This process reduces each skeleton as its results arrive
while the workers scan up to `jobs` skeleta ahead.  A skeleton's survivors
are its ranges' survivors in range order, packed one byte per edge, and
the reduce reads them packed: the early-abort canonicity test
(canon.orbit_minima) keeps each survivor no germ symmetry maps below
itself, the minimum of its orbit and the representative of one class, and
orbit-stabilizer accounting checks that the classes' orbits hold exactly
the survivors.  Words are traced only for the representatives.  That
orbit is the only quotient applied.
Flags, the spine rule and the pi1 verdict of a class are derived by one
helper that verify_file shares.  The published, coarser sign-flip key
(canon.canonical_key) is computed per class right after each skeleton's
reduce and never merges anything: the pairs of classes it would merge,
always over one skeleton, are reported (ClassificationResult.sign_flip_merges,
the manifest, verify_file).  Orbits never cross the survivor set's
boundary, so the classes, their representatives and all derived data are
independent of the share plan, the chunks and the job count; output files
are byte-identical across runs.

Results persist per complexity in out_dir: one JSON-lines part file per
skeleton, surfaces_t{t}_g{i}.jsonl, where each record is serialized once
(formats.SurfaceRecord.to_json); the combined file surfaces_t{t}.jsonl,
which is the run's part files concatenated byte for byte in skeleton
order; and a manifest with options, a fingerprint of the package's sources
and the content hashes of every part and of the combined file.  Skeletons
already present in a manifest of the same options and code, with a part
file of the recorded hash, are loaded, not scanned, on resume.

One plan splits every scan: share k of an m-share sweep of a skeleton is
share_prefixes(s, k, m), at least SHARE_TASKS prefix ranges whatever the
job count, one scan task each; classify scans share 1 of 1.  A scan too
long for one run splits into a k-of-m sweep: scan_share writes a shard
file per skeleton whose header holds the scan options, source fingerprint,
skeleton, k, m and seconds.  classify takes each skeleton from the
manifest, else from a complete sweep of matching shard files, read as its
scan-task results, one per file, else from a scan, and decides which
before the stream starts; both go to classify_skeleton.  A skeleton's
seconds, in the manifest and in shard headers, are the summed times of its
scan tasks, measured where they ran, plus (in the manifest) its reduce.
load_census reads a finished run without a disk-length filter back for the
tables.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import Pool

from . import algebra, canon, topology
from .formats import (IngestError, SurfaceRecord, file_format, ingest_row, iter_records,
                      read_records)
from .skeleta import Skeleton, enumerate_skeleta, skeleton_by_index, skeleton_stats
from .surfaces import Surface, enumerate_surfaces, trace_gluing

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

    @property
    def spine_percent(self) -> float:
        """round(100 * spines / total, 1), recomputed from the raw integers;
        0.0 for no surfaces."""
        return round(100 * self.spines / self.total, 1) if self.total else 0.0

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


def _timed_scan(args) -> tuple[bytes, float]:
    """Worker: the survivors of one scan task, packed one byte per edge,
    and the seconds it took.  They stay packed up to the reduce (Packed):
    a tuple per survivor takes over ten times the memory."""
    started = time.perf_counter()
    survivors = bytes(itertools.chain.from_iterable(_scan_shard(args)))
    return survivors, time.perf_counter() - started


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


def _scan_stream(plans, min_disk_len: int, pool: Pool | None, jobs: int):
    """The scan of a run as one task stream over plans, a list of
    (skeleton, prefixes), in plan order: yields one iterator per plan over
    the (packed survivors, seconds) of its scan tasks (_timed_scan).

    Without a pool the tasks run here as the iterators are consumed.  In
    the pool a plan's tasks are submitted as the consumer takes the plan
    `jobs` places before it: the workers scan ahead while the consumer
    reduces, and hold at most `jobs` skeleta of results it has not taken.
    With at least `jobs` plans each skeleton's tasks are one chunk, so it
    goes whole to one worker, which builds its kernel tables once.  With
    fewer the skeleta must be split, and chunks of ceil(tasks / (4 jobs)),
    Pool.map's own size, balance their uneven prefix ranges; a worker keeps
    a skeleton's tables over consecutive chunks of it."""
    if len(plans) >= jobs:
        chunk = max(len(prefixes) for _, prefixes in plans)
    else:
        chunk = -(-sum(len(prefixes) for _, prefixes in plans) // (4 * jobs))

    def submit(s: Skeleton, prefixes):
        tasks = [(s.complexity, s.index, min_disk_len, p) for p in prefixes]
        if pool is None:
            return map(_timed_scan, tasks)
        return pool.imap(_timed_scan, tasks, chunksize=chunk)

    submitted: deque = deque()
    for plan in plans:
        submitted.append(submit(*plan))
        if len(submitted) > jobs:
            yield submitted.popleft()
    yield from submitted


class Packed:
    """Configurations packed one byte per edge, as scan tasks return them:
    a sized collection whose items are n_edges-byte slices."""

    def __init__(self, data: bytes, n_edges: int):
        self.data, self.n_edges = data, n_edges

    def __len__(self) -> int:
        return len(self.data) // self.n_edges

    def __iter__(self):
        d, n = self.data, self.n_edges
        return map(d.__getitem__, map(slice, range(0, len(d), n), range(n, len(d) + n, n)))


def _gather(s: Skeleton, scans) -> tuple[Packed, float]:
    """The survivors of skeleton s's scan-task results, joined in their
    order (the reduce does not depend on it), and their summed seconds."""
    packed, seconds = [], 0.0
    for found, took in scans:
        packed.append(found)
        seconds += took
    return Packed(b"".join(packed), s.n_edges), seconds


def _check_options(t: int = 1, jobs: int = 1, min_disk_len: int = 1,
                   coset_cap: int = algebra.DEFAULT_COSET_CAP) -> None:
    """Refuse an option below 1 before anything is scanned, read or written."""
    for name, value in (("complexity", t), ("jobs", jobs), ("min_disk_len", min_disk_len),
                        ("coset_cap", coset_cap)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")


def classify_skeleton(
    s: Skeleton, scans, coset_cap: int = algebra.DEFAULT_COSET_CAP
) -> tuple[list[SurfaceRecord], float]:
    """Classify all acyclic surfaces over one skeleton from its scan-task
    results, (packed survivors, seconds) pairs: its slice of the run's scan
    stream (see _scan_stream), or the shard files of a complete sweep
    (_read_sweep).  Consume them, then reduce.  Returns the records, which
    are deterministic, and the seconds they cost: the scan tasks' own
    times, as measured where they ran, plus the reduce."""
    survivors, seconds = _gather(s, scans)
    started = time.perf_counter()
    records = reduce_survivors(s, survivors, coset_cap)
    return records, seconds + time.perf_counter() - started


def scan_share(t: int, k: int, m: int, out_dir: str, min_disk_len: int = 1,
               jobs: int = 1, progress=None) -> None:
    """Scan share k of a k-of-m sweep of every skeleton of complexity t and
    persist its survivors under out_dir for classify(t, out_dir=out_dir) to
    merge.  Share k of skeleton s is share_prefixes(s, k, m), SHARE_TASKS
    scan tasks or more.  The shares of all skeleta form one task stream,
    run as in classify.  A shard header's seconds are the summed times of
    the skeleton's scan tasks."""
    _check_options(t, jobs, min_disk_len)
    if not 1 <= k <= m:
        raise ValueError(f"share {k} of {m} is outside 1 <= k <= m")
    manifest = _Manifest(out_dir, t, min_disk_len)
    plans = [(s, share_prefixes(s, k, m)) for s in enumerate_skeleta(t)]
    with (Pool(jobs) if jobs > 1 else nullcontext()) as pool:
        for (s, _), scans in zip(plans, _scan_stream(plans, min_disk_len, pool, jobs)):
            survivors, seconds = _gather(s, scans)
            manifest.store_share(s, k, m, survivors, seconds)
            if progress is not None:
                progress(s, survivors)


def reduce_survivors(
    s: Skeleton, survivors, coset_cap: int = algebra.DEFAULT_COSET_CAP
) -> list[SurfaceRecord]:
    """Quotient survivor configurations by the germ symmetries and derive
    flags and certificates for one representative per class.

    survivors is a sized collection of configurations, tuples or Packed,
    which the scan made closed under the symmetries.  Every orbit is one
    class, represented by the words its minimal configuration traces;
    canon.orbit_minima finds the minima without holding the survivors in
    a set.  Orbit-stabilizer accounting checks the quotient: the classes'
    orbits must hold exactly as many configurations as survivors.  The
    published, coarser sign-flip quotient (canon.canonical_key) is not
    applied here; see find_sign_flip_merges.
    """
    minima = canon.orbit_minima(s, survivors)
    members = sum(len(canon.config_orbit(s, cfg)) for cfg in minima)
    if members != len(survivors):
        raise AssertionError(
            f"orbit escapes the survivor set: the orbits of {len(minima)} minima hold "
            f"{members} configurations, the survivors {len(survivors)}; "
            f"shard scan incomplete?"
        )
    records = []
    for cfg in minima:
        words = canon.normalize_words(trace_gluing(s, cfg))
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

    With out_dir, results persist incrementally per skeleton and a matching
    interrupted run resumes where it stopped.  Before any scan starts, each
    skeleton is assigned a source: the manifest, else a complete scan_share
    sweep of matching shard files in out_dir, else a scan as share 1 of 1.
    The skeleta to scan form one task stream (_scan_stream), in this
    process at jobs=1, else in a pool of `jobs` workers, where each
    skeleton goes whole to one worker when there are at least `jobs`
    skeleta to scan.  Skeleta are then taken in index order, each from the
    manifest or from classify_skeleton, given a swept one's shard files as
    its scan-task results or a scanned one's slice of the stream, while the
    workers scan later ones.  Each skeleton's classes get
    their published sign-flip key right after they are reduced or loaded.
    """
    _check_options(t, jobs, min_disk_len, coset_cap)
    skeleta = enumerate_skeleta(t)
    if skeleton_indices is not None:
        wanted = set(skeleton_indices)
        unknown = sorted(wanted - {s.index for s in skeleta})
        if unknown:
            raise ValueError(f"unknown skeleton indices {unknown}: t={t} has {len(skeleta)}")
        skeleta = tuple(s for s in skeleta if s.index in wanted)
    result = ClassificationResult(t)

    manifest = None
    loaded, sweeps = set(), {}
    if out_dir is not None:
        manifest = _Manifest(out_dir, t, min_disk_len, coset_cap)
        loaded = {s.index for s in skeleta if manifest.has_skeleton(s.index)}
        if len(loaded) < len(skeleta):
            sweeps = manifest.complete_sweeps()
    plans = [(s, share_prefixes(s, 1, 1)) for s in skeleta
             if s.index not in loaded and s.index not in sweeps]

    with (Pool(jobs) if jobs > 1 and plans else nullcontext()) as pool:
        scans = _scan_stream(plans, min_disk_len, pool, jobs)
        for s in skeleta:
            if s.index in loaded:
                records = manifest.load_skeleton(s.index)
            else:
                found = _read_sweep(s, sweeps[s.index]) if s.index in sweeps else next(scans)
                records, seconds = classify_skeleton(s, found, coset_cap)
                if manifest is not None:
                    manifest.store_skeleton(s.index, records, seconds)
            result.sign_flip_merges += find_sign_flip_merges(
                enumerate((r.surface() for r in records), start=result.total + 1))
            if progress is not None:
                progress(s, records)
            result.records.extend(records)
    if manifest is not None:
        manifest.finalize(result, [s.index for s in skeleta])
    return result


def load_census(out_dir: str, t: int) -> ClassificationResult:
    """The finished classify(t) run persisted in out_dir, for the census
    tables.  Raises ValueError naming the complexity when there is none, or
    when its manifest does not describe the surface file, or records a
    min_disk_len other than 1 or a subset of the skeleta: a filtered run is
    not the census; and naming the manifest when it is not a JSON object."""
    path = os.path.join(out_dir, f"surfaces_t{t}.jsonl")
    manifest = os.path.join(out_dir, f"manifest_t{t}.json")
    if not (os.path.exists(path) and os.path.exists(manifest)):
        raise ValueError(f"missing classification for complexity {t} ({path}); "
                         f"run classify first")
    state = _read_manifest(manifest)
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


def _read_manifest(path: str) -> dict:
    """The JSON object of a manifest file, else ValueError("<path>: ...")."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(state, dict):
        raise ValueError(f"{path}: not a JSON object")
    return state


def find_sign_flip_merges(numbered) -> list[tuple[int, int]]:
    """Pairs (first, later) of record numbers, read from (record number,
    surface) pairs, whose surfaces lie over one skeleton and in one
    published sign-flip class (canon.canonical_key).

    The classifier keeps such classes apart, since the sign-flip quotient
    can merge non-homeomorphic surfaces; this reports what the published
    quotient would have merged.
    """
    first_of_class: dict[tuple, int] = {}
    merges = []
    for n, f in numbered:
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
    and the shard files of k-of-m sweeps.  An existing manifest that is not
    a JSON object is refused (ValueError naming it), not overwritten."""

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
            prev = _read_manifest(self.path)
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

    def complete_sweeps(self) -> dict[int, list[tuple[str, float]]]:
        """Per skeleton index, the (path, scan seconds) of the shard files
        of a complete k-of-m sweep under these scan options; nothing is read
        but the headers.  The plan is read from the headers; every complete
        plan of a skeleton has the same survivors, and the one with the
        fewest shares is taken."""
        plans: dict = {}  # skeleton -> m -> k -> (path, seconds)
        names = os.listdir(self.shard_dir) if os.path.isdir(self.shard_dir) else ()
        for name in names:
            if name.endswith(".txt"):
                path = os.path.join(self.shard_dir, name)
                header = _shard_header(path)
                g, k, m, seconds = (header.pop(key) for key in ("skeleton", "k", "m", "seconds"))
                if header == self.scan_options:
                    plans.setdefault(g, {}).setdefault(m, {})[k] = (path, seconds)
        sweeps = {}
        for g, by_m in plans.items():
            for m, shares in sorted(by_m.items()):
                if set(shares) == set(range(1, m + 1)):
                    sweeps[g] = [shares[k] for k in range(1, m + 1)]
                    break
        return sweeps

    def finalize(self, result: ClassificationResult, indices: list[int]) -> None:
        """Write the combined file: the part files of indices, each stored
        or loaded by this run, concatenated byte for byte in that order."""
        combined = os.path.join(self.dir, f"surfaces_t{self.t}.jsonl")
        tmp = combined + ".tmp"
        with open(tmp, "wb") as fh:
            for index in indices:
                with open(self._part_path(index), "rb") as part:
                    shutil.copyfileobj(part, fh)
        os.replace(tmp, combined)
        self.state["combined"] = {
            "skeletons": indices,
            "surfaces": result.total,
            "sha256": _sha256(combined),
            "sign_flip_merges": [list(pair) for pair in result.sign_flip_merges],
        }
        self._write()

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.state, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _read_sweep(s: Skeleton, shares):
    """The shard files of one complete sweep of skeleton s, as
    _Manifest.complete_sweeps lists them, read as its scan tasks' results:
    yields one (packed survivors, scan seconds) per file, as _timed_scan
    gives one per task.  store_share writes each file in ascending order; a
    bad line, or one not above the line before (a duplicated or reordered
    line), fails with its number."""
    for path, seconds in shares:
        previous, survivors = (), bytearray()
        with open(path, encoding="utf-8") as fh:
            next(fh)  # the header
            for n, line in enumerate(fh, start=2):
                try:
                    cfg = tuple(int(x) for x in line.split(","))
                except ValueError as exc:
                    raise ValueError(f"{path}:{n}: {exc}") from None
                if len(cfg) != s.n_edges or min(cfg) < 0 or max(cfg) > 5:
                    raise ValueError(f"{path}:{n}: not a configuration of {s.n_edges} edges")
                if cfg <= previous:
                    raise ValueError(f"{path}:{n}: configuration not above the line before; "
                                     f"a shard file is strictly ascending")
                previous = cfg
                survivors += bytes(cfg)
        yield survivors, seconds


def _shard_header(path: str) -> dict:
    """The header store_share writes: a JSON object with integer skeleton,
    k and m and numeric seconds, else ValueError with the file and line."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        header = json.loads(first.removeprefix("# "))
        if (all(type(header[key]) is int for key in ("skeleton", "k", "m"))
                and type(header["seconds"]) in (int, float)):
            return header
    except (KeyError, TypeError, ValueError):
        pass
    raise ValueError(f"{path}:1: not a shard file header")


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

    The percentage column is ClassificationResult.spine_percent; the raw
    fraction is printed alongside.
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
        row += [str(r.total), f"{r.spine_percent}", f"{r.spines}/{r.total}"]
        lines.append("\t".join(row))
    return "\n".join(lines)


def _skeleton_stat_table(max_complexity: int, stat: str, columns=None) -> str:
    """Skeleta of complexity 1..max_complexity counted by skeleton_stats
    value `stat`: a row per complexity, a column per value in columns
    (default 0 up to the largest value counted), then the total."""
    counts = [Counter(skeleton_stats(s)[stat] for s in enumerate_skeleta(t))
              for t in range(1, max_complexity + 1)]
    if columns is None:
        columns = range(max((max(c) + 1 for c in counts), default=0))
    lines = ["\t".join(["t", *map(str, columns), "total"])]
    for t, c in enumerate(counts, start=1):
        row = [t, *(c.get(k, 0) for k in columns), sum(c.values())]
        lines.append("\t".join(map(str, row)))
    return "\n".join(lines)


def emit_table2(max_complexity: int) -> str:
    """Skeleta by complexity and number of self-loops."""
    return _skeleton_stat_table(max_complexity, "self_loops")


def emit_table3(max_complexity: int) -> str:
    """Skeleta by length of the shortest cycle."""
    return _skeleton_stat_table(max_complexity, "girth", (1, 2, 3))


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
                "percent": r.spine_percent,
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
    for it.  A record that does not ingest gets one mismatch, named by the
    check formats.ingest_row found failing: `validity` for words that
    cannot be of the record's complexity (found before any skeleton is
    enumerated) or fit its skeleton in no orientation, naming the violation
    of the words as stored, and `skeleton` for a skeleton that does not
    exist.  Records are checked as they are read, and mismatches are
    collected, not raised; a parse error aborts with its line number.
    """
    _check_options(coset_cap=coset_cap)
    native = file_format(path) == "native"
    report = {"records": 0, "mismatches": [], "verified": 0}
    first_of_class: dict[tuple, int] = {}  # (complexity, skeleton, key) -> record
    distinct: list[tuple[int, Surface]] = []  # (n, f) of the first valid record of a class
    for n, rec in enumerate(iter_records(path), start=1):
        report["records"] = n
        problems = []
        try:
            f = ingest_row(rec)
        except IngestError as exc:
            problems.append((exc.field, str(exc)))
        else:
            key = canon.geometric_key(f)
            first = first_of_class.setdefault((rec.complexity, rec.skeleton_index, key), n)
            if first != n:
                problems.append(("duplicate", f"same class as record {first}"))
            else:
                distinct.append((n, f))
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
