"""The benchmark's workloads: inputs from a seed, one timed round, checks.

A workload object has
  make_inputs(seed)              set-up work, before timing starts;
  run(inputs, jobs, out_dir)     one timed round through the public API;
  check(inputs, output, tracer)  the output checks, as a Report;
  fingerprint(output)            what a traced and an untraced round must
                                 agree on;
  output_bytes(output)           bytes the round wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

import checks
from fakesurfaces import algebra, canon, formats, pipeline, skeleta, topology
from fakesurfaces.surfaces import Surface


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # every failure, by line
    correct: bool = True  # False when a whole-output property fails

    def operation(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def whole(self, ok: bool, problem: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# complexity-4 classification runs


class Classify4:
    """classify(4, ...) into a fresh output directory; one operation per
    skeleton classified.  The inputs are the options alone: there is nothing
    to draw from the seed."""

    complexity = 4

    def __init__(self, jobs: int, min_disk_len: int = 1, skeleton_indices=None,
                 published=None):
        self.jobs = jobs
        self.min_disk_len = min_disk_len
        self.skeleton_indices = skeleton_indices
        self.published = published or {}  # skeleton index -> printed class count

    def make_inputs(self, seed: int):
        return None

    def run(self, inputs, jobs: int, out_dir: str) -> str:
        pipeline.classify(
            self.complexity,
            min_disk_len=self.min_disk_len,
            jobs=jobs,
            out_dir=out_dir,
            skeleton_indices=self.skeleton_indices,
        )
        return out_dir

    def _surfaces_path(self, out_dir: str) -> str:
        return os.path.join(out_dir, f"surfaces_t{self.complexity}.jsonl")

    def fingerprint(self, out_dir: str) -> str:
        with open(self._surfaces_path(out_dir), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def output_bytes(self, out_dir: str) -> int:
        return sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
        )

    def check(self, inputs, out_dir: str, tracer=None) -> Report:
        report = Report()
        by_skeleton: dict[int, list[dict]] = {}
        with open(self._surfaces_path(out_dir), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                by_skeleton.setdefault(rec["skeleton"]["index"], []).append(rec)
        indices = self.skeleton_indices or [
            s.index for s in skeleta.enumerate_skeleta(self.complexity)
        ]
        report.whole(set(by_skeleton) <= set(indices),
                     f"records for unrequested skeleta {sorted(by_skeleton)}")
        for index in indices:
            s = skeleta.skeleton_by_index(self.complexity, index)
            records = by_skeleton.get(index, [])
            problems = []
            want = self.published.get(index)
            if want is not None and len(records) != want:
                problems.append(f"{len(records)} classes, published {want}")
            for n, rec in enumerate(records, start=1):
                problems += [f"class {n}: {p}"
                             for p in checks.record_problems(s, rec, self.min_disk_len)]
            keys = [canon.canonical_key(Surface(s, tuple(map(tuple, rec["disks"]))))
                    for rec in records]
            if len(set(keys)) != len(keys):
                problems.append(f"{len(keys) - len(set(keys))} repeated class keys")
            report.operation(f"skeleton {index}", problems)
        if tracer is not None:
            # every survivor lies in exactly one representative's orbit
            for index, survivors, members in tracer.reduce_audit:
                report.whole(members == survivors,
                             f"skeleton {index}: orbits cover {members} "
                             f"of {survivors} survivors")
        return report


# ---------------------------------------------------------------------------
# certifying scrambled copies of the printed reference listings

# presentations with known orders, and the order each must close at
PRESENTATIONS = (
    ("a,b|abbab^-1,a", 1),
    ("a|a^5", 5),
    ("a,b|a^2,b^3,(ab)^2", 6),
    ("i,j|i^4,i^2j^-2,j^-1iji", 8),
    ("x,y|x^5y^-3,y^3(xy)^-2", 120),  # binary icosahedral
)


@dataclass
class ListingInputs:
    rows: list  # printed ListingRow per reference row
    sources: list  # (skeleton, words in the package's orientation convention)
    copies: list  # (row number, scrambled words), row-major, `copies` per row
    presentations: list  # (text, Presentation, known order)


def scramble(rng: random.Random, s, words, symmetries) -> tuple:
    """A random rewrite of a word system that keeps its class: a germ
    symmetry, then per word a rotation and maybe a reversal, a disk shuffle,
    and sign flips of a random set of edges."""
    words = symmetries[rng.randrange(len(symmetries))].apply_words(s, words)
    out = []
    for w in words:
        if rng.random() < 0.5:
            w = tuple(-x for x in reversed(w))
        k = rng.randrange(len(w))
        out.append(w[k:] + w[:k])
    rng.shuffle(out)
    flipped = {e for e in range(1, s.n_edges + 1) if rng.random() < 0.5}
    return tuple(tuple(-x if abs(x) in flipped else x for x in w) for w in out)


class ListingCertify:
    """Certify each scrambled copy of every printed t <= 3 reference row the
    way `canon`, `verify` and `pi1` do, one at a time; then enumerate cosets
    of a few presentations with known finite orders.  One operation per copy
    and per presentation."""

    jobs = 1

    def __init__(self, copies: int):
        self.copies = copies

    def make_inputs(self, seed: int) -> ListingInputs:
        rng = random.Random(seed)
        rows = [r for t in (1, 2, 3) for r in formats.load_reference_listing(t)]
        sources = []
        copies = []
        for n, row in enumerate(rows):
            s = skeleta.skeleton_by_index(row.complexity, row.skeleton_index)
            words = formats.normalize_orientations(s, row.disks)
            symmetries = canon.germ_symmetries(s)
            sources.append((s, words))
            copies += [(n, scramble(rng, s, words, symmetries))
                       for _ in range(self.copies)]
        presentations = [(text, algebra.parse_presentation(text), order)
                         for text, order in PRESENTATIONS]
        return ListingInputs(rows, sources, copies, presentations)

    def run(self, inputs: ListingInputs, jobs: int, out_dir: str) -> tuple:
        certified = []
        for n, words in inputs.copies:
            s = inputs.sources[n][0]
            f = Surface(s, formats.normalize_orientations(s, words))
            certified.append((
                f.disks,
                canon.canonical_key(f),
                tuple(topology.disk_flags(f)),
                algebra.pi1_trivial(f).status,
            ))
        verdicts = [algebra.coset_enumerate(p) for _, p, _ in inputs.presentations]
        return tuple(certified), tuple((v.status, v.order) for v in verdicts)

    def fingerprint(self, output) -> str:
        return hashlib.sha256(repr(output).encode()).hexdigest()

    def output_bytes(self, output) -> int:
        return 0

    def check(self, inputs: ListingInputs, output, tracer=None) -> Report:
        report = Report()
        certified, verdicts = output
        source_keys = [canon.canonical_key(Surface(s, w)) for s, w in inputs.sources]
        report.whole(len(set(source_keys)) == len(inputs.rows),
                     f"{len(set(source_keys))} distinct keys over "
                     f"{len(inputs.rows)} printed rows")
        printed = [sorted((len(w), fl) for w, fl in zip(row.disks, row.flags))
                   for row in inputs.rows]
        for (n, _), (disks, key, flags, pi1) in zip(inputs.copies, certified):
            s = inputs.sources[n][0]
            problems = checks.surface_problems(s, disks)
            if key != source_keys[n]:
                problems.append("key differs from the printed row's key")
            if sorted(zip(map(len, disks), flags)) != printed[n]:
                problems.append("derived flags differ from the printed flags")
            if pi1 != "trivial":
                problems.append(f"pi1 {pi1}")
            report.operation(f"row {n + 1} copy", problems)
        for (text, _, order), (status, got) in zip(inputs.presentations, verdicts):
            want = "trivial" if order == 1 else "finite"
            problems = [] if (status, got) == (want, order) else [
                f"{status} of order {got}, expected order {order}"]
            report.operation(f"<{text}>", problems)
        return report


WORKLOADS = {
    "t4-named": Classify4(jobs=1, skeleton_indices=[2, 9], published={2: 1171, 9: 35}),
    "t4-nosmall": Classify4(jobs=2, min_disk_len=3),
    "listing-certify": ListingCertify(copies=4),
}
