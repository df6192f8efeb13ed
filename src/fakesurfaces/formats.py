"""Text formats: reference listings, native records, and ingestion.

Two line-oriented formats are supported, and both parse to one record
type, SurfaceRecord; read_records reads a file in either, chosen by its
first record line, and iter_records yields its records as it reads them.

Reference listing format (the published classification tables):

    <complexity> <skeleton index> | <word> : <Y> <N> | <word> : ...

one surface per line, each disk a space-separated run of signed edge labels
followed by its two printed flags (embedded, trivial triod bundle).  The
package bundles the complexity 1..3 listings under data/.

Published rows do not follow a single edge-orientation rule: different
skeleta orient their non-loop edges differently.  Ingestion therefore solves
each record's incidence structure, matches it onto the canonical skeleton,
and negates the letters of every edge whose printed orientation disagrees
with the tail = higher vertex convention used here.  The matching is unique
up to a graph automorphism, which the canonical form quotients out.
ingest_row is the one path from a record to a Surface, and the one order
of its checks; a failure is an IngestError naming the failed check
(skeleton or validity), and words that fit their skeleton in no
orientation fail with one message, "<kind>: <detail>", naming the
violation of the words as given.

Native record format: one JSON object per line with fields
{skeleton: {complexity, index}, disks, flags, acyclic, spine, pi1}, written
by SurfaceRecord.to_json, which pipeline calls once per record.
SurfaceRecord.from_json reads acyclic and spine as null, true or false, and
pi1 as null, "trivial", "inconclusive" or "finite:<digits>" (the order of a
finite group); any other value fails naming its field.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from importlib import resources

from .skeleta import Skeleton, skeleton_by_index
from .surfaces import Surface, Word, letter_violation, validate_words


def parse_listing_line(line: str) -> SurfaceRecord:
    """One listing row as a record with its printed flags."""
    head, _, rest = line.partition("|")
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"bad listing header {head!r}")
    complexity, index = int(parts[0]), int(parts[1])
    disks = []
    flags = []
    for chunk in rest.split("|"):
        word_s, _, flag_s = chunk.partition(":")
        word = tuple(int(x) for x in word_s.split())
        fl = flag_s.split()
        if len(fl) != 2 or any(c not in "YN" for c in fl):
            raise ValueError(f"bad flags {flag_s!r}")
        disks.append(word)
        flags.append((fl[0] == "Y", fl[1] == "Y"))
    return SurfaceRecord(complexity, index, tuple(disks), tuple(flags))


def format_listing_line(row: SurfaceRecord) -> str:
    chunks = [
        " ".join(str(x) for x in w)
        + " : "
        + " ".join("Y" if b else "N" for b in fl)
        for w, fl in zip(row.disks, row.flags)
    ]
    return f"{row.complexity} {row.skeleton_index} | " + " | ".join(chunks)


def parse_listing(text: str) -> list[SurfaceRecord]:
    return list(_parse_lines(text.splitlines(), parse_listing_line))


def load_reference_listing(complexity: int) -> list[SurfaceRecord]:
    """The bundled published classification for complexity 1, 2 or 3."""
    if complexity not in (1, 2, 3):
        raise ValueError("reference listings cover complexities 1..3")
    text = (
        resources.files("fakesurfaces.data")
        .joinpath(f"listing_c{complexity}.txt")
        .read_text()
    )
    return parse_listing(text)


# ---------------------------------------------------------------------------
# orientation normalization


def _incidence_classes(disks, n_edges: int) -> dict[tuple[str, int], int]:
    """Union germ placeholders (end, edge) that must share a vertex."""
    parent: dict = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for w in disks:
        n = len(w)
        for k in range(n):
            x, y = w[k], w[(k + 1) % n]
            union(
                ("H", abs(x)) if x > 0 else ("T", abs(x)),
                ("T", abs(y)) if y > 0 else ("H", abs(y)),
            )
    keys = [(end, e) for e in range(1, n_edges + 1) for end in "TH"]
    reps = sorted({find(k) for k in keys})
    rep_id = {r: i for i, r in enumerate(reps)}
    return {k: rep_id[find(k)] for k in keys}


def normalize_orientations(s: Skeleton, disks) -> tuple[Word, ...]:
    """Rewrite a word system with unknown per-edge orientations into the
    canonical convention of skeleton s, negating flipped edges.

    Raises ValueError("<kind>: <detail>") naming the validate_words
    violation of the words as given when they fit the skeleton in no
    orientation.
    """
    disks = tuple(tuple(w) for w in disks)
    given = validate_words(s, disks)
    if given:
        return disks
    failure = f"{given.kind}: {given.detail}"
    cls = _incidence_classes(disks, s.n_edges)
    t = s.complexity
    if max(cls.values()) + 1 != t:  # not one vertex per 4 germs
        raise ValueError(failure)
    for phi in itertools.permutations(range(t)):
        ok = True
        for e in range(1, s.n_edges + 1):
            tc, hc = phi[cls[("T", e)]], phi[cls[("H", e)]]
            tv, hv = s.edges[e - 1]
            if {tc, hc} != {tv, hv}:
                ok = False
                break
        if not ok:
            continue
        flip = [False] * (s.n_edges + 1)
        for e in range(1, s.n_edges + 1):
            tv, hv = s.edges[e - 1]
            if tv != hv:
                flip[e] = phi[cls[("T", e)]] != tv
        new = tuple(
            tuple((-x if flip[abs(x)] else x) for x in w) for w in disks
        )
        if validate_words(s, new):
            return new
    raise ValueError(failure)  # no vertex matching reconciles the words


class IngestError(ValueError):
    """A record that does not ingest; field names the check it failed,
    "skeleton" or "validity"."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def ingest_row(row: SurfaceRecord) -> Surface:
    """A record as a Surface in canonical conventions; only its complexity,
    skeleton_index and disks are read.  The checks run in one order, and
    the first that fails raises IngestError: "validity" with "<kind>:
    <detail>" when the letters cannot be of the complexity (checked before
    any skeleton is enumerated, see letter_violation), "skeleton" when the
    skeleton does not exist, and "validity" when the words fit the skeleton
    in no orientation."""
    v = letter_violation(row.complexity, row.disks)
    if v is not None:
        raise IngestError("validity", f"{v.kind}: {v.detail}")
    try:
        s = skeleton_by_index(row.complexity, row.skeleton_index)
    except ValueError as exc:
        raise IngestError("skeleton", str(exc)) from None
    try:
        return Surface(s, normalize_orientations(s, row.disks))
    except ValueError as exc:
        raise IngestError("validity", str(exc)) from None


# ---------------------------------------------------------------------------
# native records

_FLAG_PAIRS = [[a, b] for a in "YN" for b in "YN"]
_PI1 = re.compile(r"trivial|inconclusive|finite:[0-9]+")


def _is_int(x) -> bool:
    return type(x) is int  # JSON true and false are not letters or indices


@dataclass
class SurfaceRecord:
    complexity: int
    skeleton_index: int
    disks: tuple[Word, ...]
    flags: tuple[tuple[bool, bool], ...] = ()  # (embedded, t_trivial) per disk
    acyclic: bool | None = None
    spine: bool | None = None
    pi1: str | None = None  # "trivial" | "finite:<n>" | "inconclusive"

    def to_json(self) -> str:
        return json.dumps(
            {
                "skeleton": {"complexity": self.complexity, "index": self.skeleton_index},
                "disks": [list(w) for w in self.disks],
                "flags": [["Y" if b else "N" for b in fl] for fl in self.flags],
                "acyclic": self.acyclic,
                "spine": self.spine,
                "pi1": self.pi1,
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(line: str) -> "SurfaceRecord":
        """Parse one native record line; a malformed field raises ValueError
        (or KeyError for a missing one) naming it."""
        d = json.loads(line)
        sk = d.get("skeleton") if isinstance(d, dict) else None
        if not (isinstance(sk, dict)
                and _is_int(sk.get("complexity")) and _is_int(sk.get("index"))):
            raise ValueError(f"skeleton {sk!r} is not {{complexity, index}} integers")
        disks = d["disks"]
        if not (isinstance(disks, list)
                and all(isinstance(w, list) and all(map(_is_int, w)) for w in disks)):
            raise ValueError(f"disks {disks!r} are not lists of integer letters")
        flags = d.get("flags", [])
        if not (isinstance(flags, list) and all(fl in _FLAG_PAIRS for fl in flags)):
            raise ValueError(f"flags {flags!r} are not [embedded, bundle] pairs of Y or N")
        for name in ("acyclic", "spine"):
            if type(d.get(name)) not in (type(None), bool):
                raise ValueError(f"{name} {d.get(name)!r} is not null, true or false")
        pi1 = d.get("pi1")
        if not (pi1 is None or isinstance(pi1, str) and _PI1.fullmatch(pi1)):
            raise ValueError(f"pi1 {pi1!r} is not null, \"trivial\", \"inconclusive\" "
                             "or \"finite:<digits>\"")
        return SurfaceRecord(
            complexity=sk["complexity"],
            skeleton_index=sk["index"],
            disks=tuple(tuple(w) for w in disks),
            flags=tuple((fl[0] == "Y", fl[1] == "Y") for fl in flags),
            acyclic=d.get("acyclic"),
            spine=d.get("spine"),
            pi1=pi1,
        )

    def surface(self) -> Surface:
        s = skeleton_by_index(self.complexity, self.skeleton_index)
        return Surface(s, self.disks)


def detect_format(first_line: str) -> str:
    return "native" if first_line.lstrip().startswith("{") else "listing"


def file_format(path) -> str:
    """detect_format of a surface file's first record line."""
    with open(path, encoding="utf-8") as fh:
        first = next((l for l in fh if l.strip() and not l.lstrip().startswith("#")), "")
    return detect_format(first)


def _parse_lines(lines, parse=None):
    """Yield the records of lines as they are read, skipping blank and #
    comment lines, each read by parse: by default the parser of the first
    record line's format.  A parse error carries its line number."""
    for n, l in enumerate((line.strip() for line in lines), start=1):
        if not l or l.startswith("#"):
            continue
        if parse is None:
            parse = SurfaceRecord.from_json if detect_format(l) == "native" else parse_listing_line
        try:
            record = parse(l)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"line {n}: {exc}") from exc
        yield record


def iter_records(path):
    """Yield the records of a surface file in either format as they are
    read; parse errors carry line numbers."""
    with open(path, encoding="utf-8") as fh:
        yield from _parse_lines(fh)


def read_records(path) -> list[SurfaceRecord]:
    return list(iter_records(path))
