"""Canonical representatives of fake surfaces modulo the relabeling moves.

Two word systems over the same canonical skeleton present homeomorphic
surfaces when they differ by:

  (1) a relabeling of the edges induced by a graph automorphism, including
      permutations inside parallel-edge bundles;
  (2) reversing the orientation of a self-loop (negate all its letters; a
      non-loop edge's orientation is pinned by the vertex order convention,
      so reversing it is a pure re-coordinatization with no effect on the
      stored words);
  (3)/(4) rotating a word or writing it backwards with inverted letters;
  plus reordering of the disk list.

Moves (1) and (2) together form the finite group of germ symmetries of the
skeleton, built in one place, germ_symmetries, from the skeleton's vertex
automorphisms (skeleta.automorphisms).  The group acts on gluing
configurations; geometric_form traces the minimal configuration in the
orbit, normalizes every word over rotations and reflection, and sorts the
list.  Equal geometric forms
characterize homeomorphism of labeled surfaces.  Words compare as bytes
of letter codes 2*|x| + (x < 0), which order letters 1 < -1 < 2 < -2 < ...
and hold letters up to 127 in absolute value.

canonical_form quotients by a slightly larger group that also negates all
occurrences of any single edge as a pure string move, matching the move
list the reference classification was reduced with; see the note above
_letter_tables.  It is one exact search over every edge permutation at
once (_min_signed_list), run over bytes: a word is a bytes string of its
letter codes, and each edge permutation and each partial sign assignment
is a 256-byte translate table.  The codes and the bound above them must
fit a byte (2 * n_edges + 3 <= 255), so the key refuses skeleta of more
than 126 edges (complexity above 63).  The classifier's reduce quotients by
configuration orbits alone (the geometric quotient): orbit_minima keeps the
survivors no germ symmetry maps below themselves, by the early-abort
canonicity test of orderly generation, one per orbit.  Surfaces are
deduped by comparing their geometric_key.  The published quotient is a cross-check
that merges nothing: classify and verify report any two classes it would
merge, and it merges none at complexity 4 and below nor among the 111,460
classes of complexity 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .skeleta import Skeleton, automorphisms
from .surfaces import (
    GluingConfig,
    S3,
    S3_INDEX,
    Surface,
    Word,
    reconstruct_config,
    trace_gluing,
)


_XOR1 = bytes(c ^ 1 for c in range(256))  # a code to its edge's other code


def _encode(w) -> bytes:
    return bytes(2 * x if x > 0 else 1 - 2 * x for x in w)


def _decode(codes) -> Word:
    return tuple(-(c >> 1) if c & 1 else c >> 1 for c in codes)


def _openings(w: bytes) -> tuple[int, list[bytes]]:
    """A code word's smallest first code over its alignments (rotations of
    the word and of its negated reversal) and the alignments that open with
    that code's edge; the least alignment is among them."""
    n = len(w)
    low = min(w) & -2
    ww = w + w
    rr = ww[::-1].translate(_XOR1)  # w's letter i, negated, is letter n - 1 - i here
    aligned = []
    for c in (low, low | 1):
        i = w.find(c)
        while i >= 0:
            aligned += ww[i : i + n], rr[n - 1 - i : 2 * n - 1 - i]
            i = w.find(c, i + 1)
    return low, aligned


def _min_rotation(w) -> bytes:
    if not w:
        raise ValueError("empty word")
    return min(_openings(_encode(w))[1])


def normalize_word(w) -> Word:
    """Minimal representative over all rotations of the word and of its
    reversal with negated letters; idempotent."""
    return _decode(_min_rotation(w))


def normalize_words(words) -> tuple[Word, ...]:
    """Normalize each word and sort the list by length, then letters."""
    return tuple(map(_decode, sorted(sorted(map(_min_rotation, words)), key=len)))


# ---------------------------------------------------------------------------
# germ symmetries


@dataclass(frozen=True)
class GermSymmetry:
    """A symmetry of the labeled skeleton: an edge-label permutation plus a
    compatible map of germs (loop reversals give germ maps that are not
    induced by any vertex move)."""

    edge_perm: tuple[int, ...]
    germ_map: tuple[int, ...]

    def apply_letter(self, s: Skeleton, x: int) -> int:
        e = abs(x) - 1
        e2 = self.edge_perm[e]
        src = s.edge_tail_germ[e] if x > 0 else s.edge_head_germ[e]
        return (e2 + 1) if self.germ_map[src] == s.edge_tail_germ[e2] else -(e2 + 1)

    def apply_words(self, s: Skeleton, words) -> tuple[Word, ...]:
        return tuple(tuple(self.apply_letter(s, x) for x in w) for w in words)


@lru_cache(maxsize=None)
def germ_symmetries(s: Skeleton) -> tuple[GermSymmetry, ...]:
    """The full move group (1)+(2), built in one pass over the vertex
    automorphisms (skeleta.automorphisms): under each, every cell of
    parallel edges goes onto its image cell in every order, a non-loop
    edge's ends follow its vertices, and each loop is kept or reversed.
    Loop reversals are the innermost choice, the first loop's fastest:
    orbit_minima tries the symmetries in this order."""
    cells: dict[tuple[int, int], list[int]] = {}  # in label order, each a run of labels
    for e, (tv, hv) in enumerate(s.edges):
        cells.setdefault((hv, tv), []).append(e)  # head = lower vertex
    loops = [e for e, (tv, hv) in enumerate(s.edges) if tv == hv]
    tail, head, edges = s.edge_tail_germ, s.edge_head_germ, s.edges
    out = []
    for p in automorphisms(s.matrix):
        img = [0] * len(p)  # p maps position k to old vertex p[k]: img is its inverse
        for k, v in enumerate(p):
            img[v] = k
        orders = [itertools.permutations(cells[tuple(sorted((img[a], img[b])))])
                  for a, b in cells]
        for choice in itertools.product(*orders, *[(False, True)] * len(loops)):
            reverse = dict(zip(reversed(loops), choice[len(cells):]))
            edge_perm = [0] * s.n_edges
            germ_map = [0] * (4 * s.complexity)
            for e, e2 in enumerate(itertools.chain.from_iterable(choice[:len(cells)])):
                edge_perm[e] = e2
                tv, hv = edges[e]
                if reverse[e] if tv == hv else img[tv] != edges[e2][0]:
                    germ_map[tail[e]], germ_map[head[e]] = head[e2], tail[e2]
                else:
                    germ_map[tail[e]], germ_map[head[e]] = tail[e2], head[e2]
            out.append(GermSymmetry(tuple(edge_perm), tuple(germ_map)))
    return tuple(out)


@lru_cache(maxsize=None)
def _config_transforms(s: Skeleton):
    """For each germ symmetry, a table mapping (edge, sheet permutation) to
    the image edge's sheet permutation, so configurations transform with one
    lookup per edge."""
    tables = []
    for sym in germ_symmetries(s):
        per_edge = []
        for e in range(s.n_edges):
            e2 = sym.edge_perm[e]
            t_slots, h_slots = s.end_slots[e]
            t2, h2 = s.end_slots[e2]
            swap_ends = sym.germ_map[s.edge_tail_germ[e]] != s.edge_tail_germ[e2]
            row = []
            for p in S3:
                pairs = []
                for i in range(3):
                    x, y = t_slots[i], h_slots[p[i]]
                    gx, gy = sym.germ_map[x], sym.germ_map[y]
                    pairs.append((gy, gx) if swap_ends else (gx, gy))
                mapping = dict(pairs)
                perm2 = tuple(h2.index(mapping[g]) for g in t2)
                row.append(S3_INDEX[perm2])
            per_edge.append(tuple(row))
        tables.append(tuple(per_edge))
    return tuple(tables)


def config_orbit(s: Skeleton, config: GluingConfig) -> set[GluingConfig]:
    """All configurations reachable by the move group (the group is closed,
    so one application of every element suffices)."""
    tables = _config_transforms(s)
    syms = germ_symmetries(s)
    orbit = set()
    for table, sym in zip(tables, syms):
        out = [0] * len(config)
        perm = sym.edge_perm
        for e, pi in enumerate(config):
            out[perm[e]] = table[e][pi]
        orbit.add(tuple(out))
    return orbit


def orbit_minima(s: Skeleton, configs) -> list[GluingConfig]:
    """The configurations in configs that no germ symmetry maps to a
    lexicographically smaller one, as tuples in the order of configs: one
    per orbit that configs holds a minimum of.

    The early-abort canonicity test of orderly generation: each symmetry's
    image is compared with the configuration edge by edge, in image order,
    and the comparison stops at the first difference.  Positions a symmetry
    never changes are skipped, and so is the identity.  A symmetry that
    rejects a configuration is tried first on the next one, which in scan
    order mostly shares its prefix.  configs is a sized collection of
    configurations (tuples, or bytes of one index per edge); the tests are
    built per call, and only when it is not empty.
    """
    if not configs:
        return []
    unchanged = tuple(range(len(S3)))
    tests = {}
    for sym, table in zip(germ_symmetries(s), _config_transforms(s)):
        source = {e2: e for e, e2 in enumerate(sym.edge_perm)}
        steps = tuple((j, source[j], table[source[j]]) for j in range(s.n_edges)
                      if source[j] != j or table[j] != unchanged)
        if steps:
            tests[steps] = None
    tests = list(tests)
    minima = []
    for cfg in configs:
        for k, steps in enumerate(tests):
            for j, e, row in steps:
                image, own = row[cfg[e]], cfg[j]
                if image != own:
                    break
            else:
                continue  # the symmetry fixes cfg
            if image < own:
                if k:  # try it first from now on: neighbours share prefixes
                    tests[0], tests[k] = steps, tests[0]
                break
        else:
            minima.append(tuple(cfg))
    return minima


def geometric_form(f: Surface) -> tuple[Word, ...]:
    """Canonical word list modulo homeomorphism: trace the minimal
    configuration in the germ-symmetry orbit, normalize every word, sort.
    Equal geometric forms characterize homeomorphic labeled surfaces."""
    s = f.skeleton
    best = min(config_orbit(s, reconstruct_config(s, f.disks)))
    return normalize_words(trace_gluing(s, best))


def geometric_key(f: Surface) -> bytes:
    return encode_words(geometric_form(f))


def encode_words(words) -> bytes:
    return ";".join(",".join(str(x) for x in w) for w in words).encode()


# ---------------------------------------------------------------------------
# the published move group: sign flips on every edge
#
# Negating all occurrences of a NON-loop edge does not preserve word
# validity under a fixed orientation convention (the arrival and departure
# vertices of its neighbors stop matching), so flipping it is not induced by
# any homeomorphism; the geometric quotient above only flips loops.  The
# published classification nevertheless reduces modulo sign flips of every
# edge, treated as a pure string operation, which merges a handful of
# genuinely non-homeomorphic surfaces.  canonical_form implements exactly
# that coarser quotient so keys can be compared with the published listings.


_UNDECIDED = bytes(256)  # the sign table before any edge is decided


@lru_cache(maxsize=None)
def _letter_tables(s: Skeleton) -> tuple[bytes, ...]:
    """One translate table per distinct edge permutation of the germ
    symmetries, from letter codes 2|x| + (x < 0) to the codes of the
    permuted letters.

    How the symmetries map each edge's two ends is left out: any pattern of
    edge orientations is absorbed by the sign group that _min_signed_list
    minimizes over."""
    tables = []
    for perm in sorted({sym.edge_perm for sym in germ_symmetries(s)}):
        table = bytearray(256)
        for e, e2 in enumerate(perm):
            table[2 * e + 2], table[2 * e + 3] = 2 * e2 + 2, 2 * e2 + 3
        tables.append(bytes(table))
    return tuple(tables)


def _min_signed_list(lists, n_edges: int) -> tuple[bytes, ...]:
    """The minimal sorted code-word list over all edge permutations (one
    word list each, with one length multiset), per-edge sign assignments
    and word rotations and reversals, exactly.

    Words are bytes of letter codes 2|x| + (x < 0), so codes and the bound
    above them, 2 * n_edges + 2, must fit a byte: beyond 126 edges
    (2 * n_edges + 3 > 255) this raises ValueError.  One search runs level
    by level, one word per level, shortest words first, from one state
    (sign table, remaining words) per permutation.  A sign table is a
    256-byte translate table from each letter code to its code under the
    signs chosen so far, 0 while the edge is undecided, so one
    bytes.translate reads an alignment under it and the table is its own
    hashable state key.  All candidates at a level have one length, so each
    level keeps only the states reaching the minimum word across all
    states; ties that commit different signs branch.  An undecided edge met
    in an alignment is set so its first letter there is positive, which is
    optimal because a first occurrence dominates.

    First-letter cut: an alignment opens with its edge's even code unless
    the edge is decided the other way, so a word's smallest first code is
    its smallest edge's.  A word whose smallest first code exceeds the
    level's best word so far is skipped; only alignments opening with that
    edge are built (_openings).  A one-letter word reads as its edge's even
    code under either sign, so it leaves the edge undecided: the edge's
    next first occurrence picks the sign greedily, the minimum of both
    choices.
    """
    if 2 * n_edges + 3 > 255:
        raise ValueError(f"{n_edges} edges: letter codes do not fit a byte")
    states = {(_UNDECIDED, tuple(sorted(sorted(ws), key=len))): None for ws in lists}
    openings: dict = {}  # word -> _openings(word), for this call only
    out = []
    for _ in range(len(lists[0])):
        remaining = next(iter(states))[1]
        n = len(remaining[0])
        shortest = sum(1 for w in remaining if len(w) == n)
        best = bytes((2 * n_edges + 2,))  # above every code word
        choices: dict = {}
        for table, remaining in states:
            for pos in range(shortest):
                w = remaining[pos]
                if pos > 0 and w == remaining[pos - 1]:
                    continue  # identical word, identical candidates
                if w not in openings:
                    openings[w] = _openings(w)
                low, aligned = openings[w]
                if low > best[0]:
                    continue
                rest = remaining[:pos] + remaining[pos + 1 :]
                if n == 1:
                    if low < best[0]:
                        best, choices = bytes((low,)), {}
                    choices[(table, rest)] = None
                    continue
                for seq in aligned:
                    if table[seq[0]] & 1:
                        continue  # opens with the odd code
                    val, key = seq.translate(table), table
                    if 0 in val:
                        new = bytearray(table)
                        for c in seq:
                            if not new[c]:
                                new[c], new[c ^ 1] = c & -2, c | 1
                        key = bytes(new)
                        val = seq.translate(key)
                    if val < best:
                        best, choices = val, {}
                    elif val > best:
                        continue
                    choices[(key, rest)] = None
        out.append(best)
        states = choices
    return tuple(out)


def canonical_form(f: Surface) -> tuple[Word, ...]:
    """Minimum over the published move group: edge relabelings, sign flips
    of every edge, word rotation/reversal, disk reorder.

    One joint search covers every edge permutation (_min_signed_list).
    The minimizing sign pattern need not preserve validity, so the returned
    list is a key, not necessarily an attachable word system; use
    geometric_form for a valid representative.
    """
    s = f.skeleton
    words = list(map(_encode, f.disks))
    lists = [[w.translate(table) for w in words] for table in _letter_tables(s)]
    return tuple(map(_decode, _min_signed_list(lists, s.n_edges)))


def canonical_key(f: Surface) -> bytes:
    """Stable byte encoding of the canonical form."""
    return encode_words(canonical_form(f))
