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
skeleton.  The group acts on gluing configurations; geometric_form traces
the minimal configuration in the orbit, normalizes every word over
rotations and reflection, and sorts the list.  Equal geometric forms
characterize homeomorphism of labeled surfaces.

canonical_form quotients by a slightly larger group that also negates all
occurrences of any single edge as a pure string move, matching the move
list the reference classification was reduced with; see the note above
_letter_tables.  The classifier's reduce and dedupe below both quotient by
configuration orbits alone (the geometric quotient).  The published
quotient is a cross-check that merges nothing: classify and verify report
any two classes it would merge, and at complexity 4 and below it merges
none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .skeleta import Skeleton, edge_relabelings
from .surfaces import (
    GluingConfig,
    S3,
    S3_INDEX,
    Surface,
    Word,
    reconstruct_config,
    trace_gluing,
)


def _letter_key(x: int) -> tuple[int, int]:
    # order letters 1 < -1 < 2 < -2 < ...
    return (abs(x), 0 if x > 0 else 1)


def _word_key(w: Word) -> tuple:
    return (len(w), tuple(_letter_key(x) for x in w))


def normalize_word(w) -> Word:
    """Minimal representative over all rotations of the word and of its
    reversal with negated letters; idempotent."""
    w = tuple(w)
    if not w:
        raise ValueError("empty word")
    rev = tuple(-x for x in reversed(w))
    best = None
    for base in (w, rev):
        n = len(base)
        doubled = base + base
        for i in range(n):
            cand = doubled[i : i + n]
            if best is None or _word_key(cand) < _word_key(best):
                best = cand
    return best


def normalize_words(words) -> tuple[Word, ...]:
    """Normalize each word and sort the list by length, then letters."""
    return tuple(sorted((normalize_word(w) for w in words), key=_word_key))


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
    """The full move group (1)+(2): every edge relabeling combined with
    every subset of loop reversals."""
    loops = [e for e, (tv, hv) in enumerate(s.edges) if tv == hv]
    base = []
    for rel in edge_relabelings(s):
        germ_map = [0] * (4 * s.complexity)
        for e in range(s.n_edges):
            e2 = rel.perm[e]
            if rel.flip[e]:
                germ_map[s.edge_tail_germ[e]] = s.edge_head_germ[e2]
                germ_map[s.edge_head_germ[e]] = s.edge_tail_germ[e2]
            else:
                germ_map[s.edge_tail_germ[e]] = s.edge_tail_germ[e2]
                germ_map[s.edge_head_germ[e]] = s.edge_head_germ[e2]
        base.append((rel.perm, germ_map))
    out = []
    for perm, germ_map in base:
        for mask in range(1 << len(loops)):
            gm = list(germ_map)
            for k, l in enumerate(loops):
                if mask >> k & 1:
                    # reverse the image loop after relabeling
                    l2 = perm[l]
                    a, b = s.edge_tail_germ[l2], s.edge_head_germ[l2]
                    for g in range(len(gm)):
                        if gm[g] == a:
                            gm[g] = b
                        elif gm[g] == b:
                            gm[g] = a
            out.append(GermSymmetry(tuple(perm), tuple(gm)))
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


def transform_config(s: Skeleton, sym_index: int, config: GluingConfig) -> GluingConfig:
    table = _config_transforms(s)[sym_index]
    syms = germ_symmetries(s)
    perm = syms[sym_index].edge_perm
    out = [0] * len(config)
    for e, pi in enumerate(config):
        out[perm[e]] = table[e][pi]
    return tuple(out)


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


def canonical_config(s: Skeleton, config: GluingConfig) -> GluingConfig:
    return min(config_orbit(s, config))


def geometric_form(f: Surface) -> tuple[Word, ...]:
    """Canonical word list modulo homeomorphism: trace the minimal
    configuration in the germ-symmetry orbit, normalize every word, sort.
    Equal geometric forms characterize homeomorphic labeled surfaces."""
    config = reconstruct_config(f.skeleton, f.disks)
    best = canonical_config(f.skeleton, config)
    return normalize_words(trace_gluing(f.skeleton, best))


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


@lru_cache(maxsize=None)
def _letter_tables(s: Skeleton) -> tuple[dict[int, int], ...]:
    """One letter map per distinct edge permutation of the relabeling group.

    The relabelings' flip vectors are left out: any pattern of edge
    orientations is absorbed by the sign group that _min_signed_list
    minimizes over."""
    return tuple(
        {sign * (e + 1): sign * (e2 + 1) for e, e2 in enumerate(perm) for sign in (1, -1)}
        for perm in sorted({rel.perm for rel in edge_relabelings(s)})
    )


def _min_signed_list(words, n_edges: int, bound=None):
    """Minimize the sorted word list (after per-word rotation/reversal) over
    all per-edge sign assignments, exactly.  Letters come out as codes
    2*|x| + (x < 0), which order like _letter_key.

    The list is built one word (level) at a time, shortest words first.
    Signs are chosen greedily: the first undecided edge met in a candidate
    alignment is set to make its letter positive, which is lexicographically
    optimal because a letter's first occurrence dominates later ones.  Every
    candidate at a level has the same length, so only the states whose word
    equals the level minimum can lead to the minimal list; ties between
    alignments that force different sign commitments branch.

    bound is a list already found (for another edge permutation): the
    search returns None as soon as a level minimum exceeds the bound's word
    at that level, and stops comparing once a level minimum is below it.
    """
    words = tuple(sorted(words, key=lambda w: (len(w), w)))
    # state: (signs indexed by edge number, 0 undecided, +1 kept, -1 negated;
    # remaining words, sorted so duplicate words collapse into one branch)
    states = {((0,) * (n_edges + 1), words): None}
    out = []
    for level in range(len(words)):
        best = bound[level] if bound is not None else None
        tied = False  # whether best is a candidate found at this level
        choices: dict = {}
        for signs, remaining in states:
            n = len(remaining[0])
            for pos, w in enumerate(remaining):
                if len(w) > n:
                    break
                if pos > 0 and w == remaining[pos - 1]:
                    continue  # identical word, identical candidates
                rest = remaining[:pos] + remaining[pos + 1 :]
                for variant in (w, tuple(-x for x in reversed(w))):
                    doubled = variant + variant
                    for r in range(n):
                        # resolve the alignment's letters to codes, setting
                        # each undecided edge so its first letter is positive
                        cutoff, new_signs, codes = best, None, []
                        for i in range(r, r + n):
                            x = doubled[i]
                            e = x if x > 0 else -x
                            sign = signs[e] if new_signs is None else new_signs[e]
                            code = 2 * e if sign == 0 or (x > 0) == (sign > 0) else 2 * e + 1
                            if cutoff is not None:
                                if code > cutoff[i - r]:
                                    break  # most alignments lose at once
                                if code < cutoff[i - r]:
                                    cutoff = None
                            if sign == 0:
                                if new_signs is None:
                                    new_signs = list(signs)
                                new_signs[e] = 1 if x > 0 else -1
                            codes.append(code)
                        else:
                            val = tuple(codes)
                            if not tied or val < best:
                                best, tied = val, True
                                choices = {}
                            key = signs if new_signs is None else tuple(new_signs)
                            choices[(key, rest)] = None
        if not tied:
            return None  # every candidate exceeds the bound's word
        if bound is not None and best < bound[level]:
            bound = None
        out.append(best)
        states = choices
    return tuple(out)


def canonical_form(f: Surface) -> tuple[Word, ...]:
    """Minimum over the published move group: edge relabelings, sign flips
    of every edge, word rotation/reversal, disk reorder.

    The minimizing sign pattern need not preserve validity, so the returned
    list is a key, not necessarily an attachable word system; use
    geometric_form for a valid representative.
    """
    s = f.skeleton
    best = None
    for table in _letter_tables(s):
        mapped = [tuple(table[x] for x in w) for w in f.disks]
        cand = _min_signed_list(mapped, s.n_edges, best)
        if cand is not None:
            best = cand
    return tuple(tuple(-(c >> 1) if c & 1 else c >> 1 for c in w) for w in best)


def canonical_key(f: Surface) -> bytes:
    """Stable byte encoding of the canonical form."""
    return encode_words(canonical_form(f))


def dedupe(surfaces) -> list[Surface]:
    """One representative per homeomorphism class (geometric_key), sorted by
    key: the quotient the classifier applies.

    All surfaces must share one skeleton.  The representative kept for each
    class is its geometric form, the words the classifier stores for it.
    """
    seen: dict[bytes, Surface] = {}
    skeleton = None
    for f in surfaces:
        if skeleton is None:
            skeleton = f.skeleton
        elif f.skeleton is not skeleton and f.skeleton != skeleton:
            raise ValueError("dedupe expects surfaces over a single skeleton")
        form = geometric_form(f)
        seen.setdefault(encode_words(form), Surface(f.skeleton, form))
    return [seen[k] for k in sorted(seen)]
