"""Disk systems over a skeleton and the gluing search that generates them.

A fake surface over a skeleton is a list of disk boundary words.  A word is a
cyclic sequence of signed edge labels: +e traverses edge e tail to head, -e
the other way.  Validity is local:

  type 1: every edge is traversed exactly three times in total, so three
          half-planes meet along each open edge;
  type 2: at every vertex the disk boundaries pass through each of the six
          sectors spanned by pairs of germs exactly once, realizing the cone
          on the tetrahedron 1-skeleton.

Instead of searching words directly, the enumeration searches gluings: along
each edge the three sheets can be matched between the two ends in 3! ways,
and the vertex model is rigid, so a choice of one 3-permutation per edge
determines the whole boundary curve system.  Both singularity conditions
hold for every gluing by construction; the fake surfaces we keep are the
gluings with exactly t+1 boundary curves (Euler characteristic 1).  The
scan kernel, enumerate_surfaces, yields each of them with its curves'
boundary rows over the non-tree edges, the square matrix whose determinant
decides acyclicity; it traces no word.  trace_gluing gives a gluing's words
when they are needed.

A sheet slot at an edge end is named by the germ it faces: the sheet of edge
a lying in the sector {a, x} at a vertex is the slot x.  A strand arriving
at a vertex on edge a in slot x crosses the sector {a, x} and leaves on the
edge of germ x in slot a.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from .skeleta import Skeleton, boundary_columns

# the six permutations of three sheet slots, in the fixed mixed-radix order
# used to index gluing configurations
S3 = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)
S3_INDEX = {p: i for i, p in enumerate(S3)}
# per permutation its sheets, (tail node, head node) from an edge's first
# node; every (p, q) pair of two edges' permutations, in mixed-radix order
_SHEETS = tuple(tuple((i, 3 + x) for i, x in enumerate(p)) for p in S3)
_PAIRS = tuple((p, q) for p in range(6) for q in range(6))

Word = tuple[int, ...]
GluingConfig = tuple[int, ...]


class MalformedWordError(ValueError):
    """A letter pair whose arrival and departure vertices disagree."""


@dataclass(frozen=True)
class Valid:
    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Violation:
    kind: str  # "syntax" | "type-1" | "type-2" | "disk-count"
    detail: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Surface:
    """A skeleton together with its disk boundary words."""

    skeleton: Skeleton
    disks: tuple[Word, ...]

    @property
    def complexity(self) -> int:
        return self.skeleton.complexity


def arrival_germ(s: Skeleton, letter: int) -> int:
    """Germ at which a traversal of `letter` ends."""
    e = abs(letter) - 1
    return s.edge_head_germ[e] if letter > 0 else s.edge_tail_germ[e]


def departure_germ(s: Skeleton, letter: int) -> int:
    """Germ at which a traversal of `letter` starts."""
    e = abs(letter) - 1
    return s.edge_tail_germ[e] if letter > 0 else s.edge_head_germ[e]


def _check_letters(n_edges: int, words) -> None:
    for w in words:
        if len(w) == 0:
            raise MalformedWordError("empty disk word")
        for x in w:
            if x == 0 or abs(x) > n_edges:
                raise MalformedWordError(f"letter {x} is not an edge of the skeleton")


def _count_violation(n_edges: int, words) -> Violation | None:
    counts = [0] * n_edges
    for w in words:
        for x in w:
            counts[abs(x) - 1] += 1
    for e, c in enumerate(counts):
        if c != 3:
            return Violation("type-1", f"edge {e + 1} occurs {c} times, not 3")
    return None


def letter_violation(t: int, words) -> Violation | None:
    """The violation of a complexity-t word system that shows over every
    skeleton of complexity t, found without one: a letter beyond the 2t
    edges (syntax) or an edge not traversed exactly three times (type-1),
    so that the words do not have 6t letters.  None if there is none."""
    try:
        _check_letters(2 * t, words)
    except MalformedWordError as exc:
        return Violation("syntax", str(exc))
    return _count_violation(2 * t, words)


def corners_of(words, s: Skeleton) -> dict[int, list[tuple[int, int]]]:
    """Corners (sorted germ pairs) per vertex, one per cyclically adjacent
    letter pair.  A single-letter word pairs its letter with itself.

    Raises MalformedWordError when consecutive letters do not meet at a
    common vertex.
    """
    _check_letters(s.n_edges, words)
    out: dict[int, list[tuple[int, int]]] = {v: [] for v in range(s.complexity)}
    for wi, w in enumerate(words):
        n = len(w)
        for i in range(n):
            x, y = w[i], w[(i + 1) % n]
            a = arrival_germ(s, x)
            d = departure_germ(s, y)
            if a // 4 != d // 4:
                raise MalformedWordError(
                    f"disk {wi}: letters {x},{y} meet at different vertices"
                )
            out[a // 4].append((a, d) if a <= d else (d, a))
    return out


def validate_words(s: Skeleton, words) -> Valid | Violation:
    """Check the two singularity conditions and the disk count.

    Returns a Violation naming the first failed constraint; never raises for
    semantically bad input.
    """
    words = tuple(tuple(w) for w in words)
    try:
        corners = corners_of(words, s)
    except MalformedWordError as exc:
        return Violation("syntax", str(exc))

    violation = _count_violation(s.n_edges, words)
    if violation is not None:
        return violation

    for v, pairs in corners.items():
        germs = range(4 * v, 4 * v + 4)
        expected = {(a, b) for a, b in itertools.combinations(germs, 2)}
        got = sorted(pairs)
        if sorted(expected) != got:
            missing = expected.difference(got)
            return Violation(
                "type-2",
                f"vertex {v}: corner multiset {got} does not cover the six "
                f"sectors once each (missing or repeated: {sorted(missing)})",
            )

    if len(words) != s.complexity + 1:
        return Violation(
            "disk-count",
            f"{len(words)} disks, expected {s.complexity + 1}",
        )
    return Valid()


# ---------------------------------------------------------------------------
# gluing configurations and boundary tracing


def all_gluing_configs(s: Skeleton):
    """Every assignment of one sheet permutation per edge, 6^(2t) in all,
    in mixed-radix order (last edge varies fastest)."""
    return itertools.product(range(6), repeat=s.n_edges)


def trace_gluing(s: Skeleton, config: GluingConfig) -> tuple[Word, ...]:
    """Boundary curves of the gluing, each reported once.

    A curve is walked on the scan kernel's nodes (_vertex_matching): a
    strand entering edge e at node e*6 + end*3 + slot traverses e forward
    when end is 0, leaves at the node its sheet reaches at the other end,
    and crosses the vertex there to the node V[exit].  Deterministic: each
    curve starts at its smallest node not yet walked in either direction.
    """
    V = _vertex_matching(s)
    n_nodes = s.n_edges * 6
    across = [0] * n_nodes  # the other end of the sheet at each node
    for e, c in enumerate(config):
        p = S3[c]
        for i in range(3):
            a, b = 6 * e + i, 6 * e + 3 + p[i]
            across[a], across[b] = b, a
    visited = bytearray(n_nodes)
    words = []
    for start in range(n_nodes):
        if visited[start]:
            continue
        word = []
        node = start
        while True:
            exit_node = across[node]
            visited[node] = visited[exit_node] = 1
            e = node // 6 + 1
            word.append(e if node % 6 < 3 else -e)
            node = V[exit_node]
            if node == start:
                break
        words.append(tuple(word))
    return tuple(words)


def sheet_matchings(s: Skeleton, words) -> list[dict[int, int]]:
    """Recover each edge's sheets from a valid word system, as the matching
    of its tail-end slot germs to its head-end slot germs.

    Each traversal of an edge pins one sheet: the arrival germ of the
    previous letter is the slot at the entry end, the departure germ of the
    next letter the slot at the exit end.  Three traversals determine the
    matching.  Raises ValueError if the words are not a valid gluing.
    """
    words = tuple(tuple(w) for w in words)
    _check_letters(s.n_edges, words)
    pairs: list[dict[int, int]] = [dict() for _ in range(s.n_edges)]
    for w in words:
        n = len(w)
        for i in range(n):
            x = w[i]
            e = abs(x) - 1
            p = arrival_germ(s, w[i - 1])
            q = departure_germ(s, w[(i + 1) % n])
            tail_slot_germ, head_slot_germ = (p, q) if x > 0 else (q, p)
            if pairs[e].setdefault(tail_slot_germ, head_slot_germ) != head_slot_germ:
                raise ValueError(f"edge {e + 1}: sheets do not form a matching")
    for e in range(s.n_edges):
        if sorted(pairs[e]) != sorted(s.end_slots[e][0]):
            raise ValueError(f"edge {e + 1}: traversals do not cover all sheets")
    return pairs


def reconstruct_config(s: Skeleton, words) -> GluingConfig:
    """The gluing of a valid word system: each edge's sheet matching
    (sheet_matchings) as its S3 index.  Raises ValueError if the words are
    not a valid gluing."""
    config = []
    for (t_slots, h_slots), pairs in zip(s.end_slots, sheet_matchings(s, words)):
        config.append(S3_INDEX[tuple(h_slots.index(pairs[g]) for g in t_slots)])
    return tuple(config)


# ---------------------------------------------------------------------------
# the scan kernel: exhaustive enumeration with pruning


@lru_cache(maxsize=None)
def _vertex_matching(s: Skeleton) -> tuple[int, ...]:
    """Fixed pairing of sheet-slot nodes across each vertex.

    A node e*6 + end*3 + slot is the slot at one end of an edge; the node
    facing germ x from germ g is paired with the node facing g from x.
    Boundary curves are the cycles of this matching united with the per-edge
    sheet matchings, so partial gluings can be tracked as growing paths.
    """
    n_nodes = s.n_edges * 6
    V = [0] * n_nodes
    for e in range(s.n_edges):
        for end in range(2):
            g = s.edge_end_germ(e, head=bool(end))
            slots = s.end_slots[e][end]
            for slot, x in enumerate(slots):
                e2 = s.germ_edge[x]
                end2 = 1 if s.germ_is_head[x] else 0
                slot2 = s.end_slots[e2][end2].index(g)
                V[e * 6 + end * 3 + slot] = e2 * 6 + end2 * 3 + slot2
    return tuple(V)


@lru_cache(maxsize=1)
def _kernel_tables(s: Skeleton):
    """Per-skeleton constants of the scan kernel.

    An open path is kept as one packed integer per end: the number of sheets
    it uses in the low `shift` bits, and above them its signed traversal
    counts over the boundary columns (skeleta.boundary_columns), read from
    that end, one balanced base-16 digit per column (no curve crosses an
    edge more than three times, so digits stay within [-3, 3] and packed
    integers add like their vectors).  Returns (fwd, bwd, shift, tails,
    counts, rows): fwd[e] and bwd[e] pack one sheet of edge e crossed tail
    to head and head to tail; tails is the _TailTable of the last two edges
    and counts the _CountLookahead of the edges above them (both built by
    _glue), rows the _RowDecoder of the curves' rows.  Cached for one
    skeleton: the scan visits skeleta one at a time, so every prefix shard
    a process scans shares these tables and a worker holds one skeleton's.
    """
    columns = boundary_columns(s)
    shift = (3 * s.n_edges).bit_length()
    digit = {label: 16**j << shift for j, label in enumerate(columns)}
    fwd = tuple(digit.get(e + 1, 0) + 1 for e in range(s.n_edges))
    bwd = tuple(-digit.get(e + 1, 0) + 1 for e in range(s.n_edges))
    tails = _TailTable(6 * (s.n_edges - 2), fwd[-2:], bwd[-2:])
    counts = _CountLookahead(6 * s.n_edges, s.complexity + 1)
    # a connected skeleton has t+1 non-tree edges
    return fwd, bwd, shift, tails, counts, _RowDecoder(s.complexity + 1)


def _glue(end: list, base: int, sheets, paths=None, ahead=0, back=0) -> list:
    """Glue one edge's sheets (an entry of _SHEETS) onto the open paths in
    place, as the DFS of enumerate_surfaces does; return the curves closed.
    end[k] is the partner (absolute) of node base + k, the edge's six first.
    With paths (packed integers per path end, ahead/back a sheet's tail to
    head/head to tail) a curve is its packed integer, else None."""
    closed = []
    for a, b in sheets:
        ea = end[a] - base
        if ea == b:
            closed.append(paths[b] + ahead if paths else None)
        else:
            eb = end[b] - base
            if paths:
                paths[ea] += ahead + paths[b]
                paths[eb] += back + paths[a]
            end[ea], end[eb] = eb + base, ea + base
    return closed


class _TailTable(dict):
    """The curves the last two edges close, keyed by how the open paths pair
    those edges' twelve nodes (their partners, absolute, edge n-2 first).

    A value lists, by number of curves closed, the permutation pairs (p, q)
    in mixed-radix order, each with its curves in closing order; a curve is
    (nodes, constant), and its packed integer is the constant plus the
    packed path ends of those nodes.  Few of the 10,395 pairings occur on a
    skeleton, so an entry is built on first use: edge n-2 is glued (_glue)
    once per p and its state reused for the six q, on symbolic paths whose
    integers hold a bit per tail node summed (node base + k starts as
    1 << k) and the sheets' constant above those twelve bits.
    """

    def __init__(self, base: int, fwd: tuple[int, int], bwd: tuple[int, int]):
        super().__init__()
        self.base = base
        self.packed = tuple((f << 12, b << 12) for f, b in zip(fwd, bwd))
        # symbolic curve -> (nodes, constant); equal curves share one tuple
        self.curve = lru_cache(maxsize=None)(
            lambda v: (tuple(base + k for k in range(12) if v >> k & 1), v >> 12))

    def __missing__(self, key: tuple[int, ...]):
        base = self.base
        (ahead, back), (ahead2, back2) = self.packed
        curve = self.curve
        by_count: tuple[list, ...] = tuple([] for _ in range(7))
        for pi, p in enumerate(_SHEETS):
            end, sym = list(key), [1 << k for k in range(12)]
            first = _glue(end, base, p, sym, ahead, back)
            end, sym = end[6:], sym[6:]
            for q, pair in zip(_SHEETS, _PAIRS[6 * pi :]):
                curves = first + _glue(end[:], base + 6, q, sym[:], ahead2, back2)
                by_count[len(curves)].append((pair, tuple(map(curve, curves))))
        self[key] = by_count
        return by_count


# the number of edges just above the two-edge tail at which the DFS checks
# the _CountLookahead; measured at t=4 and t=5, two beat one and four
LOOKAHEAD_EDGES = 2


class _CountLookahead(dict):
    """Which permutations of an edge can still lead to exactly `target`
    curves, keyed by how the open paths pair the nodes of that edge and all
    later ones (end[6*e:] in the DFS, absolute node numbers).

    A value is indexed by the number c of curves closed before the edge; its
    entry is a bitmask over the six permutations p, with bit p set when some
    permutations of the later edges close target - c curves together with
    p's own.  It is built from pairings alone (_glue without paths):
    reach(key), the bitmask of curve counts the remaining edges can close,
    is the union over p of reach(key after p) shifted by the curves p
    closes, and reach(()) = {0}.  The six terms are memoized per key
    (self.totals), so no key is glued twice; the dict holds the keys the DFS
    met.  The condition is necessary, so the DFS can skip a child that fails
    it.
    """

    def __init__(self, n_nodes: int, target: int):
        super().__init__()
        self.n_nodes = n_nodes
        self.target = target
        self.totals: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}

    def _totals(self, key: tuple[int, ...]) -> tuple[int, ...]:
        # per permutation p of the key's first edge, reach(key after p) << closes
        if key not in self.totals:
            base = self.n_nodes - len(key)
            totals = []
            for p in _SHEETS:
                end = list(key)
                closes = len(_glue(end, base, p))
                totals.append(reduce(or_, self._totals(tuple(end[6:]))) << closes)
            self.totals[key] = tuple(totals)
        return self.totals[key]

    def __missing__(self, key: tuple[int, ...]) -> tuple[int, ...]:
        # count c before the edge needs bit target - c
        target = self.target
        allowed = [0] * (target + 1)
        for pi, total in enumerate(self._totals(key)):
            total &= (2 << target) - 1
            while total:
                k = total.bit_length() - 1
                allowed[target - k] |= 1 << pi
                total ^= 1 << k
        out = self[key] = tuple(allowed)
        return out


class _RowDecoder(dict):
    """Packed traversal counts (length bits shifted off) -> boundary row."""

    def __init__(self, n_cols: int):
        super().__init__()
        self.n_cols = n_cols

    def __missing__(self, v: int) -> tuple[int, ...]:
        digits = []
        rest = v
        for _ in range(self.n_cols):
            d = ((rest + 8) & 15) - 8
            digits.append(d)
            rest = (rest - d) >> 4
        row = self[v] = tuple(digits)
        return row


def enumerate_surfaces(s: Skeleton, min_disk_len: int = 1, prefix: GluingConfig = ()):
    """Yield (config, rows) for every gluing with exactly t+1 boundary
    curves, every curve of length at least min_disk_len, in mixed-radix
    order (last edge fastest).  rows holds one boundary row per curve over
    the skeleton's boundary columns (skeleta.boundary_columns), each row up
    to sign: the square matrix whose determinant decides acyclicity.  The
    curves' words are trace_gluing(s, config).

    One explicit-stack DFS walks the edges in label order.  Each depth keeps
    the open boundary paths: the other end of every path end, and a packed
    integer per end holding the path's length and its signed traversal
    counts over the boundary columns (see _kernel_tables).  Gluing an edge
    (the step _glue makes for the tables, inlined here) joins paths by
    adding their integers, and closing a curve yields its boundary row, so
    no curve is traced.  A branch dies as soon as it closes a short curve
    or t+1 curves.  On the LOOKAHEAD_EDGES edges just above the tail a child
    is skipped before it is glued when no permutations of the edges after
    it can close the curves still needed, per the skeleton's
    _CountLookahead; the cut is on counts alone, so the leaves are the
    same.  The DFS stops before the last two edges: there the open paths
    pair those edges' twelve nodes, and the curves each of the 36
    permutation pairs closes are looked up per pairing in the skeleton's
    _TailTable instead of walked.  With `prefix` the permutations of the
    first len(prefix) edges are pinned, which shards the search space into
    disjoint, deterministic ranges; a prefix may pin one or both tail edges.

    Duplicates modulo the relabeling moves are not removed here.
    """
    n_edges = s.n_edges
    if len(prefix) > n_edges:
        raise ValueError("prefix longer than the edge list")
    target = s.complexity + 1
    tail = n_edges - 2
    # the depths whose children the count lookahead filters
    look = max(0, tail - LOOKAHEAD_EDGES)
    fwd, bwd, shift, tails, counts, rows_of = _kernel_tables(s)
    mask = (1 << shift) - 1

    config = list(prefix) + [0] * (n_edges - len(prefix))
    choices = [(c, c) for c in prefix] + [(0, 5)] * (n_edges - len(prefix))
    # the permutations a prefix pins of one or both tail edges
    pins = tuple(prefix[tail:])
    # per depth: other end of each path end, packed paths, closed curves
    ends: list = [None] * n_edges
    paths: list = [None] * n_edges
    closed: list = [None] * n_edges
    ends[0] = list(_vertex_matching(s))
    paths[0] = [0] * (6 * n_edges)
    closed[0] = ()
    nxt = [c[0] for c in choices]
    # per depth: the children (bit per permutation) the count lookahead allows
    allowed = [0b111111] * n_edges
    if look == 0 < tail:
        allowed[0] = counts[tuple(ends[0])][0]

    e = 0
    while e >= 0:
        if e == tail:
            end, pk, done = ends[e], paths[e], closed[e]
            need = target - len(done)
            options = tails[tuple(end[6 * tail :])][need] if need <= 6 else ()
            if pins:
                options = [o for o in options if o[0][: len(pins)] == pins]
            head = tuple(config[:tail])
            for pair, curves in options:
                new = []
                for ks, x in curves:
                    for k in ks:
                        x += pk[k]
                    if (x & mask) < min_disk_len:
                        break
                    new.append(x)
                else:
                    yield head + pair, [rows_of[x >> shift] for x in done + tuple(new)]
            e -= 1
            continue
        pi = nxt[e]
        if pi > choices[e][1]:
            e -= 1
            continue
        nxt[e] = pi + 1
        if not allowed[e] >> pi & 1:
            continue
        config[e] = pi
        end = ends[e][:]
        pk = paths[e][:]
        done = closed[e]
        base = 6 * e
        p = S3[pi]
        ahead, back = fwd[e], bwd[e]
        for i in range(3):
            a = base + i
            b = base + 3 + p[i]
            if end[a] == b:
                x = pk[b] + ahead
                if (x & mask) < min_disk_len or len(done) + 1 >= target:
                    break
                done += (x,)
            else:
                ea, eb = end[a], end[b]
                pk[ea] += ahead + pk[b]
                pk[eb] += back + pk[a]
                end[ea] = eb
                end[eb] = ea
        else:
            e += 1
            ends[e], paths[e], closed[e] = end, pk, done
            nxt[e] = choices[e][0]
            if look <= e < tail:
                allowed[e] = counts[tuple(end[6 * e :])][len(done)]
