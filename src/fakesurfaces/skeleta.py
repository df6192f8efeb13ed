"""Connected 4-regular multigraphs serving as 1-skeleta of cellular fake surfaces.

A skeleton of complexity t is a connected multigraph on t vertices in which
every vertex has degree 4 (a self-loop counts twice).  We store it as a
symmetric adjacency matrix with even diagonal entries, where a[i][i] is twice
the number of self-loops at vertex i.

Vertex order is normalized by maximizing the "decimal representation" D(A),
the integer obtained by concatenating the rows of the matrix.  Skeleta of the
same complexity are ranked by decreasing D(A), which fixes the index i in the
name used throughout: the i-th skeleton of complexity t.

Edges are labeled 1..2t following the upper-right triangle of the canonical
matrix: cell (i,i) first, then (i,j) for j > i, rows top to bottom; parallel
edges in one cell get consecutive labels.  A non-loop edge is oriented from
its higher-indexed vertex to its lower-indexed one (tail = max, head = min);
for a self-loop the two germs at the vertex are designated tail and head in
construction order.  These conventions match the published surface listings,
which are only valid word systems under this orientation rule.

Every vertex carries exactly 4 germs (edge ends).  Germ ids are 4*v + k for
vertex v, assigned in edge-label order, a loop contributing its tail germ
then its head germ.

automorphisms lists a canonical matrix's vertex automorphisms; the
skeleton's move group (edge relabelings and loop reversals) is built from
them in one place, canon.germ_symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Matrix = tuple[tuple[int, ...], ...]


def decimal_rep(matrix) -> int:
    """Row-concatenation of a square matrix read as one decimal integer.

    All entries must be single digits (0..9); 4-regularity guarantees this.
    Leading zeros vanish in the integer, so D is only injective among
    matrices of equal size, which is how it is used.
    """
    n = len(matrix)
    total = 0
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, a in enumerate(row):
            if not 0 <= a <= 9:
                raise ValueError(f"entry {a} at ({i},{j}) is not a single digit")
            total += 10 ** (n * (n - 1 - i) + (n - 1 - j)) * a
    return total


def _permuted(matrix: Matrix, perm) -> Matrix:
    """The matrix with vertex i renamed to position k where perm[k] = i."""
    n = len(matrix)
    return tuple(
        tuple(matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )


def _max_perm_search(matrix: Matrix, collect_autos: bool = False):
    """Maximize the permuted matrix in row-major (= D) order.

    Returns (best_matrix, best_perm, autos) where autos is the list of
    permutations fixing best_matrix (only filled when collect_autos).

    The search assigns positions 0..n-1 in order.  While descending it can
    only compare the growing prefix of row 0 (earlier row-major cells than
    any other known cell), so rows 1.. are compared once the permutation is
    complete.  Branches whose row-0 prefix falls strictly below the current
    best are cut.
    """
    n = len(matrix)
    best: list = [None, None]
    autos: list[tuple[int, ...]] = []

    def descend(perm: list[int], used: list[bool]):
        d = len(perm)
        if best[0] is not None:
            # compare the known prefix of row 0 against the current best
            p0 = perm[0]
            for j in range(d):
                a, b = matrix[p0][perm[j]], best[0][0][j]
                if a < b:
                    return
                if a > b:
                    break
        if d == n:
            cand = _permuted(matrix, perm)
            if best[0] is None or cand > best[0]:
                best[0] = cand
                best[1] = tuple(perm)
                if collect_autos:
                    autos.clear()
                    autos.append(tuple(perm))
            elif collect_autos and cand == best[0]:
                autos.append(tuple(perm))
            return
        for v in range(n):
            if not used[v]:
                used[v] = True
                perm.append(v)
                descend(perm, used)
                perm.pop()
                used[v] = False

    descend([], [False] * n)
    return best[0], best[1], autos


def canonicalize_adjacency(matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Return the D-maximal simultaneous row/column permutation of a matrix.

    The witness permutation maps new position k to old vertex perm[k].
    Ties between permutations achieving the maximum are automorphisms and
    cannot change the returned matrix.
    """
    m = tuple(tuple(row) for row in matrix)
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("matrix must be square")
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix must be symmetric")
    best, perm, _ = _max_perm_search(m)
    return best, perm


def automorphisms(matrix: Matrix) -> list[tuple[int, ...]]:
    """All vertex permutations p with A[p[i]][p[j]] = A[i][j].

    The matrix must already be canonical (D-maximal).
    """
    best, _, autos = _max_perm_search(matrix, collect_autos=True)
    if best != matrix:
        raise ValueError("matrix is not in canonical form")
    return sorted(autos)


def _is_connected(matrix: Matrix) -> bool:
    n = len(matrix)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in range(n):
            if matrix[u][v] and not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def _candidate_matrices(n: int):
    """Generate symmetric degree-4 matrices satisfying cheap necessary
    conditions for canonicality; exact maximality is checked by the caller.

    Rows are filled top to bottom.  Within a block of columns that look
    identical in all earlier rows, entries of the current row must be
    non-increasing, otherwise swapping the two columns (a legal vertex
    transposition) would raise D.  Diagonal entries are even and never
    exceed a[0][0].
    """
    rows: list[list[int]] = [[0] * n for _ in range(n)]
    colsum = [0] * n

    def fill_row(i: int):
        if i == n:
            yield tuple(tuple(r) for r in rows)
            return
        fixed = sum(rows[k][i] for k in range(i))
        if fixed > 4:
            return
        max_diag = rows[0][0] if i > 0 else 4
        start = min(4 - fixed, max_diag)
        start -= start % 2
        for diag in range(start, -1, -2):
            rows[i][i] = diag
            rem = 4 - fixed - diag
            yield from fill_cell(i, i + 1, rem)
        rows[i][i] = 0

    def fill_cell(i: int, j: int, rem: int):
        if j == n:
            if rem == 0:
                yield from fill_row(i + 1)
            return
        # columns j-1 and j are interchangeable so far iff equal above row i
        same_class = j > i + 1 and all(rows[k][j] == rows[k][j - 1] for k in range(i))
        hi = min(rem, 4 - colsum[j])
        if same_class:
            hi = min(hi, rows[i][j - 1])
        for a in range(hi, -1, -1):
            rows[i][j] = rows[j][i] = a
            colsum[j] += a
            yield from fill_cell(i, j + 1, rem - a)
            colsum[j] -= a
        rows[i][j] = rows[j][i] = 0

    yield from fill_row(0)


@dataclass(frozen=True)
class Skeleton:
    """A canonical 1-skeleton with labeled, oriented edges and germ tables."""

    complexity: int
    index: int  # 1-based rank within the complexity class, decreasing D(A)
    matrix: Matrix
    edges: tuple[tuple[int, int], ...]  # (tail vertex, head vertex), 0-based
    edge_tail_germ: tuple[int, ...]
    edge_head_germ: tuple[int, ...]
    germ_edge: tuple[int, ...]
    germ_is_head: tuple[bool, ...]
    end_slots: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_end_germ(self, edge: int, head: bool) -> int:
        return self.edge_head_germ[edge] if head else self.edge_tail_germ[edge]


def build_skeleton(matrix: Matrix, complexity: int, index: int) -> Skeleton:
    """Assemble edge and germ tables for a canonical matrix.

    Edge labels follow the upper-right triangle cell order; a non-loop edge
    runs from its higher vertex (tail) to its lower vertex (head).
    """
    n = len(matrix)
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for _ in range(matrix[i][i] // 2):
            edges.append((i, i))
        for j in range(i + 1, n):
            for _ in range(matrix[i][j]):
                edges.append((j, i))  # tail = max index, head = min index

    next_free = [0] * n
    tail_germ = [0] * len(edges)
    head_germ = [0] * len(edges)
    germ_edge = [0] * (4 * n)
    germ_is_head = [False] * (4 * n)

    def alloc(v: int, e: int, head: bool) -> int:
        g = 4 * v + next_free[v]
        next_free[v] += 1
        germ_edge[g] = e
        germ_is_head[g] = head
        return g

    for e, (tv, hv) in enumerate(edges):
        tail_germ[e] = alloc(tv, e, False)
        head_germ[e] = alloc(hv, e, True)
    assert all(c == 4 for c in next_free), "vertex without exactly 4 germs"

    slots = []
    for e, (tv, hv) in enumerate(edges):
        t_slots = tuple(g for g in range(4 * tv, 4 * tv + 4) if g != tail_germ[e])
        h_slots = tuple(g for g in range(4 * hv, 4 * hv + 4) if g != head_germ[e])
        slots.append((t_slots, h_slots))

    return Skeleton(
        complexity=complexity,
        index=index,
        matrix=matrix,
        edges=tuple(edges),
        edge_tail_germ=tuple(tail_germ),
        edge_head_germ=tuple(head_germ),
        germ_edge=tuple(germ_edge),
        germ_is_head=tuple(germ_is_head),
        end_slots=tuple(slots),
    )


@lru_cache(maxsize=None)
def enumerate_skeleta(t: int) -> tuple[Skeleton, ...]:
    """All connected 4-regular multigraphs on t vertices, one per isomorphism
    class, canonical, sorted by decreasing D(A)."""
    if t < 1:
        raise ValueError("complexity must be at least 1")
    found = []
    for cand in _candidate_matrices(t):
        if not _is_connected(cand):
            continue
        best, _, _ = _max_perm_search(cand)
        if best == cand:
            found.append(cand)
    found.sort(key=decimal_rep, reverse=True)
    return tuple(
        build_skeleton(m, t, i + 1) for i, m in enumerate(found)
    )


def skeleton_by_index(t: int, index: int) -> Skeleton:
    ske = enumerate_skeleta(t)
    if not 1 <= index <= len(ske):
        raise ValueError(f"complexity {t} has {len(ske)} skeleta, not {index}")
    return ske[index - 1]


def spanning_tree(s: Skeleton) -> tuple[int, ...]:
    """Smallest-label greedy spanning tree, as 1-based edge labels."""
    parent = list(range(s.complexity))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for e, (tv, hv) in enumerate(s.edges):
        ru, rv = find(tv), find(hv)
        if ru != rv:
            parent[ru] = rv
            tree.append(e + 1)
    if len(tree) != s.complexity - 1:
        raise ValueError("skeleton is not connected")
    return tuple(tree)


def boundary_columns(s: Skeleton) -> tuple[int, ...]:
    """Labels of the non-tree edges, ascending: the boundary matrix columns
    and the generators of algebra.presentation_of, in that order."""
    tree_set = set(spanning_tree(s))
    return tuple(e for e in range(1, s.n_edges + 1) if e not in tree_set)


def skeleton_stats(s: Skeleton) -> dict:
    """Self-loop count and girth (1 = loop, 2 = double edge, else shortest
    simple cycle length)."""
    m = s.matrix
    n = len(m)
    loops = sum(m[i][i] for i in range(n)) // 2
    if loops:
        girth = 1
    elif any(m[i][j] >= 2 for i in range(n) for j in range(i + 1, n)):
        girth = 2
    else:
        girth = _simple_girth(m)
    return {"self_loops": loops, "girth": girth}


def _simple_girth(m: Matrix) -> int:
    # BFS from each vertex; shortest cycle through the root is found when a
    # visited vertex is reached again by a different parent edge.
    n = len(m)
    best = n + 1
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in range(n):
                    if not m[u][v] or v == parent[u]:
                        continue
                    if dist[v] == -1:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    else:
                        best = min(best, dist[u] + dist[v] + 1)
            queue = nxt
    return best


def skeleton_record(s: Skeleton) -> dict:
    """Flat export record for one skeleton."""
    stats = skeleton_stats(s)
    return {
        "complexity": s.complexity,
        "index": s.index,
        "adjacency": [a for row in s.matrix for a in row],
        "self_loops": stats["self_loops"],
        "girth": stats["girth"],
        "automorphism_order": len(automorphisms(s.matrix)),
    }
