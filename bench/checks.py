"""Output checks that do not use the package's own algebra or topology.

A surface over a skeleton is acyclic when the boundary map of the 2-complex
left after collapsing a spanning tree is unimodular.  The tree here is a
breadth-first tree and the determinant is plain Gaussian elimination over
fractions, so neither shares code with `algebra.spanning_tree` or
`algebra.det_bareiss`.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction


def spanning_tree(edges, n_vertices: int) -> set[int]:
    """Breadth-first spanning tree from vertex 0, as 1-based edge labels."""
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_vertices)}
    for label, (tv, hv) in enumerate(edges, start=1):
        if tv != hv:
            incident[tv].append((label, hv))
            incident[hv].append((label, tv))
    seen = {0}
    tree = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for label, w in incident[v]:
            if w not in seen:
                seen.add(w)
                tree.add(label)
                queue.append(w)
    if len(seen) != n_vertices:
        raise ValueError("skeleton is not connected")
    return tree


def boundary_matrix(edges, n_vertices: int, disks) -> list[list[int]]:
    """One row per disk, one column per non-tree edge: signed traversals."""
    tree = spanning_tree(edges, n_vertices)
    cols = [e for e in range(1, len(edges) + 1) if e not in tree]
    col = {e: i for i, e in enumerate(cols)}
    rows = []
    for w in disks:
        row = [0] * len(cols)
        for x in w:
            if abs(x) in col:
                row[col[abs(x)]] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def determinant(matrix) -> Fraction:
    """Exact determinant of a square matrix by elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return det


def embedded(edges, word) -> bool:
    """A closed disk embeds when its word repeats no edge and arrives at no
    vertex twice."""
    labels = [abs(x) for x in word]
    arrivals = [edges[abs(x) - 1][1 if x > 0 else 0] for x in word]
    return len(set(labels)) == len(labels) and len(set(arrivals)) == len(arrivals)


def surface_problems(s, disks) -> list[str]:
    """Disk count t+1, every edge traversed three times, and a unimodular
    boundary map; an empty list when all hold."""
    problems = []
    t = s.complexity
    if len(disks) != t + 1:
        problems.append(f"{len(disks)} disks, expected {t + 1}")
    counts = Counter(abs(x) for w in disks for x in w)
    if counts != Counter({e: 3 for e in range(1, len(s.edges) + 1)}):
        problems.append(f"edge traversal counts {dict(sorted(counts.items()))}")
    if not problems:
        det = determinant(boundary_matrix(s.edges, t, disks))
        if abs(det) != 1:
            problems.append(f"boundary determinant {det}, not a unit")
    return problems


def record_problems(s, rec: dict, min_disk_len: int) -> list[str]:
    """Everything one native JSON record of a complexity-4 run must satisfy:
    acyclic by the checks above, pi1 proven trivial, stored embeddedness
    flags equal to the derived ones with at least one embedded disk, and no
    disk shorter than min_disk_len."""
    disks = [tuple(w) for w in rec["disks"]]
    problems = surface_problems(s, disks)
    if rec["acyclic"] is not True:
        problems.append(f"acyclic field {rec['acyclic']!r}")
    if rec["pi1"] != "trivial":
        problems.append(f"pi1 {rec['pi1']!r}, expected trivial")
    derived = [embedded(s.edges, w) for w in disks]
    stored = [fl[0] == "Y" for fl in rec["flags"]]
    if stored != derived:
        problems.append(f"embedded flags {stored}, derived {derived}")
    if not any(derived):
        problems.append("no embedded disk")
    if rec["spine"] != all(fl[1] == "Y" for fl in rec["flags"]):
        problems.append("spine field disagrees with the bundle flags")
    short = [len(w) for w in disks if len(w) < min_disk_len]
    if short:
        problems.append(f"disk lengths {short} below {min_disk_len}")
    return problems
