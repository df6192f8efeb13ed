"""Per-disk topological predicates: embedded disks and triod bundles.

The regular neighborhood of a disk boundary in a fake surface is a bundle
over the circle whose fiber is a triod T.  One arm of the fiber lies in the
disk itself, so going once around the boundary permutes the two remaining
arms: the bundle is a product when the permutation is the identity, and the
disk is attached to the middle circle of a Mobius band when it is a swap.
A disk with a nontrivial bundle obstructs the surface from being a spine of
a 3-manifold, so "spine" is operationally: every disk has a trivial bundle.

The walk along the boundary keeps the two free arms as sheet slots.  Between
vertices they ride the two other sheets of the current edge, transported by
the edge's sheet matching; crossing a vertex from germ a to germ b, the arm
lying in the sector {a, x} continues into the sector {b, x} for each of the
two germs x not touched by the corner.
"""

from __future__ import annotations

from .skeleta import Skeleton
from .surfaces import Surface, arrival_germ, departure_germ, sheet_matchings

Word = tuple[int, ...]


def is_embedded(f: Surface, d: int) -> bool:
    """A closed disk embeds iff its boundary word repeats no edge and visits
    no vertex twice."""
    w = f.disks[d]
    edges = [abs(x) for x in w]
    if len(set(edges)) != len(edges):
        return False
    vertices = [arrival_germ(f.skeleton, x) // 4 for x in w]
    return len(set(vertices)) == len(vertices)


def _arms_fixed(s: Skeleton, w: Word, forward, backward) -> bool:
    """Monodromy of the two free arms of the triod fiber around the disk
    with boundary word w, given the word system's sheet transport."""
    L = len(w)
    out0 = arrival_germ(s, w[0])
    in1 = departure_germ(s, w[1 % L])
    vertex = out0 // 4
    arms = [g for g in range(4 * vertex, 4 * vertex + 4) if g not in (out0, in1)]
    start = tuple(arms)
    for i in range(L):
        nxt = w[(i + 1) % L]
        # crossing the corner keeps the arm germs; ride the next edge
        e = abs(nxt) - 1
        ride = forward[e] if nxt > 0 else backward[e]
        arms = [ride[g] for g in arms]
    if tuple(arms) == start:
        return True
    if tuple(arms) == (start[1], start[0]):
        return False
    raise AssertionError(f"arms {arms} did not return to the starting fiber {start}")


def disk_flags(f: Surface) -> list[tuple[bool, bool]]:
    """(embedded, trivial bundle) per disk, in word order; the sheet
    transport is recovered once for the whole surface."""
    s = f.skeleton
    forward = sheet_matchings(s, f.disks)
    backward = [{h: t for t, h in m.items()} for m in forward]
    return [
        (is_embedded(f, d), _arms_fixed(s, w, forward, backward))
        for d, w in enumerate(f.disks)
    ]
