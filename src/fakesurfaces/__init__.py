"""Enumeration, classification and verification of acyclic cellular fake
surfaces of low complexity.

A fake surface is a compact 2-dimensional generic polyhedron: every point has
a neighborhood that is a disk, a page of three half-planes along an edge, or
the cone on the 1-skeleton of a tetrahedron.  The cellular ones are CW
complexes whose 1-skeleton is a connected 4-regular multigraph; complexity
counts the vertices.  This package enumerates them, filters the acyclic ones,
reduces modulo the natural relabeling moves, computes per-disk embeddedness
and triod-bundle flags, and certifies contractibility by coset enumeration.
"""

from .skeleta import (
    Skeleton,
    canonicalize_adjacency,
    decimal_rep,
    enumerate_skeleta,
    skeleton_by_index,
    skeleton_stats,
)
from .surfaces import (
    Surface,
    Valid,
    Violation,
    corners_of,
    enumerate_surfaces,
    trace_gluing,
    validate_words,
)
from .canon import canonical_form, canonical_key, geometric_form, normalize_word

__version__ = "0.1.0"
