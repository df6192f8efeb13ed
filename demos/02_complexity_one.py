"""The two acyclic cellular fake surfaces of complexity 1, by hand.

The unique 1-skeleton is a single vertex with two loops.  A surface is a
pair of disk boundary words; the two classes differ only in one sign, yet
one is a spine of the 3-ball (the abalone) and the other is not, which is
detected by the triod bundle of the long disk.
"""

from fakesurfaces.skeleta import skeleton_by_index
from fakesurfaces.surfaces import Surface, corners_of, validate_words
from fakesurfaces.topology import disk_flags
from fakesurfaces.algebra import (
    boundary_matrix,
    det_bareiss,
    is_acyclic,
    presentation_of,
    pi1_trivial,
    tietze_simplify,
)
from fakesurfaces.canon import canonical_key

s = skeleton_by_index(1, 1)
print("skeleton:", s.matrix, "edges:", s.edges)

abalone = Surface(s, ((1, 2, 2, 1, -2), (1,)))
nonspine = Surface(s, ((1, 2, 2, -1, -2), (1,)))

for name, f in (("abalone", abalone), ("non-spine", nonspine)):
    print(f"\n{name}: disks {f.disks}")
    print("  validity:", validate_words(s, f.disks))
    corners = corners_of(f.disks, s)[0]
    print("  corners at the vertex (six sectors, each once):", sorted(corners))
    m = boundary_matrix(f)
    print(f"  boundary matrix {m}, determinant {det_bareiss(m)}, acyclic: {is_acyclic(f)}")
    flags = disk_flags(f)
    print("  per-disk (embedded, trivial bundle):", flags)
    print("  spine:", all(trivial for _, trivial in flags))
    p = tietze_simplify(presentation_of(f))
    print(f"  fundamental group after simplification: {p.ngens} generators,"
          f" verdict {pi1_trivial(f).status}")

print("\ndistinct canonical keys:",
      canonical_key(abalone) != canonical_key(nonspine))
print("\nBoth surfaces are contractible; exactly one is a spine.  Without")
print("orientations on self-loops the two word systems would be identical,")
print("which is why loop signs matter.")
