"""Fundamental-group machinery: simplification, coset enumeration, and the
complexity formula for presentation 2-complexes.

Triviality is only ever proven.  The binary icosahedral group, the
fundamental group of the spine of the Poincare homology sphere that
appears at complexity 5, is the standard false-negative guard: the coset
table closes at order 120, never at 1.
"""

from fakesurfaces.algebra import (
    bp_complexity,
    coset_enumerate,
    format_presentation,
    parse_presentation,
    tietze_simplify,
)

examples = [
    ("a|a^5", "cyclic of order 5"),
    ("a,b|a^2,b^3,(ab)^2", "symmetric group S3"),
    ("i,j|i^4,i^2j^-2,j^-1iji", "quaternion group"),
    ("x,y|x^5y^-3,y^3(xy)^-2", "binary icosahedral (Poincare sphere spine)"),
]
for text, name in examples:
    p = parse_presentation(text)
    v = coset_enumerate(p)
    print(f"{name}: <{text}>  ->  {v.status}"
          + (f", order {v.order}" if v.order else "")
          + f"  ({v.cosets_used} cosets defined)")

print("\nTietze simplification eliminates the generator of every relator of")
print("length 1, repeatedly; the abalone's presentation dies instantly:")
p = parse_presentation("a,b|abbab^-1,a")
q = tietze_simplify(p)
print(f"  {format_presentation(p)}  ->  {q.ngens} generators, {len(q.relators)} relators")

print("\nBut simplification never fakes triviality:")
p = parse_presentation("x,y|x^5y^-3,y^3(xy)^-2")
q = tietze_simplify(p)
v = coset_enumerate(q)
print(f"  binary icosahedral survives with {q.ngens} generators; "
      f"verdict stays {v.status}:{v.order}")

print("\nThickening the presentation 2-complex of a group and collapsing it")
print("to a fake surface yields complexity 2L - 4k - max occurrences + 2:")
for text in ("x|x^2", "x|x^3", "x,y|xyxy^-1x^-1y^-1", "x,y|x^5y^-3,y^3(xy)^-2"):
    p = parse_presentation(text)
    print(f"  <{text}>  ->  complexity {bp_complexity(p)}")
