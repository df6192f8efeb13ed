"""Independent oracles: a cofactor-expansion determinant and the Smith
normal form of an integer matrix, which share no code with the library, the
set-based orbit quotient the classifier's reduce used before its canonicity
test, and a tree collapse that renumbers per tree label and a generator
elimination that builds one presentation per generator removed.

Tests compare algebra.det_bareiss and algebra.is_acyclic against the first
two, pipeline.reduce_survivors against the third, and
algebra.presentation_of and algebra.tietze_simplify against the last.
"""


def det_cofactor(matrix) -> int:
    """Cofactor-expansion determinant; the independent cross-check oracle."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors of an integer matrix (non-negative, divisibility
    chain, zeros trailing)."""
    m = [list(row) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    factors = []
    r = 0
    while r < min(rows, cols):
        # find a pivot of minimal absolute value
        pivot = None
        for i in range(r, rows):
            for j in range(r, cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[r], row[j] = row[j], row[r]
        clean = False
        while not clean:
            clean = True
            for i in range(r + 1, rows):
                q = m[i][r] // m[r][r]
                if q:
                    for j in range(cols):
                        m[i][j] -= q * m[r][j]
                if m[i][r]:
                    m[r], m[i] = m[i], m[r]
                    clean = False
            for j in range(r + 1, cols):
                q = m[r][j] // m[r][r]
                if q:
                    for row in m:
                        row[j] -= q * row[r]
                if m[r][j]:
                    for row in m:
                        row[r], row[j] = row[j], row[r]
                    clean = False
        factors.append(abs(m[r][r]))
        r += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if a and b % a:
                import math

                g = math.gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return factors


def reduce_by_orbit_sets(s, survivors, coset_cap=None):
    """The records of survivors quotiented with a set of the survivors not
    yet in a reduced orbit: each survivor still in it removes its orbit and
    contributes one class, represented by the orbit's minimal
    configuration.  Flags and certificates as pipeline derives them."""
    from fakesurfaces import algebra, canon, pipeline
    from fakesurfaces.formats import SurfaceRecord
    from fakesurfaces.surfaces import Surface, trace_gluing

    cap = algebra.DEFAULT_COSET_CAP if coset_cap is None else coset_cap
    remaining = set(survivors)
    records = []
    for cfg in survivors:
        if cfg not in remaining:
            continue
        orbit = canon.config_orbit(s, cfg)
        if not orbit <= remaining:
            raise AssertionError(f"orbit escapes the survivor set at {sorted(orbit - remaining)[:3]}")
        remaining -= orbit
        words = canon.normalize_words(trace_gluing(s, min(orbit)))
        flags, spine, pi1 = pipeline._derived_claims(Surface(s, words), cap)
        records.append(SurfaceRecord(s.complexity, s.index, words, flags,
                                     acyclic=True, spine=spine, pi1=pi1))
    records.sort(key=lambda r: canon.encode_words(r.disks))
    return records


def _cyclic_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def presentation_by_renumbering(f):
    """The balanced presentation of a surface by collapsing its spanning
    tree: drop the tree letters, then remove each tree label in decreasing
    order, shifting the magnitude of every larger label down by one."""
    from fakesurfaces.algebra import Presentation
    from fakesurfaces.skeleta import spanning_tree

    tree = sorted(spanning_tree(f.skeleton), reverse=True)
    relators = []
    for w in f.disks:
        r = [x for x in w if abs(x) not in tree]
        for t in tree:
            r = [x - 1 if x > t else (x + 1 if x < -t else x) for x in r]
        relators.append(tuple(r))
    return Presentation(f.skeleton.n_edges - len(tree), tuple(relators))


def eliminate_step_by_step(p):
    """Cyclically reduce every relator, dropping empty ones; then, while a
    relator has length 1, remove the first such relator's generator: delete
    its letters, renumber the generators above it, reduce again and build a
    new presentation, one per generator removed."""
    from fakesurfaces.algebra import Presentation

    p = Presentation(p.ngens, tuple(r for r in map(_cyclic_reduce, p.relators) if r), p.names)
    while (unit := next((r for r in p.relators if len(r) == 1), None)) is not None:
        g = abs(unit[0])
        relators = []
        for r in p.relators:
            r = tuple(x for x in r if abs(x) != g)
            r = _cyclic_reduce(x - 1 if x > g else (x + 1 if x < -g else x) for x in r)
            if r:
                relators.append(r)
        names = tuple(n for i, n in enumerate(p.names) if i != g - 1)
        p = Presentation(p.ngens - 1, tuple(relators), names)
    return p
