"""Independent oracles: a cofactor-expansion determinant and the Smith
normal form of an integer matrix, which share no code with the library, and
the set-based orbit quotient the classifier's reduce used before its
canonicity test.

Tests compare algebra.det_bareiss and algebra.is_acyclic against the first
two, and pipeline.reduce_survivors against the third.
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
