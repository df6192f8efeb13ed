"""Integer homology and fundamental-group certification for disk systems.

Collapsing a spanning tree of the 1-skeleton turns a complexity-t surface
into a 2-complex with one vertex, t+1 edges and t+1 disks, hence a balanced
presentation of the fundamental group (presentation_of), its generators
numbered as the boundary columns the scan kernel's rows use: the non-tree
edges in label order.  The boundary matrix is its exponent sums.  The
surface is acyclic exactly when that (t+1) x (t+1) matrix is unimodular;
contractibility is then equivalent to triviality of the presented group,
which we certify by coset enumeration over the trivial subgroup, after
eliminating each generator that a relator of length 1 kills
(tietze_simplify).

Triviality is only ever proven, never refuted: a coset enumeration that
exceeds its cap returns an inconclusive verdict.  All matrix arithmetic is
exact (Python integers).  The scan takes one determinant per leaf, so
det_bareiss evaluates the boundary matrices that occur up to complexity 6
(at most 7 x 7) by a straight-line formula compiled once per size, and
falls back to Bareiss elimination only for larger matrices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations, groupby

from .skeleta import boundary_columns
from .surfaces import Surface

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# boundary matrix


def boundary_matrix(f: Surface | Presentation) -> list[list[int]]:
    """Abelianized boundary map: the exponent sums of presentation_of(f),
    one row per relator (disk), one column per generator (non-tree edge).
    f may be that presentation itself, when the caller has built it."""
    p = f if isinstance(f, Presentation) else presentation_of(f)
    m = [[0] * p.ngens for _ in p.relators]
    for row, r in zip(m, p.relators):
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
    return m


# the largest n whose determinant is a compiled straight-line formula
FORMULA_MAX_N = 7


@cache
def _det_formula(n: int):
    """Compile the straight-line Laplace expansion of an n x n determinant.

    Entries are unpacked into locals (a ragged or non-square matrix fails
    the unpacking with ValueError).  The expansion runs from the last row
    up: the minor of the last k rows on a set of columns is expanded along
    its first row into minors of the last k-1 rows, and each minor is
    computed once, into a local that every larger minor containing it reads.
    """

    def minor(cols) -> str:
        if len(cols) == 1:
            return f"m{n - 1}_{cols[0]}"
        return "d" + "".join(map(str, cols))

    unpack = "".join("(" + "".join(f"m{i}_{j}, " for j in range(n)) + "), " for i in range(n))
    lines = ["def det(m):", f"    {unpack or '()'} = m"]
    for k in range(2, n + 1):
        for cols in combinations(range(n), k):
            terms = "".join(
                f" {'-' if p % 2 else '+'} m{n - k}_{c} * {minor(cols[:p] + cols[p + 1:])}"
                for p, c in enumerate(cols)
            )
            lines.append(f"    {minor(cols)} = {terms[3:]}")
    lines.append(f"    return {minor(tuple(range(n))) if n else 1}")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<det{n}>", "exec"), namespace)
    return namespace["det"]


def det_bareiss(matrix) -> int:
    """Exact determinant of a square matrix given as a sequence of rows.

    For n <= FORMULA_MAX_N (every boundary matrix up to complexity 6) this
    is a straight-line Laplace expansion over shared minors, compiled once
    per n on first use (_det_formula): 75 products at n=5, 186 at n=6, in
    local variables, about four times faster than elimination on the scan's
    5 x 5 leaves.  Larger matrices take fraction-free (Bareiss) Gaussian
    elimination.  The name predates the formula and stays because the
    benchmark traces and counts algebra.det_bareiss, one call per scan
    leaf.  A ragged or non-square matrix raises ValueError; the empty
    matrix has determinant 1.
    """
    n = len(matrix)
    if n <= FORMULA_MAX_N:
        try:
            return _det_formula(n)(matrix)
        except ValueError:
            raise ValueError("matrix must be square") from None
    m = [list(row) for row in matrix]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        mk = m[k]
        pivot = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def is_acyclic(f: Surface | Presentation) -> bool:
    """Reduced integer homology vanishes iff the presentation is balanced and
    its boundary determinant is a unit.  f is a surface or its
    presentation_of."""
    p = f if isinstance(f, Presentation) else presentation_of(f)
    return p.ngens == len(p.relators) and abs(det_bareiss(boundary_matrix(p))) == 1


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Relators are words over signed generator indices 1..ngens.  names,
    when given, name the first generators, and the rest are x{i}; every
    name is distinct and an identifier."""

    ngens: int
    relators: tuple[Word, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.ngens < 0:
            raise ValueError(f"negative number of generators {self.ngens}")
        for r in self.relators:
            for x in r:
                if x == 0 or abs(x) > self.ngens:
                    raise ValueError(f"letter {x} outside generator range")
        if self.names:  # the default names x1, x2, ... are distinct and valid
            if len(self.names) > self.ngens:
                raise ValueError(f"{len(self.names)} names for {self.ngens} generators")
            if bad := [n for n in self.names if not _NAME_RE.fullmatch(n)]:
                raise ValueError(f"bad generator name {bad[0]!r}")
            names = [self.gen_name(i) for i in range(1, self.ngens + 1)]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate generator name in {', '.join(names)}")

    def gen_name(self, i: int) -> str:
        return self.names[i - 1] if i <= len(self.names) else f"x{i}"


def presentation_of(f: Surface) -> Presentation:
    """Balanced presentation from collapsing the spanning tree: generator i
    is the i-th boundary column (skeleta.boundary_columns), relator j disk
    j's word without tree letters, empty if the disk has only tree edges."""
    columns = boundary_columns(f.skeleton)
    letter = {x: 0 for e in range(1, f.skeleton.n_edges + 1) for x in (e, -e)}
    for i, e in enumerate(columns, start=1):
        letter[e], letter[-e] = i, -i
    relators = tuple(tuple(g for x in w if (g := letter[x])) for w in f.disks)
    return Presentation(len(columns), relators)


def free_reduce(word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _inverse(word) -> Word:
    return tuple(-x for x in reversed(word))


def tietze_simplify(p: Presentation) -> Presentation:
    """Cyclically reduce every relator; then, while some relator has length
    1, kill the first one's generator: delete its letters and reduce again,
    dropping empty relators.  The surviving generators, and their names, are
    renumbered once at the end.  The output presents a group isomorphic to
    the input's.  Relators are not shortened against each other: the coset
    enumeration that follows reaches the same verdicts without it, and the
    subword search cost more time than the cosets it saved.
    """
    relators = [r for r in map(cyclic_reduce, p.relators) if r]
    killed = set()
    while (unit := next((r for r in relators if len(r) == 1), None)) is not None:
        g = abs(unit[0])
        killed.add(g)
        reduced = (cyclic_reduce([x for x in r if abs(x) != g]) for r in relators)
        relators = [r for r in reduced if r]
    survivors = [g for g in range(1, p.ngens + 1) if g not in killed]
    number = {}
    for i, g in enumerate(survivors, start=1):
        number[g], number[-g] = i, -i
    names = tuple(map(p.gen_name, survivors)) if p.names else ()
    return Presentation(len(survivors), tuple(tuple(number[x] for x in r) for r in relators),
                        names)


# ---------------------------------------------------------------------------
# coset enumeration


@dataclass(frozen=True)
class Pi1Verdict:
    """Outcome of a triviality certification.

    status "trivial" is a proof (the coset table closed with one coset);
    "finite" reports the group order from a closed table; "inconclusive"
    means the coset cap was hit, which leaves triviality open.
    """

    status: str
    order: int | None
    cosets_used: int


DEFAULT_COSET_CAP = 200_000


def coset_enumerate(p: Presentation, cap: int = DEFAULT_COSET_CAP) -> Pi1Verdict:
    """Enumerate the cosets of the trivial subgroup by the Haselgrove-Leech-
    Trotter (HLT) strategy (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005).

    Passes run over the live cosets in index order, cosets defined during
    the pass included.  At each coset every relator is scanned from both
    ends; while the gap is two letters or more, a fresh coset is defined at
    its front and the scan starts again from scratch.  A gap of one letter
    is a deduction, and two ends that meet at different cosets are a
    coincidence: the larger coset dies into the smaller, and the clashes
    this causes queue further coincidences, processed last in first out.  A
    coset that survives every relator then has its row filled.  The passes
    stop once one of them defines and merges nothing; every relator then
    closes at every coset and every row is full, so the table is the
    regular action of the group and its order is the number of live cosets.

    Deterministic.  cosets_used counts every coset defined, those later
    merged included; reaching the cap returns "inconclusive".
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if p.ngens == 0:
        return Pi1Verdict("trivial", 1, 1)

    ncols = 2 * p.ngens
    # letter x is column 2(|x|-1) + (x<0); the inverse of column c is c ^ 1
    relators = [[2 * abs(x) - 2 + (x < 0) for x in r] for r in map(cyclic_reduce, p.relators) if r]
    table: list[list[int | None]] = [[None] * ncols]
    rep = [0]  # union-find over cosets; live cosets are their own rep

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    def define(a: int, c: int) -> bool:
        """Append a fresh coset as a·c.  False when the cap is reached."""
        if len(table) >= cap:
            return False
        table[a][c] = len(table)
        table.append([None] * ncols)
        table[-1][c ^ 1] = a
        rep.append(len(rep))
        return True

    def scan(a: int, r: list[int]) -> tuple[int, int, int, int]:
        """Trace r from a forwards and backwards: the cosets f and b reached
        and the positions i and j of the first and last letters untraced."""
        f, i, b, j = a, 0, a, len(r) - 1
        while i <= j and (t := table[f][r[i]]) is not None:
            f, i = find(t), i + 1
        while j >= i and (t := table[b][r[j] ^ 1]) is not None:
            b, j = find(t), j - 1
        return f, i, b, j

    def coincide(a: int, b: int) -> int:
        """Merge cosets a and b, and each coincidence that follows; the
        number of cosets that die."""
        queue, dead = [(a, b)], 0
        while queue:
            a, b = sorted(map(find, queue.pop()))
            if a == b:
                continue
            rep[b] = a
            dead += 1
            for c, t in enumerate(table[b]):
                if t is None:
                    continue
                t, u = find(t), table[a][c]
                if u is None:
                    if (v := table[t][c ^ 1]) is not None and find(v) != a:
                        queue.append((v, a))
                    table[a][c], table[t][c ^ 1] = t, a
                elif find(u) != t:
                    queue.append((u, t))
        return dead

    dead = 0
    while True:
        before = (len(table), dead)
        a = 0
        while a < len(table):
            if find(a) == a:
                for r in relators:
                    f, i, b, j = scan(a, r)
                    while i < j:
                        if not define(f, r[i]):
                            return Pi1Verdict("inconclusive", None, len(table))
                        f, i, b, j = scan(a, r)
                    if i == j:
                        table[f][r[i]], table[b][r[i] ^ 1] = b, f
                    elif f != b:
                        dead += coincide(f, b)
                        if find(a) != a:
                            break
                else:
                    for c in range(ncols):
                        if table[a][c] is None and not define(a, c):
                            return Pi1Verdict("inconclusive", None, len(table))
            a += 1
        if (len(table), dead) == before:
            break

    live = len(table) - dead
    return Pi1Verdict("trivial" if live == 1 else "finite", live, len(table))


def pi1_trivial(f: Surface | Presentation, cap: int = DEFAULT_COSET_CAP) -> Pi1Verdict:
    """Tietze-simplify the collapsed presentation, then enumerate cosets.
    f is a surface or its presentation_of: a caller that has built the
    presentation, to test acyclicity, passes it rather than build it again."""
    p = f if isinstance(f, Presentation) else presentation_of(f)
    return coset_enumerate(tietze_simplify(p), cap)


# ---------------------------------------------------------------------------
# complexity of the surface obtained from a presentation


def bp_complexity(p: Presentation) -> int:
    """Complexity of the fake surface produced by thickening and collapsing
    the standard 2-complex of a presentation: 2L - 4k - max occurrences + 2.

    Requires a generator, each occurring at least twice across the
    relators; the underlying edge-collapse count is undefined below that.
    """
    if not p.ngens:
        raise ValueError("the presentation has no generators; the construction needs one")
    counts = [sum(abs(x) == g for r in p.relators for x in r) for g in range(1, p.ngens + 1)]
    for g, c in enumerate(counts, start=1):
        if c < 2:
            raise ValueError(f"generator {p.gen_name(g)} occurs {c} times; "
                             "the construction needs every generator at least twice")
    return 2 * sum(counts) - 4 * p.ngens - max(counts) + 2


# ---------------------------------------------------------------------------
# presentation text format


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")


def _read_name(token: str, index: dict[str, int]) -> tuple[int, int] | None:
    """(letter, length) of the generator a run of name characters starts with."""
    if token in index:
        return index[token], len(token)
    if token[0].isupper() and token[0].lower() in index:
        return -index[token[0].lower()], 1
    return next(((index[token[:n]], n) for n in range(len(token) - 1, 0, -1)
                 if token[:n] in index), None)


def parse_presentation(text: str) -> Presentation:
    """Parse "x,y|x^5y^-3,y^3(xy)^-2" style presentations.

    Generators are comma-separated names before the bar.  A relator is a
    product of generators and parenthesised relators, each with an optional
    exponent: `^`, whitespace allowed on both sides, then a nonzero integer.
    A run of name characters reads as the generator it names; else, if its
    first letter is uppercase and names a generator lowercased, as that
    generator's inverse, using one character; else as its longest prefix
    that names a generator.  Whitespace is otherwise insignificant.
    """
    if "|" not in text:
        raise PresentationSyntaxError("missing '|'", len(text))
    gen_part, src = text.split("|", 1)
    names = [g.strip() for g in gen_part.split(",") if g.strip()]
    if not names:
        raise PresentationSyntaxError("no generators", 0)
    if len(set(names)) != len(names):
        raise PresentationSyntaxError("duplicate generator name", 0)
    if bad := next((n for n in names if not _NAME_RE.fullmatch(n)), None):
        raise PresentationSyntaxError(f"bad generator name {bad!r}", 0)
    index = {n: i + 1 for i, n in enumerate(names)}
    base, pos = len(gen_part) + 1, 0

    def fail(message: str):
        raise PresentationSyntaxError(message, base + pos)

    def peek() -> str:
        """Skip whitespace; the next character, "" at the end."""
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1
        return src[pos:pos + 1]

    def relator() -> Word:
        nonlocal pos
        word: list[int] = []
        while (ch := peek()) not in ("", ",", ")"):
            if ch == "(":
                pos += 1
                term = relator()
                if peek() != ")":
                    fail("unbalanced '('")
                pos += 1
            else:
                if not (m := _NAME_RE.match(src, pos)):
                    fail(f"unexpected character {ch!r}")
                if not (got := _read_name(m.group(), index)):
                    fail(f"unknown generator {m.group()!r}")
                term, pos = got[:1], pos + got[1]
            if peek() == "^":
                pos += 1
                peek()
                if not (m := _INT_RE.match(src, pos)) or not (exp := int(m.group())):
                    fail("bad exponent")
                pos, term = m.end(), (term if exp > 0 else _inverse(term)) * abs(exp)
            word += term
        if not word:
            fail("empty relator")
        return tuple(word)

    relators = [relator()]
    while peek() == ",":
        pos += 1
        relators.append(relator())
    if pos < len(src):
        fail(f"unexpected character {src[pos]!r}")
    return Presentation(len(names), tuple(relators), tuple(names))


def format_presentation(p: Presentation) -> str:
    """Inverse of parse_presentation, with exponent folding.  A letter that
    is not part of a run is written bare, its name or for an inverse its name
    uppercased, where the name rule reads it back; else a generator is
    parted from what follows by a space, and an inverse gets exponent -1."""
    names = [p.gen_name(i + 1) for i in range(p.ngens)]
    index = {n: i + 1 for i, n in enumerate(names)}
    parts = []
    for r in p.relators:
        text = ""
        for x, run in reversed([(x, len(list(g))) for x, g in groupby(r)]):
            name = names[abs(x) - 1]
            bare = name if x > 0 else name.upper()
            m = _NAME_RE.match(bare + text)
            if run == 1 and m and _read_name(m.group(), index) == (x, len(bare)):
                text = bare + text
            elif run == 1 and x > 0:
                text = f"{name} {text}"
            else:
                text = f"{name}^{run if x > 0 else -run}{text}"
        parts.append(text)
    return ",".join(names) + "|" + ",".join(parts)
