"""Integer homology and fundamental-group certification for disk systems.

Collapsing a spanning tree of the 1-skeleton turns a complexity-t surface
into a 2-complex with one vertex, t+1 edges and t+1 disks, hence a balanced
presentation of the fundamental group.  The surface is acyclic exactly when
the (t+1) x (t+1) boundary matrix is unimodular; contractibility is then
equivalent to triviality of the presented group, which we certify by coset
enumeration over the trivial subgroup.

Triviality is only ever proven, never refuted: a coset enumeration that
exceeds its cap returns an inconclusive verdict.  All matrix arithmetic is
exact (Python integers).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .skeleta import Skeleton
from .surfaces import Surface

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# spanning tree and boundary matrix


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


def collapse_words(words, tree) -> tuple[Word, ...]:
    """Delete spanning-tree letters and renumber the survivors 1..t+1.

    Renumbering removes each tree label in decreasing order, shifting the
    magnitude of every larger label down by one, so the generator order of
    the collapsed presentation follows the original edge order.
    """
    tree = sorted(tree, reverse=True)
    out = []
    for w in words:
        r = [x for x in w if abs(x) not in set(tree)]
        for t in tree:
            r = [x - 1 if x > t else (x + 1 if x < -t else x) for x in r]
        out.append(tuple(r))
    return tuple(out)


def boundary_columns(s: Skeleton, tree=None) -> tuple[int, ...]:
    """Labels of the non-tree edges, ascending: the boundary matrix columns."""
    tree_set = set(spanning_tree(s) if tree is None else tree)
    return tuple(e for e in range(1, s.n_edges + 1) if e not in tree_set)


def boundary_matrix(f: Surface, tree=None) -> list[list[int]]:
    """Abelianized boundary map after collapsing the tree: one row per disk,
    one column per non-tree edge, entries are signed traversal sums."""
    cols = boundary_columns(f.skeleton, tree)
    col_index = {e: i for i, e in enumerate(cols)}
    m = [[0] * len(cols) for _ in f.disks]
    for r, w in enumerate(f.disks):
        for x in w:
            if abs(x) in col_index:
                m[r][col_index[abs(x)]] += 1 if x > 0 else -1
    return m


def det_bareiss(matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return 1
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


def is_acyclic(f: Surface) -> bool:
    """Reduced integer homology vanishes iff the boundary determinant is a
    unit."""
    m = boundary_matrix(f)
    if len(m) != len(m[0] if m else []) :
        return False
    return abs(det_bareiss(m)) == 1


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Relators are words over signed generator indices 1..ngens."""

    ngens: int
    relators: tuple[Word, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        for r in self.relators:
            for x in r:
                if x == 0 or abs(x) > self.ngens:
                    raise ValueError(f"letter {x} outside generator range")

    def occurrence_counts(self) -> list[int]:
        counts = [0] * self.ngens
        for r in self.relators:
            for x in r:
                counts[abs(x) - 1] += 1
        return counts

    def total_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def gen_name(self, i: int) -> str:
        if self.names and i <= len(self.names):
            return self.names[i - 1]
        return f"x{i}"


def presentation_of(f: Surface, tree=None) -> Presentation:
    """Balanced presentation from collapsing a spanning tree: generators are
    the surviving edges, relators the collapsed disk words."""
    if tree is None:
        tree = spanning_tree(f.skeleton)
    relators = collapse_words(f.disks, tree)
    ngens = f.skeleton.n_edges - len(tree)
    return Presentation(ngens=ngens, relators=relators)


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


def _drop_generator(p: Presentation, g: int) -> Presentation:
    """Remove generator g (known to be trivial) and renumber above it."""
    relators = []
    for r in p.relators:
        r = tuple(x for x in r if abs(x) != g)
        r = tuple(x - 1 if x > g else (x + 1 if x < -g else x) for x in r)
        r = cyclic_reduce(r)
        if r:
            relators.append(r)
    names = tuple(n for i, n in enumerate(p.names) if i != g - 1)
    return Presentation(p.ngens - 1, tuple(relators), names)


def _shorten_with(w: Word, r: Word) -> Word | None:
    """Replace a cyclic subword of w matching more than half of r (or of its
    inverse, over all rotations) by the shorter complement.  Returns the new
    cyclically reduced relator, or None if no shortening applies."""
    m = len(r)
    if m < 2 or len(w) < m // 2 + 1:
        return None
    doubled = w + w
    for base in (r, _inverse(r)):
        for rot in range(m):
            rr = base[rot:] + base[:rot]
            max_l = min(m, len(w))
            for l in range(max_l, m // 2, -1):
                u = rr[:l]
                repl = _inverse(rr[l:])
                if len(repl) >= l:
                    break
                for start in range(len(w)):
                    if doubled[start : start + l] == u:
                        rotated = doubled[start : start + len(w)]
                        new = repl + rotated[l:]
                        return cyclic_reduce(new)
    return None


def tietze_simplify(p: Presentation) -> Presentation:
    """Free and cyclic reduction, elimination of length-1 relators, and
    shortening against common subwords, iterated to a fixpoint.

    The output presents a group isomorphic to the input's.
    """
    relators = [cyclic_reduce(r) for r in p.relators]
    relators = [r for r in relators if r]
    p = Presentation(p.ngens, tuple(relators), p.names)
    while True:
        killed = next((r[0] for r in p.relators if len(r) == 1), None)
        if killed is not None:
            p = _drop_generator(p, abs(killed))
            continue
        rel = sorted(p.relators, key=lambda r: (len(r), r))
        changed = False
        for i, r in enumerate(rel):
            for j, w in enumerate(rel):
                if i == j:
                    continue
                new = _shorten_with(w, r)
                if new is not None and (len(new), new) < (len(w), w):
                    rel[j] = new
                    changed = True
        if changed:
            rel = [r for r in rel if r]
            # dedupe identical relators up to rotation and inversion
            seen = set()
            uniq = []
            for r in rel:
                variants = set()
                for base in (r, _inverse(r)):
                    for k in range(len(base)):
                        variants.add(base[k:] + base[:k])
                key = min(variants)
                if key not in seen:
                    seen.add(key)
                    uniq.append(r)
            p = Presentation(p.ngens, tuple(uniq), p.names)
            continue
        return Presentation(p.ngens, tuple(rel), p.names)


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

    @property
    def proven_trivial(self) -> bool:
        return self.status == "trivial"

    @staticmethod
    def trivial(cosets_used: int) -> "Pi1Verdict":
        return Pi1Verdict("trivial", 1, cosets_used)

    @staticmethod
    def finite(order: int, cosets_used: int) -> "Pi1Verdict":
        return Pi1Verdict("finite", order, cosets_used)

    @staticmethod
    def inconclusive(cosets_used: int) -> "Pi1Verdict":
        return Pi1Verdict("inconclusive", None, cosets_used)


DEFAULT_COSET_CAP = 200_000


def coset_enumerate(p: Presentation, cap: int = DEFAULT_COSET_CAP) -> Pi1Verdict:
    """Systematic coset enumeration of the trivial subgroup (HLT strategy).

    Deterministic: cosets are defined in first-need order while scanning
    relators at each live coset in turn.  If the table closes, the group
    order equals the number of live cosets.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if p.ngens == 0:
        return Pi1Verdict.trivial(1)

    ncols = 2 * p.ngens
    # column for letter x: 2*(|x|-1) + (0 if x>0 else 1)
    table: list[list[int | None]] = [[None] * ncols]
    rep = [0]  # union-find over cosets; live cosets are their own rep
    merge_queue: list[tuple[int, int]] = []
    merged: list[int] = []  # one entry per union, for change detection
    created = 1

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    def col(x: int) -> int:
        return 2 * (abs(x) - 1) + (0 if x > 0 else 1)

    def inv_col(c: int) -> int:
        return c ^ 1

    def set_entry(a: int, c: int, b: int) -> None:
        ta, tb = table[a][c], table[b][inv_col(c)]
        if ta is not None and find(ta) != find(b):
            merge_queue.append((ta, b))
        table[a][c] = b
        if tb is not None and find(tb) != find(a):
            merge_queue.append((tb, a))
        table[b][inv_col(c)] = a

    def process_merges() -> None:
        while merge_queue:
            a, b = merge_queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            rep[b] = a  # b dies, a survives
            merged.append(b)
            for c in range(ncols):
                t = table[b][c]
                if t is None:
                    continue
                t = find(t)
                # re-route t's inverse link from b to a
                if table[a][c] is None:
                    set_entry(a, c, t)
                elif find(table[a][c]) != t:
                    merge_queue.append((table[a][c], t))

    def define(a: int, c: int) -> bool:
        """Append a fresh coset as a·c.  False when the cap is exceeded."""
        nonlocal created
        if created >= cap:
            return False
        table.append([None] * ncols)
        rep.append(len(rep))
        created += 1
        set_entry(a, c, len(table) - 1)
        process_merges()
        return True

    def scan_and_fill(a: int, relator: Word) -> bool:
        """Scan `relator` at coset `a`, defining cosets to complete it.
        Rescans from scratch after every definition, so coincidences cannot
        desynchronize the walk.  Returns False when the cap is exceeded."""
        while True:
            a = find(a)
            f, b = a, a
            i, j = 0, len(relator) - 1
            while i <= j:
                nxt = table[f][col(relator[i])]
                if nxt is None:
                    break
                f = find(nxt)
                i += 1
            while j >= i:
                prv = table[b][inv_col(col(relator[j]))]
                if prv is None:
                    break
                b = find(prv)
                j -= 1
            if i > j:
                if f != b:
                    merge_queue.append((f, b))
                    process_merges()
                return True
            if i == j:
                # deduction closes the scan
                set_entry(f, col(relator[i]), b)
                process_merges()
                return True
            if not define(f, col(relator[i])):
                return False

    relators = [cyclic_reduce(r) for r in p.relators]
    relators = [r for r in relators if r]

    # Repeat full passes until one pass neither defines nor merges anything.
    # The final quiet pass doubles as verification: every relator scan closed
    # consistently and every row is fully defined, so the table is a genuine
    # transitive action on the cosets.
    while True:
        before = (created, len(merged))
        a = 0
        while a < len(table):
            if find(a) != a:
                a += 1
                continue
            for r in relators:
                if not scan_and_fill(a, r):
                    return Pi1Verdict.inconclusive(created)
                if find(a) != a:
                    break  # this coset died during processing
            else:
                # close the row so the table cannot stall with holes
                c = 0
                while c < ncols:
                    if find(a) != a:
                        break
                    if table[a][c] is None and not define(a, c):
                        return Pi1Verdict.inconclusive(created)
                    c += 1
            a += 1
        if (created, len(merged)) == before:
            break

    live = sum(1 for i in range(len(rep)) if find(i) == i)
    if live == 1:
        return Pi1Verdict.trivial(created)
    return Pi1Verdict.finite(live, created)


def pi1_trivial(f: Surface, cap: int = DEFAULT_COSET_CAP) -> Pi1Verdict:
    """Tietze-simplify the collapsed presentation, then enumerate cosets."""
    p = tietze_simplify(presentation_of(f))
    return coset_enumerate(p, cap)


# ---------------------------------------------------------------------------
# complexity of the surface obtained from a presentation


def bp_complexity(p: Presentation) -> int:
    """Complexity of the fake surface produced by thickening and collapsing
    the standard 2-complex of a presentation: 2L - 4k - max occurrences + 2.

    Requires every generator to occur at least twice across the relators;
    the underlying edge-collapse count is undefined below that.
    """
    counts = p.occurrence_counts()
    for i, c in enumerate(counts):
        if c < 2:
            raise ValueError(
                f"generator {p.gen_name(i + 1)} occurs {c} times; "
                "the construction needs every generator at least twice"
            )
    L = sum(counts)
    return 2 * L - 4 * p.ngens - max(counts) + 2


# ---------------------------------------------------------------------------
# presentation text format


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")


def parse_presentation(text: str) -> Presentation:
    """Parse "x,y|x^5y^-3,y^3(xy)^-2" style presentations.

    Generators are comma-separated names before the bar.  In relators, an
    uppercase single letter is the inverse of the matching lowercase
    generator; explicit exponents and parenthesized subwords are allowed.
    Whitespace is insignificant.
    """
    if "|" not in text:
        raise PresentationSyntaxError("missing '|'", len(text))
    gen_part, rel_part = text.split("|", 1)
    names = [g.strip() for g in gen_part.split(",") if g.strip()]
    if not names:
        raise PresentationSyntaxError("no generators", 0)
    if len(set(names)) != len(names):
        raise PresentationSyntaxError("duplicate generator name", 0)
    index = {n: i + 1 for i, n in enumerate(names)}
    for n in names:
        if not _NAME_RE.fullmatch(n):
            raise PresentationSyntaxError(f"bad generator name {n!r}", 0)

    base = len(gen_part) + 1
    src = rel_part
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def parse_exponent() -> int:
        nonlocal pos
        skip_ws()
        if pos < len(src) and src[pos] == "^":
            pos += 1
            skip_ws()
            m = _INT_RE.match(src, pos)
            if not m or int(m.group()) == 0:
                raise PresentationSyntaxError("bad exponent", base + pos)
            pos = m.end()
            return int(m.group())
        return 1

    def parse_term() -> Word:
        nonlocal pos
        skip_ws()
        if pos >= len(src):
            raise PresentationSyntaxError("unexpected end of relator", base + pos)
        ch = src[pos]
        if ch == "(":
            pos += 1
            inner = parse_relator(stop=")")
            if pos >= len(src) or src[pos] != ")":
                raise PresentationSyntaxError("unbalanced '('", base + pos)
            pos += 1
            word = inner
        else:
            m = _NAME_RE.match(src, pos)
            if not m:
                raise PresentationSyntaxError(f"unexpected character {ch!r}", base + pos)
            name = m.group()
            if name in index:
                word = (index[name],)
                pos = m.end()
            elif len(name) >= 1 and name[0].isupper() and name[0].lower() in index:
                # single uppercase letter = inverse; longer runs split greedily
                word = (-index[name[0].lower()],)
                pos += 1
            else:
                # try the longest prefix that is a generator
                for l in range(len(name), 0, -1):
                    if name[:l] in index:
                        word = (index[name[:l]],)
                        pos += l
                        break
                else:
                    raise PresentationSyntaxError(f"unknown generator {name!r}", base + pos)
        exp = parse_exponent()
        if exp < 0:
            word = _inverse(word)
            exp = -exp
        return word * exp

    def parse_relator(stop: str = "") -> Word:
        nonlocal pos
        out: list[int] = []
        skip_ws()
        while pos < len(src) and src[pos] not in ",)" :
            out.extend(parse_term())
            skip_ws()
        if not out:
            raise PresentationSyntaxError("empty relator", base + pos)
        return tuple(out)

    relators = []
    while True:
        relators.append(parse_relator())
        skip_ws()
        if pos >= len(src):
            break
        if src[pos] == ",":
            pos += 1
            continue
        raise PresentationSyntaxError(f"unexpected character {src[pos]!r}", base + pos)

    return Presentation(len(names), tuple(relators), tuple(names))


def format_presentation(p: Presentation) -> str:
    """Inverse of parse_presentation, with exponent folding."""
    names = [p.gen_name(i + 1) for i in range(p.ngens)]
    parts = []
    for r in p.relators:
        s = ""
        i = 0
        while i < len(r):
            j = i
            while j < len(r) and r[j] == r[i]:
                j += 1
            run = j - i
            x = r[i]
            name = names[abs(x) - 1]
            if x > 0:
                s += name if run == 1 else f"{name}^{run}"
            else:
                s += f"{name}^-{run}" if run > 1 or len(name) > 1 or not name.isalpha() else name.upper()
            i = j
        parts.append(s)
    return ",".join(names) + "|" + ",".join(parts)
