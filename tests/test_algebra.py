"""Homology, presentations, simplification, coset enumeration, parsing."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from fakesurfaces import algebra
from fakesurfaces.formats import ingest_row, load_reference_listing
from fakesurfaces.pipeline import classify
from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index, spanning_tree
from fakesurfaces.surfaces import Surface, enumerate_surfaces, trace_gluing, validate_words
from fakesurfaces.topology import disk_flags
from fakesurfaces.algebra import (
    Presentation,
    PresentationSyntaxError,
    bp_complexity,
    boundary_matrix,
    coset_enumerate,
    cyclic_reduce,
    det_bareiss,
    format_presentation,
    free_reduce,
    is_acyclic,
    parse_presentation,
    pi1_trivial,
    presentation_of,
    tietze_simplify,
)

from oracles import (
    det_cofactor,
    eliminate_step_by_step,
    presentation_by_renumbering,
    smith_normal_form,
)

ABALONE = ((1, 2, 2, 1, -2), (1,))


def test_spanning_tree_examples():
    assert spanning_tree(skeleton_by_index(1, 1)) == ()
    assert spanning_tree(skeleton_by_index(2, 1)) == (2,)
    for t in (2, 3, 4):
        for s in enumerate_skeleta(t):
            assert len(spanning_tree(s)) == t - 1


def test_presentation_of_numbers_generators_by_boundary_column():
    # complexity-2 skeleton 1 has tree (2,): generators 1, 2, 3 are edges
    # 1, 3, 4, so dropping edge 2 shifts the larger labels down
    s = skeleton_by_index(2, 1)
    sample = ((4, 2, -1, -1, -2, 3, 2, 1, -3), (2, -3), (4,))
    assert presentation_of(Surface(s, sample)) == Presentation(3, (
        (3, -1, -1, 2, 1, -2),
        (-2,),
        (3,),
    ))
    # a disk of tree letters alone keeps its (empty) relator
    assert presentation_of(Surface(s, ((2, -2), (1,)))).relators == ((), (1,))


def test_boundary_matrix_abalone():
    s = skeleton_by_index(1, 1)
    m = boundary_matrix(Surface(s, ABALONE))
    assert m == [[2, 1], [1, 0]]
    assert det_bareiss(m) == -1
    assert is_acyclic(Surface(s, ABALONE))


def test_boundary_column_sums_bounded():
    s = skeleton_by_index(2, 1)
    for cfg, _ in enumerate_surfaces(s):
        m = boundary_matrix(Surface(s, trace_gluing(s, cfg)))
        for j in range(len(m[0])):
            assert sum(abs(m[i][j]) for i in range(len(m))) <= 3


def test_det_oracles_agree_random():
    # n = 0..8 covers both sides of the formula/elimination dispatch
    assert algebra.FORMULA_MAX_N == 7
    rng = random.Random(7)
    for bound, n in itertools.product((3, 10**9), range(9)):
        for _ in range(60 if n < 8 else 4):
            m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(m) == det_cofactor(m), m
            if n >= 3:  # a last row dependent on the first two
                m[-1] = [a + b for a, b in zip(m[0], m[1])]
                assert det_bareiss(m) == 0, m


@pytest.mark.parametrize("t, indices", [(1, None), (2, None), (3, None), (4, (9,))])
def test_det_equals_cofactor_on_every_scan_leaf(t, indices):
    if indices is None:
        skeleta = enumerate_skeleta(t)
    else:
        skeleta = [skeleton_by_index(t, i) for i in indices]
    leaves = 0
    for s in skeleta:
        for cfg, rows in enumerate_surfaces(s):
            assert det_bareiss(rows) == det_cofactor(rows), (s.index, cfg)
            leaves += 1
    assert leaves > 0


def test_det_formula_equals_elimination_on_every_leaf_of_t4_skeleton2(monkeypatch):
    leaves = [rows for _, rows in enumerate_surfaces(skeleton_by_index(4, 2))]
    formula = [det_bareiss(rows) for rows in leaves]
    monkeypatch.setattr(algebra, "FORMULA_MAX_N", 0)  # every leaf takes Bareiss
    assert [det_bareiss(rows) for rows in leaves] == formula
    assert sum(abs(d) == 1 for d in formula) > 0


@pytest.mark.parametrize("n", (3, 9))  # the formula and the elimination side
def test_det_rejects_non_square_and_ragged_matrices(n):
    square = [[int(i == j) for j in range(n)] for i in range(n)]
    assert det_bareiss(square) == 1
    for bad in (
        [row + [0] for row in square],  # n rows of n+1
        [row[:-1] for row in square],  # n rows of n-1
        square[:-1] + [square[-1][:-1]],  # ragged: last row short
        square[:-1] + [square[-1] + [0]],  # ragged: last row long
    ):
        with pytest.raises(ValueError, match="matrix must be square"):
            det_bareiss(bad)
    with pytest.raises(ValueError, match="matrix must be square"):
        det_bareiss([[]])


def test_det_accepts_tuples_and_lists_and_keeps_its_input():
    assert det_bareiss([]) == 1
    assert det_bareiss(()) == 1
    for m in (((2, 1), (1, 0)), [(2, 1), [1, 0]], [[2, 1], [1, 0]]):
        assert det_bareiss(m) == -1
    big = tuple(tuple(int(i == j) * (i + 1) for j in range(9)) for i in range(9))
    assert det_bareiss(big) == det_bareiss([list(row) for row in big]) == 362880
    m = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    copy = [row[:] for row in m]
    assert det_bareiss(m) == det_cofactor(copy) == -3
    assert m == copy


def test_det_oracles_agree_on_boundary_maps():
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            for cfg, _ in enumerate_surfaces(s):
                m = boundary_matrix(Surface(s, trace_gluing(s, cfg)))
                assert det_bareiss(m) == det_cofactor(m)


def test_acyclicity_matches_smith_form():
    for s in enumerate_skeleta(2):
        for cfg, _ in enumerate_surfaces(s):
            f = Surface(s, trace_gluing(s, cfg))
            m = boundary_matrix(f)
            unimodular = abs(det_bareiss(m)) == 1
            assert unimodular == (smith_normal_form(m) == [1] * len(m))
            assert unimodular == is_acyclic(f)


def test_only_balanced_presentations_are_acyclic():
    # the free group of rank n has H_1 = Z^n, though with no relators the
    # boundary matrix has no row to give its shape
    assert not is_acyclic(Presentation(1, ()))
    assert not is_acyclic(Presentation(2, ()))
    assert not is_acyclic(Presentation(2, ((1,),)))  # Z
    assert not is_acyclic(Presentation(1, ((1,), (1,))))  # H_2 = Z
    assert is_acyclic(Presentation(0, ()))
    assert is_acyclic(Presentation(1, ((1,),)))


def test_even_exponent_sums_are_never_acyclic():
    # if every word has even exponent sum in some edge, the determinant
    # column is even, so |det| != 1
    s = skeleton_by_index(1, 1)
    for cfg, _ in enumerate_surfaces(s):
        f = Surface(s, trace_gluing(s, cfg))
        m = boundary_matrix(f)
        if any(all(m[i][j] % 2 == 0 for i in range(len(m))) for j in range(len(m[0]))):
            assert not is_acyclic(f)


def test_presentation_of_abalone():
    s = skeleton_by_index(1, 1)
    p = presentation_of(Surface(s, ABALONE))
    assert p.ngens == 2
    assert p.relators == ((1, 2, 2, 1, -2), (1,))


def test_presentation_balanced():
    for t in (1, 2, 3):
        for s in enumerate_skeleta(t):
            cfg, _ = next(iter(enumerate_surfaces(s)))
            p = presentation_of(Surface(s, trace_gluing(s, cfg)))
            assert p.ngens == t + 1
            assert len(p.relators) == t + 1


def test_free_and_cyclic_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2, 3, -2, -1)) == (3,)


def test_tietze_trivializes_abalone():
    s = skeleton_by_index(1, 1)
    p = tietze_simplify(presentation_of(Surface(s, ABALONE)))
    assert p.ngens == 0 and p.relators == ()


def test_tietze_single_relator():
    p = tietze_simplify(Presentation(1, ((1,),)))
    assert p.ngens == 0


def test_tietze_idempotent():
    cases = [
        Presentation(2, ((1, 2, 1, -2, -1, -2),)),
        parse_presentation("x,y|x^5y^-3,y^3(xy)^-2"),
        Presentation(1, ((1, 1, 1),)),
    ]
    for p in cases:
        once = tietze_simplify(p)
        assert tietze_simplify(once) == once


def _printed_surfaces():
    return [ingest_row(row) for t in (1, 2, 3) for row in load_reference_listing(t)]


def test_presentations_equal_the_step_by_step_collapse_and_elimination():
    printed = _printed_surfaces()
    classified = [ingest_row(rec) for rec in classify(3).records]
    assert (len(printed), len(classified)) == (257, 239)
    for f in printed + classified:
        p = presentation_of(f)
        assert p == presentation_by_renumbering(f), f
        assert tietze_simplify(p) == eliminate_step_by_step(p), f


def test_tietze_simplify_equals_the_step_by_step_elimination_on_random_presentations():
    # killing generators 3 and 2 together, not one after the other, would
    # leave the first relator as (2, 1), a rotation
    p = Presentation(4, ((-3, -1, -2, 1, 4, 1), (4, -1, -1, 2, -1), (-3,), (2,)))
    want = Presentation(2, ((1, 2), (2, -1, -1, -1)))
    assert tietze_simplify(p) == eliminate_step_by_step(p) == want
    rng = random.Random(2020)
    lengths = (0, 1, 1, 2, 3, 5, 8)  # empty and length-1 relators included
    for _ in range(2000):
        ngens = rng.randint(1, 6)
        names = tuple(f"g{i}" for i in range(ngens))
        relators = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(rng.choice(lengths)))
            for _ in range(rng.randint(0, 7))
        )
        p = Presentation(ngens, relators, names)
        assert tietze_simplify(p) == eliminate_step_by_step(p), p


def test_pi1_verdicts_of_the_printed_rows_have_their_pinned_hash():
    # (status, order, cosets_used) of all 257 printed rows, recorded with the
    # step-by-step elimination; no output hash covers cosets_used
    h = hashlib.sha256()
    for f in _printed_surfaces():
        v = pi1_trivial(f)
        h.update(repr((v.status, v.order, v.cosets_used)).encode())
    assert h.hexdigest() == "54098dc3f76d34239e36ab1a37416b60d49415cf92b7de43b79c9b3a9309511d"


def _seeded_presentations():
    """3,000 random presentations on 1-4 generators, each with a coset cap of
    5, 50 or 500.  Seven in ten relators are powers of a short word, whose
    small tables close through many coincidences."""
    rng = random.Random(24)
    for _ in range(3000):
        ngens = rng.randint(1, 4)
        relators = []
        for _ in range(rng.randint(0, 2 * ngens + 2)):
            word = [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(rng.randint(1, 4))]
            relators.append(tuple(word * (rng.randint(2, 5) if rng.random() < 0.7 else 1)))
        yield Presentation(ngens, tuple(relators)), rng.choice((5, 50, 500))


def test_coset_enumeration_of_seeded_random_presentations_has_its_pinned_hash():
    # (status, order, cosets_used) of each, recorded with the enumeration as
    # it stood before its rewrite into one loop: cosets_used moves with any
    # change to the order in which cosets are defined or merged
    verdicts = [coset_enumerate(p, cap) for p, cap in _seeded_presentations()]
    assert Counter(v.status for v in verdicts) == {
        "inconclusive": 1988, "trivial": 535, "finite": 477}
    assert sum(v.cosets_used > v.order for v in verdicts if v.order) == 685
    h = hashlib.sha256()
    for v in verdicts:
        h.update(repr((v.status, v.order, v.cosets_used)).encode())
    assert h.hexdigest() == "e55cdafff3094ec6733a01a18de4831f0a6010b2492386b657220832af5097b8"


def test_tietze_preserves_group():
    # verdicts agree before and after simplification when both complete
    for text in ("a|a^5", "a,b|a^2,b^3,(ab)^2", "x,y|x^5y^-3,y^3(xy)^-2"):
        p = parse_presentation(text)
        v1 = coset_enumerate(p)
        v2 = coset_enumerate(tietze_simplify(p))
        assert v1.status == v2.status and v1.order == v2.order


def test_coset_enumeration_known_orders():
    assert coset_enumerate(parse_presentation("a|a^5")).order == 5
    assert coset_enumerate(parse_presentation("a,b|a^2,b^3,(ab)^2")).order == 6
    assert coset_enumerate(parse_presentation("i,j|i^4,i^2j^-2,j^-1iji")).order == 8
    v = coset_enumerate(parse_presentation("a,b|a^3,b^3,(ab)^3,(aB)^3"), cap=100000)
    assert v.order == 27  # Heisenberg group over F3


def test_binary_icosahedral_never_trivial():
    p = parse_presentation("x,y|x^5y^-3,y^3(xy)^-2")
    v = coset_enumerate(p)
    assert v.status == "finite" and v.order == 120
    assert v.status != "trivial"
    # simplification must not fake triviality either
    q = tietze_simplify(p)
    assert q.ngens == 2
    v2 = coset_enumerate(q)
    assert v2.status == "finite" and v2.order == 120


def test_the_order_120_spine_of_complexity_5():
    # the one class of a full complexity-5 run whose pi1 is not trivial: a
    # spine of skeleton 28 whose table closes at 120 cosets (the binary
    # icosahedral group)
    s = skeleton_by_index(5, 28)
    f = Surface(s, ((1, -2, -8, -10, 7), (1, -3, -10, 9, 5), (1, -4, 9, -8, 6),
                    (2, -3, 6, -7, 9), (2, -4, 10, 6, -5), (3, -4, 7, -5, -8)))
    assert validate_words(s, f.disks)
    assert is_acyclic(f)
    assert disk_flags(f) == [(True, True)] * 6
    v = pi1_trivial(f)
    assert v.status == "finite" and v.order == 120


def test_cap_exhaustion_is_inconclusive():
    assert coset_enumerate(Presentation(1, ()), cap=40).status == "inconclusive"
    assert coset_enumerate(parse_presentation("a,b|b"), cap=40).status == "inconclusive"
    # infinite cyclic quotient: never closes
    assert coset_enumerate(parse_presentation("a,b|abAB"), cap=50).status == "inconclusive"


def test_pi1_trivial_on_complexity1():
    s = skeleton_by_index(1, 1)
    for cfg, _ in enumerate_surfaces(s):
        f = Surface(s, trace_gluing(s, cfg))
        if is_acyclic(f):
            assert pi1_trivial(f).status == "trivial"


def test_bp_complexity_examples():
    assert bp_complexity(parse_presentation("x|x^3")) == 1
    assert bp_complexity(parse_presentation("x,y|xyxy^-1x^-1y^-1")) == 3
    assert bp_complexity(parse_presentation("x|x^2")) == 0


def test_bp_complexity_more_hand_checks():
    # 2L - 4k - max occurrences + 2 against independent hand counts
    cases = [
        ("x|x^4", 2 * 4 - 4 - 4 + 2),
        ("x|x^5", 2 * 5 - 4 - 5 + 2),
        ("x,y|x^2,y^2", 2 * 4 - 8 - 2 + 2),
        ("x,y|x^3,y^2", 2 * 5 - 8 - 3 + 2),
        ("x,y|xyXY,x^2", 2 * 6 - 8 - 4 + 2),
        ("a,b,c|abc,bca,cab", 2 * 9 - 12 - 3 + 2),
        ("x,y|x^5y^-3,y^3(xy)^-2", 2 * 15 - 8 - 8 + 2),  # n_x=7, n_y=8
    ]
    for text, want in cases:
        assert bp_complexity(parse_presentation(text)) == want


def test_bp_complexity_precondition():
    with pytest.raises(ValueError, match="y"):
        bp_complexity(parse_presentation("x,y|x^3"))
    with pytest.raises(ValueError, match="y"):
        bp_complexity(parse_presentation("x,y|x^2,yx"))


def test_parse_presentation_examples():
    p = parse_presentation("x,y|xyXY")
    assert p.ngens == 2 and p.relators == ((1, 2, -1, -2),)
    p = parse_presentation("a|a^5")
    assert p.relators == ((1, 1, 1, 1, 1),)
    p = parse_presentation("x,y|x^5y^-3,y^3(xy)^-2")
    assert len(p.relators) == 2
    assert p.relators[1] == (2, 2, 2, -2, -1, -2, -1)


def test_parse_whitespace_and_round_trip():
    texts = ["x,y| x y X Y", "a | a^5", "x,y|x^5 y^-3, y^3 (x y)^-2"]
    for text in texts:
        p = parse_presentation(text)
        q = parse_presentation(format_presentation(p))
        assert q.relators == p.relators and q.ngens == p.ngens


def test_parse_errors_have_positions():
    for bad in ("x,y|", "x|x^0", "x|(xy", "x|z", "|x"):
        with pytest.raises((PresentationSyntaxError, ValueError)):
            parse_presentation(bad)
    try:
        parse_presentation("x|x^")
    except PresentationSyntaxError as e:
        assert e.pos >= 0


def _random_relator_text(rng, names, depth=0):
    """A well-formed relator over names: generator names, the uppercase
    shorthand of single lowercase letters, parenthesised subwords and
    exponents, with spaces sprinkled between and around them."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        if depth < 2 and rng.random() < 0.2:
            term = "(" + _random_relator_text(rng, names, depth + 1) + ")"
        else:
            term = rng.choice(names)
            if len(term) == 1 and term.islower() and rng.random() < 0.3:
                term = term.upper()
        if rng.random() < 0.4:
            term += rng.choice(("", " ")) + "^" + rng.choice(("", " ")) + str(
                rng.choice((1, -1)) * rng.randint(1, 12))
        terms.append(term)
    return rng.choice(("", " ")).join(terms)


def _seeded_presentation_texts():
    """20,000 presentation texts: 10,000 well-formed, each followed by a copy
    with one character replaced, inserted or deleted."""
    rng = random.Random(25)
    pool = ("x", "y", "z", "a", "b", "X", "Y", "ab", "x1", "y_2", "xy", "Z9")
    alphabet = "xyzXYZab0129_^-(),| "
    for _ in range(10000):
        names = rng.sample(pool, rng.randint(1, 3))
        text = ",".join(names) + "|" + ",".join(
            _random_relator_text(rng, names) for _ in range(rng.randint(1, 3)))
        yield text
        k = rng.randrange(len(text) + 1)
        c = rng.choice(alphabet)
        yield rng.choice((text[:k] + c + text[k + 1:], text[:k] + c + text[k:],
                          text[:k] + text[k + 1:]))


def test_parse_outcomes_of_seeded_texts_have_their_pinned_hash():
    # (ngens, relators, names), or the error's type, message and position,
    # recorded with the parser as it stood before its rewrite into one
    # recursive relator loop
    outcomes = []
    for text in _seeded_presentation_texts():
        try:
            p = parse_presentation(text)
        except PresentationSyntaxError as e:
            outcomes.append((type(e).__name__, str(e), e.pos))
        else:
            outcomes.append((p.ngens, p.relators, p.names))
    messages = [o[1].split(": ", 1)[1] for o in outcomes if isinstance(o[0], str)]
    assert len(outcomes) - len(messages) == 12216
    kinds = ("missing '|'", "no generators", "duplicate generator name", "bad generator name",
             "empty relator", "bad exponent", "unbalanced '('", "unexpected character",
             "unknown generator")
    assert {k: any(m.startswith(k) for m in messages) for k in kinds} == dict.fromkeys(kinds, True)
    assert not any(m.startswith("unexpected end") for m in messages)
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr(o).encode())
    assert h.hexdigest() == "8c480dd14cb52ff96fbc018872dda6bc66c8a6484edfe9921e07d704abf1f992"


def _random_relators(rng, ngens):
    """One to three nonempty random words over ngens generators, with runs
    of one letter up to four long."""
    return tuple(
        tuple(x for _ in range(rng.randint(1, 5))
              for x in [rng.choice((1, -1)) * rng.randint(1, ngens)] * rng.randint(1, 4))
        for _ in range(rng.randint(1, 3)))


def test_format_of_seeded_lowercase_presentations_has_its_pinned_hash():
    # 20,000 presentations on 1-4 generators named by lowercase letters, by
    # a lowercase letter with digits or `_`, or by default; the text was
    # recorded with the formatter as it stood before its rewrite
    rng = random.Random(2025)
    pool = tuple("abcdefghijklmnopqrstuvwxyz") + ("x1", "x2", "y10", "g_1", "ab1", "t_")
    h = hashlib.sha256()
    for _ in range(20000):
        ngens = rng.randint(1, 4)
        names = tuple(rng.sample(pool, ngens)) if rng.random() < 0.8 else ()
        h.update(format_presentation(Presentation(ngens, _random_relators(rng, ngens), names))
                 .encode() + b"\n")
    assert h.hexdigest() == "1632f58d775109443bed37bb8687bba980a0a0d85e46434110c4b9a63419256f"


def test_format_round_trips_uppercase_and_longer_names():
    assert format_presentation(parse_presentation("X|X^-1")) == "X|X^-1"
    assert parse_presentation(format_presentation(parse_presentation("a,B|B^-1a"))).relators == (
        (-2, 1),)
    assert format_presentation(Presentation(2, ((-1,), (2, 1)), ("x", "X"))) == "x,X|x^-1,X x"
    # names in both cases, some a prefix of another, so that written side
    # by side two names can read as a third
    rng = random.Random(7)
    pool = ("x", "X", "y", "Y", "a", "B", "b", "ab", "Ab", "x1", "X1", "xy", "Xy", "b_2")
    for _ in range(5000):
        ngens = rng.randint(1, 5)
        p = Presentation(ngens, _random_relators(rng, ngens), tuple(rng.sample(pool, ngens)))
        assert parse_presentation(format_presentation(p)) == p, p


def test_presentations_that_cannot_exist_are_refused():
    with pytest.raises(ValueError, match="negative"):
        Presentation(-1, ())
    with pytest.raises(ValueError, match="no generators"):
        bp_complexity(Presentation(0, ()))


def test_presentation_names_are_checked():
    # a given name may not repeat another, nor a default x{i}, so every
    # presentation formats to text that parses back to it
    with pytest.raises(ValueError, match="duplicate generator name"):
        Presentation(2, ((1, 2),), ("x2",))
    with pytest.raises(ValueError, match="duplicate generator name"):
        Presentation(2, (), ("a", "a"))
    with pytest.raises(ValueError, match="2 names for 1 generators"):
        Presentation(1, (), ("a", "b"))
    for bad in ("a b", "1a", "", "a-"):
        with pytest.raises(ValueError, match="bad generator name"):
            Presentation(1, (), (bad,))
    p = Presentation(3, ((2, -3), (1, 3, 2)), ("x4",))
    assert parse_presentation(format_presentation(p)).relators == p.relators
    # a generator tietze_simplify keeps keeps its name, given or default
    assert tietze_simplify(Presentation(3, ((1,), (2, 3, 2)), ("a", "x2"))).names == ("x2", "x3")


def test_bing_house_boundary_unimodular_by_both_oracles():
    s = skeleton_by_index(2, 1)
    bing = Surface(s, ((3, -1, -3, 2, -1, -2, -4, 2, -3, -4), (4,), (-1,)))
    m = boundary_matrix(bing)
    assert len(m) == 3 and len(m[0]) == 3
    assert abs(det_bareiss(m)) == 1
    assert det_bareiss(m) == det_cofactor(m)
