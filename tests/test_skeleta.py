"""Skeleton enumeration, canonical ordering, stats, and the move group that
canon.germ_symmetries builds from the vertex automorphisms."""

import math
import random
from collections import Counter

import pytest

from fakesurfaces.canon import germ_symmetries
from fakesurfaces.skeleta import (
    automorphisms,
    canonicalize_adjacency,
    decimal_rep,
    enumerate_skeleta,
    skeleton_by_index,
    skeleton_stats,
)

# published census rows: totals, self-loop histogram, girth histogram
CENSUS = {
    1: (1, (0, 0, 1), (1, 0, 0)),
    2: (2, (1, 0, 1), (1, 1, 0)),
    3: (4, (1, 1, 1, 1), (3, 1, 0)),
    4: (10, (3, 2, 3, 1, 1), (7, 3, 0)),
    5: (28, (6, 7, 7, 5, 2, 1), (22, 5, 1)),
    6: (97, (19, 21, 28, 16, 10, 2, 1), (78, 18, 1)),
    7: (359, (50, 85, 98, 72, 36, 14, 3, 1), (309, 48, 2)),
}

GAMMA_2 = (((2, 2), (2, 2)), ((0, 4), (4, 0)))
GAMMA_3 = (
    ((2, 2, 0), (2, 0, 2), (0, 2, 2)),
    ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
    ((2, 1, 1), (1, 0, 3), (1, 3, 0)),
    ((0, 2, 2), (2, 0, 2), (2, 2, 0)),
)
GAMMA_4 = (
    ((2, 2, 0, 0), (2, 0, 2, 0), (0, 2, 0, 2), (0, 0, 2, 2)),
    ((2, 2, 0, 0), (2, 0, 1, 1), (0, 1, 2, 1), (0, 1, 1, 2)),
    ((2, 2, 0, 0), (2, 0, 1, 1), (0, 1, 0, 3), (0, 1, 3, 0)),
    ((2, 1, 1, 0), (1, 2, 0, 1), (1, 0, 2, 1), (0, 1, 1, 2)),
    ((2, 1, 1, 0), (1, 2, 0, 1), (1, 0, 0, 3), (0, 1, 3, 0)),
    ((2, 1, 1, 0), (1, 0, 2, 1), (1, 2, 0, 1), (0, 1, 1, 2)),
    ((2, 1, 1, 0), (1, 0, 1, 2), (1, 1, 0, 2), (0, 2, 2, 0)),
    ((0, 3, 1, 0), (3, 0, 0, 1), (1, 0, 0, 3), (0, 1, 3, 0)),
    ((0, 2, 2, 0), (2, 0, 0, 2), (2, 0, 0, 2), (0, 2, 2, 0)),
    ((0, 2, 1, 1), (2, 0, 1, 1), (1, 1, 0, 2), (1, 1, 2, 0)),
)


def test_decimal_rep_examples():
    assert decimal_rep([[1, 2], [3, 4]]) == 1234
    assert decimal_rep([[4]]) == 4
    # leading zeros vanish: the sum formula gives the integer 440
    assert decimal_rep([[0, 4], [4, 0]]) == 440


def test_decimal_rep_rejects_wide_entries():
    with pytest.raises(ValueError):
        decimal_rep([[10]])


@pytest.mark.parametrize("t", sorted(CENSUS))
def test_census_counts(t):
    total, loops_row, girth_row = CENSUS[t]
    ske = enumerate_skeleta(t)
    assert len(ske) == total
    loops = [0] * len(loops_row)
    girth = [0, 0, 0]
    for s in ske:
        st = skeleton_stats(s)
        loops[st["self_loops"]] += 1
        girth[st["girth"] - 1] += 1
    assert tuple(loops) == loops_row
    assert tuple(girth) == girth_row


def test_ordering_is_decreasing_decimal():
    for t in range(1, 6):
        reps = [decimal_rep(s.matrix) for s in enumerate_skeleta(t)]
        assert reps == sorted(reps, reverse=True)


def test_printed_matrices():
    assert tuple(s.matrix for s in enumerate_skeleta(2)) == GAMMA_2
    assert tuple(s.matrix for s in enumerate_skeleta(3)) == GAMMA_3
    assert tuple(s.matrix for s in enumerate_skeleta(4)) == GAMMA_4
    assert enumerate_skeleta(1)[0].matrix == ((4,),)


def test_canonicalize_fixed_point_example():
    a = ((2, 1, 1), (1, 0, 3), (1, 3, 0))
    best, perm = canonicalize_adjacency(a)
    assert best == a
    assert canonicalize_adjacency([[4]])[0] == ((4,),)


def test_canonicalize_invariant_under_permutation():
    rng = random.Random(42)
    for s in enumerate_skeleta(4):
        n = len(s.matrix)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = tuple(
                tuple(s.matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n)
            )
            best, witness = canonicalize_adjacency(shuffled)
            assert best == s.matrix
            # witness actually produces the canonical matrix
            rebuilt = tuple(
                tuple(shuffled[witness[i]][witness[j]] for j in range(n))
                for i in range(n)
            )
            assert rebuilt == best


def test_canonicalize_idempotent():
    for t in (1, 2, 3, 4):
        for s in enumerate_skeleta(t):
            assert canonicalize_adjacency(s.matrix)[0] == s.matrix


def test_no_two_skeleta_isomorphic_brute_force():
    import itertools

    for t in (1, 2, 3, 4):
        ske = enumerate_skeleta(t)
        for a in ske:
            for b in ske:
                if a.index >= b.index:
                    continue
                n = t
                hit = any(
                    tuple(
                        tuple(a.matrix[p[i]][p[j]] for j in range(n))
                        for i in range(n)
                    )
                    == b.matrix
                    for p in itertools.permutations(range(n))
                )
                assert not hit, (a.matrix, b.matrix)


def test_connected_and_regular():
    for t in (1, 2, 3, 4, 5):
        for s in enumerate_skeleta(t):
            for row in s.matrix:
                assert sum(row) == 4
            # germ tables cover each vertex exactly four times
            assert len(s.germ_edge) == 4 * t


def test_stats_examples():
    assert skeleton_stats(skeleton_by_index(2, 1)) == {"self_loops": 2, "girth": 1}
    assert skeleton_stats(skeleton_by_index(2, 2)) == {"self_loops": 0, "girth": 2}
    # the complexity-5 simple graph on five vertices has girth 3
    k5 = [s for s in enumerate_skeleta(5) if skeleton_stats(s)["girth"] == 3]
    assert len(k5) == 1
    assert all(a == 1 for i, row in enumerate(k5[0].matrix) for j, a in enumerate(row) if i != j)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_move_group_order(t):
    # |G| = |vertex automorphisms| x (multiplicity)! per cell of parallel
    # edges x 2^loops
    for s in enumerate_skeleta(t):
        cells = Counter((min(tv, hv), max(tv, hv)) for tv, hv in s.edges)
        loops = sum(1 for tv, hv in s.edges if tv == hv)
        expected = (len(automorphisms(s.matrix)) * 2 ** loops
                    * math.prod(math.factorial(k) for k in cells.values()))
        assert len(germ_symmetries(s)) == expected, (t, s.index)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_move_group_axioms(t):
    """The germ maps, as permutations of the 4t germs, form a group whose
    elements move vertices' germs together and edges' germ pairs together."""
    for s in enumerate_skeleta(t):
        group = [sym.germ_map for sym in germ_symmetries(s)]
        index = set(group)
        assert len(index) == len(group)
        assert tuple(range(4 * t)) in index
        for sym in germ_symmetries(s):
            g = sym.germ_map
            assert sorted(g) == list(range(4 * t))
            for v in range(t):
                assert len({g[k] // 4 for k in range(4 * v, 4 * v + 4)}) == 1
            for e, e2 in enumerate(sym.edge_perm):
                assert ({g[s.edge_tail_germ[e]], g[s.edge_head_germ[e]]}
                        == {s.edge_tail_germ[e2], s.edge_head_germ[e2]})
            inverse = [0] * (4 * t)
            for k, image in enumerate(g):
                inverse[image] = k
            assert tuple(inverse) in index
        # closure, sampled for the larger groups
        rng = random.Random(7)
        pairs = (
            [(a, b) for a in group for b in group]
            if len(group) <= 20
            else [(rng.choice(group), rng.choice(group)) for _ in range(200)]
        )
        for a, b in pairs:
            assert tuple(b[a[k]] for k in range(4 * t)) in index  # a, then b


def test_edge_labels_follow_upper_triangle():
    s = skeleton_by_index(3, 3)  # loop, two singles, one triple bundle
    assert s.edges == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 1), (2, 1))
    s = skeleton_by_index(2, 1)
    assert s.edges == ((0, 0), (1, 0), (1, 0), (1, 1))


def test_canonicalize_against_exhaustive_oracle_t3():
    import itertools

    rng = random.Random(9)
    for s in enumerate_skeleta(3):
        n = 3
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            a = tuple(
                tuple(s.matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n)
            )
            best = max(
                tuple(tuple(a[p[i]][p[j]] for j in range(n)) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert canonicalize_adjacency(a)[0] == best == s.matrix
