"""Embedded disks and triod bundle monodromy."""

from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index
from fakesurfaces.surfaces import Surface, enumerate_surfaces, trace_gluing
from fakesurfaces.topology import disk_flags, is_embedded
from fakesurfaces.canon import germ_symmetries
from fakesurfaces.algebra import is_acyclic

ABALONE = ((1, 2, 2, 1, -2), (1,))
NONSPINE = ((1, 2, 2, -1, -2), (1,))
BING = ((3, -1, -3, 2, -1, -2, -4, 2, -3, -4), (4,), (-1,))


def test_complexity1_flags():
    s = skeleton_by_index(1, 1)
    # big disk: not embedded either way; bundle trivial only for the second
    assert disk_flags(Surface(s, NONSPINE)) == [(False, False), (True, True)]
    assert disk_flags(Surface(s, ABALONE)) == [(False, True), (True, True)]


def _spine(f):
    return all(trivial for _, trivial in disk_flags(f))


def test_spine_examples():
    s1 = skeleton_by_index(1, 1)
    assert _spine(Surface(s1, ABALONE))
    assert not _spine(Surface(s1, NONSPINE))
    s2 = skeleton_by_index(2, 1)
    assert _spine(Surface(s2, BING))


def test_bing_house_small_disks_embedded():
    s = skeleton_by_index(2, 1)
    f = Surface(s, BING)
    assert is_embedded(f, 1) and is_embedded(f, 2)
    assert not is_embedded(f, 0)


def test_two_letter_disk_embedded():
    s = skeleton_by_index(2, 1)
    # (2, -3): two distinct parallel edges, two distinct corner vertices
    f = Surface(s, ((4, 2, -1, -1, -2, 4, 3, 1, -3), (2, -3), (4,)))
    assert is_embedded(f, 1)


def test_nontrivial_counts_complexity1():
    s = skeleton_by_index(1, 1)
    for words, want in ((NONSPINE, 1), (ABALONE, 0)):
        assert sum(not trivial for _, trivial in disk_flags(Surface(s, words))) == want


def test_has_embedded_disk_both_complexity1():
    s = skeleton_by_index(1, 1)
    for words in (ABALONE, NONSPINE):
        assert any(embedded for embedded, _ in disk_flags(Surface(s, words)))


def test_monodromy_direction_invariance():
    # writing a disk backwards must not change its bundle verdict
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            for cfg, _ in enumerate_surfaces(s):
                words = trace_gluing(s, cfg)
                f = Surface(s, words)
                for d in range(len(words)):
                    reversed_words = list(words)
                    reversed_words[d] = tuple(-x for x in reversed(words[d]))
                    g = Surface(s, tuple(reversed_words))
                    assert disk_flags(f)[d][1] == disk_flags(g)[d][1]
            break  # one skeleton per complexity keeps this quick


def test_flags_invariant_under_germ_symmetries():
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            syms = germ_symmetries(s)
            count = 0
            for cfg, _ in enumerate_surfaces(s):
                words = trace_gluing(s, cfg)
                f = Surface(s, words)
                profile = sorted(
                    (len(w), fl) for w, fl in zip(words, disk_flags(f))
                )
                for sym in syms:
                    moved = sym.apply_words(s, words)
                    g = Surface(s, moved)
                    assert profile == sorted(
                        (len(w), fl) for w, fl in zip(moved, disk_flags(g))
                    )
                count += 1
                if count > 8:
                    break


def test_small_disks_always_embedded_above_complexity1():
    for t in (2, 3):
        for s in enumerate_skeleta(t):
            for cfg, _ in enumerate_surfaces(s):
                words = trace_gluing(s, cfg)
                f = Surface(s, words)
                if not is_acyclic(f):
                    continue
                for d, w in enumerate(words):
                    if len(w) <= 2:
                        assert is_embedded(f, d), (s.index, words, d)
