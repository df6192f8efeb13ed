"""Word normalization, move invariance, canonical forms, geometric classes."""

import random

import pytest

from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index
from fakesurfaces.surfaces import Surface, enumerate_surfaces, reconstruct_config, trace_gluing
from fakesurfaces.algebra import is_acyclic
from fakesurfaces.canon import (
    canonical_form,
    canonical_key,
    config_orbit,
    geometric_form,
    geometric_key,
    germ_symmetries,
    normalize_word,
    normalize_words,
)

ABALONE = ((1, 2, 2, 1, -2), (1,))
NONSPINE = ((1, 2, 2, -1, -2), (1,))
BING = ((3, -1, -3, 2, -1, -2, -4, 2, -3, -4), (4,), (-1,))
MUTANT = ((4, 3, -2, -4, 2, -1, -2, 3, 1, -3), (4,), (-1,))


def test_normalize_word_examples():
    assert normalize_word((2, 1)) == (1, 2)
    assert normalize_word((1,)) == (1,)


def test_normalize_word_is_exhaustive_minimum():
    w = (1, 2, 2, 1, -2)
    variants = []
    rev = tuple(-x for x in reversed(w))
    for base in (w, rev):
        for i in range(len(base)):
            variants.append(base[i:] + base[:i])
    korder = lambda v: tuple((abs(x), 0 if x > 0 else 1) for x in v)
    assert normalize_word(w) == min(variants, key=korder)
    for v in variants:
        assert normalize_word(v) == normalize_word(w)


def test_normalize_word_matches_brute_force_minimum():
    # normalize_word compares integer codes; this minimum uses the letter
    # order 1 < -1 < 2 < -2 < ... directly
    letter_key = lambda x: (abs(x), 0 if x > 0 else 1)
    word_key = lambda v: (len(v), tuple(map(letter_key, v)))
    rng = random.Random(2026)
    letters = [x for e in range(1, 10) for x in (e, -e)]
    for _ in range(500):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 20)))
        rev = tuple(-x for x in reversed(w))
        variants = [b[i:] + b[:i] for b in (w, rev) for i in range(len(w))]
        assert normalize_word(w) == min(variants, key=word_key)


def test_normalize_word_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(1, 8)))
        assert normalize_word(normalize_word(w)) == normalize_word(w)


def test_complexity1_surfaces_have_distinct_keys():
    s = skeleton_by_index(1, 1)
    assert canonical_key(Surface(s, ABALONE)) != canonical_key(Surface(s, NONSPINE))
    assert geometric_key(Surface(s, ABALONE)) != geometric_key(Surface(s, NONSPINE))


def test_bing_house_and_mutant_distinct():
    s = skeleton_by_index(2, 1)
    assert canonical_key(Surface(s, BING)) != canonical_key(Surface(s, MUTANT))


def _random_move(rng, s, words):
    """One move from the published set, applied at the word level."""
    words = list(words)
    kind = rng.randrange(4)
    if kind == 0:  # relabeling or loop reversal: a germ symmetry
        sym = rng.choice(germ_symmetries(s))
        return tuple(sym.apply_words(s, words))
    if kind == 1:  # rotate one disk
        i = rng.randrange(len(words))
        w = words[i]
        r = rng.randrange(len(w))
        words[i] = w[r:] + w[:r]
        return tuple(words)
    if kind == 2:  # write one disk backwards
        i = rng.randrange(len(words))
        words[i] = tuple(-x for x in reversed(words[i]))
        return tuple(words)
    rng.shuffle(words)  # reorder the disk list
    return tuple(words)


def _random_sign_flip(rng, s, words):
    e = rng.randrange(s.n_edges) + 1
    return tuple(tuple(-x if abs(x) == e else x for x in w) for w in words)


@pytest.mark.parametrize("t", (1, 2))
def test_canonical_form_invariant_under_move_sequences(t):
    rng = random.Random(100 + t)
    for s in enumerate_skeleta(t):
        for cfg, _ in enumerate_surfaces(s):
            words = trace_gluing(s, cfg)
            base = canonical_form(Surface(s, words))
            current = words
            for _ in range(20):
                current = _random_move(rng, s, current)
                if rng.random() < 0.3:
                    current = _random_sign_flip(rng, s, current)
                assert canonical_form(Surface(s, current)) == base


@pytest.mark.parametrize("t", (1, 2))
def test_geometric_form_invariant_under_geometric_moves(t):
    # geometric moves exclude non-loop sign flips
    rng = random.Random(200 + t)
    for s in enumerate_skeleta(t):
        for cfg, _ in enumerate_surfaces(s):
            words = trace_gluing(s, cfg)
            base = geometric_form(Surface(s, words))
            current = words
            for _ in range(20):
                current = _random_move(rng, s, current)
                assert geometric_form(Surface(s, current)) == base


def test_config_transforms_commute_with_tracing():
    # the configuration orbit is the set of gluings that trace to the words
    # moved by each germ symmetry, up to normalization
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            syms = germ_symmetries(s)
            rng = random.Random(17)
            cfgs = [cfg for cfg, _ in enumerate_surfaces(s)]
            for cfg in rng.sample(cfgs, min(10, len(cfgs))):
                words = trace_gluing(s, cfg)
                images = set()
                for sym in syms:
                    moved = sym.apply_words(s, words)
                    image = reconstruct_config(s, moved)
                    assert normalize_words(trace_gluing(s, image)) == normalize_words(moved)
                    images.add(image)
                assert config_orbit(s, cfg) == images


def test_orbit_is_group_closed():
    s = skeleton_by_index(2, 1)
    cfg = next(iter(enumerate_surfaces(s)))[0]
    orbit = config_orbit(s, cfg)
    for member in orbit:
        assert config_orbit(s, member) == orbit
    f = Surface(s, trace_gluing(s, cfg))
    assert geometric_form(f) == normalize_words(trace_gluing(s, min(orbit)))


def test_germ_symmetry_group_sizes():
    # relabelings x loop reversals
    assert len(germ_symmetries(skeleton_by_index(1, 1))) == 2 * 4
    assert len(germ_symmetries(skeleton_by_index(2, 2))) == 48  # no loops
    assert len(germ_symmetries(skeleton_by_index(2, 1))) == 4 * 4


def test_canonical_form_may_leave_validity_but_key_is_stable():
    # the minimal sign pattern need not be attachable; geometric_form is
    s = skeleton_by_index(1, 1)
    f = Surface(s, ABALONE)
    assert canonical_key(f) == canonical_key(Surface(s, geometric_form(f)))


def test_geometric_class_counts_t2():
    for idx, want in ((1, 15), (2, 2)):
        s = skeleton_by_index(2, idx)
        surfs = [Surface(s, trace_gluing(s, cfg)) for cfg, _ in enumerate_surfaces(s)]
        assert len({geometric_key(f) for f in surfs if is_acyclic(f)}) == want


def test_some_gluing_traces_to_the_abalone_class():
    s = skeleton_by_index(1, 1)
    target = canonical_key(Surface(s, ABALONE))
    keys = {
        canonical_key(Surface(s, trace_gluing(s, cfg))) for cfg, _ in enumerate_surfaces(s)
    }
    assert target in keys


def test_canonical_form_invariant_under_every_single_generator():
    # exhaustive single-move invariance over the full raw stream at t <= 2
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            syms = germ_symmetries(s)
            for cfg, _ in enumerate_surfaces(s):
                words = trace_gluing(s, cfg)
                base = canonical_form(Surface(s, words))
                for sym in syms:
                    assert canonical_form(Surface(s, sym.apply_words(s, words))) == base
                for i, w in enumerate(words):
                    for r in range(1, len(w)):
                        rotated = list(words)
                        rotated[i] = w[r:] + w[:r]
                        assert canonical_form(Surface(s, tuple(rotated))) == base
                    reversed_words = list(words)
                    reversed_words[i] = tuple(-x for x in reversed(w))
                    assert canonical_form(Surface(s, tuple(reversed_words))) == base
                for e in range(1, s.n_edges + 1):
                    flipped = tuple(
                        tuple(-x if abs(x) == e else x for x in w) for w in words
                    )
                    assert canonical_form(Surface(s, flipped)) == base
                assert canonical_form(Surface(s, tuple(reversed(words)))) == base
