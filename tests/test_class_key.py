"""The published (sign-flip) class key: the pruned canonical_form against the
exhaustive oracle in key_oracle, and the cross-check that the quotient the
classifier does not apply would merge no two of its records."""

import random

from fakesurfaces.canon import canonical_form, germ_symmetries
from fakesurfaces.formats import ingest_row, load_reference_listing
from fakesurfaces.surfaces import Surface

import key_oracle


def _image(rng, s, words, symmetries):
    """A seeded rewrite inside the published class: a germ symmetry, then
    per word a rotation and maybe a reversal, a disk shuffle, and sign flips
    of a random set of edges."""
    words = symmetries[rng.randrange(len(symmetries))].apply_words(s, words)
    out = []
    for w in words:
        if rng.random() < 0.5:
            w = tuple(-x for x in reversed(w))
        k = rng.randrange(len(w))
        out.append(w[k:] + w[:k])
    rng.shuffle(out)
    flipped = {e for e in range(1, s.n_edges + 1) if rng.random() < 0.5}
    return tuple(tuple(-x if abs(x) in flipped else x for x in w) for w in out)


def _mismatches(surfaces):
    return [
        (f.skeleton.complexity, f.skeleton.index, f.disks)
        for f in surfaces
        if canonical_form(f) != key_oracle.canonical_form(f)
    ]


def test_canonical_form_matches_oracle_on_classes_rows_and_images(classification):
    results, _ = classification
    surfaces = [rec.surface() for t in (1, 2, 3) for rec in results[t].records]
    surfaces += [ingest_row(row) for t in (1, 2, 3) for row in load_reference_listing(t)]
    rng = random.Random(2024)
    images = []
    for f in surfaces:
        syms = germ_symmetries(f.skeleton)
        images += [Surface(f.skeleton, _image(rng, f.skeleton, f.disks, syms))
                   for _ in range(2)]
    assert len(surfaces) == 258 + 257
    assert _mismatches(surfaces + images) == []


def test_canonical_form_matches_oracle_on_t4_skeleton_9(classification):
    # 128 edge permutations, all starting states of one joint search
    results, _ = classification
    surfaces = [rec.surface() for rec in results[4].records if rec.skeleton_index == 9]
    assert len(surfaces) == 35
    assert _mismatches(surfaces) == []


def test_canonical_form_matches_oracle_on_t4_skeleton_2(classification):
    # skeleton 2 has loops, so its records have one-letter words, whose
    # edges the search leaves undecided
    results, _ = classification
    surfaces = [rec.surface() for rec in results[4].records if rec.skeleton_index == 2]
    assert len(surfaces) == 1171
    assert any(len(w) == 1 for f in surfaces for w in f.disks)
    rng = random.Random(2027)
    syms = germ_symmetries(surfaces[0].skeleton)
    images = [Surface(f.skeleton, _image(rng, f.skeleton, f.disks, syms)) for f in surfaces]
    assert _mismatches(surfaces + images) == []


def test_sign_flip_quotient_merges_no_records(classification):
    # the classifier quotients by germ-symmetry orbits only; the published
    # coarser quotient must not merge any two of its classes at t <= 4
    results, _ = classification
    merges = {t: results[t].sign_flip_merges for t in (1, 2, 3, 4)}
    named = [
        f"t={t} skeleton {results[t].records[a - 1].skeleton_index}: "
        f"record {a} {results[t].records[a - 1].disks} and "
        f"record {b} {results[t].records[b - 1].disks}"
        for t, pairs in merges.items()
        for a, b in pairs
    ]
    assert not named, "; ".join(named)
