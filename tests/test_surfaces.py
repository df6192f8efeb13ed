"""Word validation, corner bookkeeping, gluing trace, enumeration engines."""

import pytest

from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index
from fakesurfaces.surfaces import (
    MalformedWordError,
    Violation,
    all_gluing_configs,
    corners_of,
    enumerate_surfaces,
    reconstruct_config,
    trace_gluing,
    validate_words,
)

ABALONE = ((1, 2, 2, 1, -2), (1,))
NONSPINE = ((1, 2, 2, -1, -2), (1,))


def test_abalone_corners_cover_all_sectors():
    s = skeleton_by_index(1, 1)
    corners = corners_of(ABALONE, s)
    assert sorted(corners[0]) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_repeated_corner_is_rejected():
    s = skeleton_by_index(1, 1)
    v = validate_words(s, [(1, 1, 1), (2, 2, 2)])
    assert isinstance(v, Violation) and v.kind == "type-2"


def test_single_letter_word_corner():
    s = skeleton_by_index(1, 1)
    corners = corners_of([(1,)], s)
    assert corners[0] == [(0, 1)]  # tail and head germ of the first loop


def test_type1_violation():
    s = skeleton_by_index(1, 1)
    v = validate_words(s, [(1, 2), (1,)])
    assert isinstance(v, Violation) and v.kind == "type-1"
    assert "edge 1" in v.detail or "edge 2" in v.detail


def test_both_complexity1_surfaces_validate():
    s = skeleton_by_index(1, 1)
    assert validate_words(s, ABALONE)
    assert validate_words(s, NONSPINE)


def test_malformed_pair_raises_in_corners():
    s = skeleton_by_index(2, 1)
    # edge 2 joins the vertices, edge 1 is the loop at vertex 0: the pair
    # (+2, +4) arrives at vertex 0 but departs from vertex 1
    with pytest.raises(MalformedWordError):
        corners_of([(2, 4)], s)
    v = validate_words(s, [(2, 4)])
    assert isinstance(v, Violation) and v.kind == "syntax"


def test_disk_count_checked_last():
    s = skeleton_by_index(1, 1)
    cfgs = [cfg for cfg in all_gluing_configs(s) if len(trace_gluing(s, cfg)) == 3]
    words = trace_gluing(s, cfgs[0])
    v = validate_words(s, words)
    assert isinstance(v, Violation) and v.kind == "disk-count"


def test_gluing_config_count():
    s = skeleton_by_index(1, 1)
    assert len(list(all_gluing_configs(s))) == 36


@pytest.mark.parametrize("t", (1, 2))
def test_every_trace_satisfies_both_singularity_types(t):
    # acceptance property (a): all configs at t <= 2
    for s in enumerate_skeleta(t):
        for cfg in all_gluing_configs(s):
            words = trace_gluing(s, cfg)
            v = validate_words(s, words)
            assert v or v.kind == "disk-count", (s.index, cfg, words, v)
            assert sum(len(w) for w in words) == 6 * t
            assert reconstruct_config(s, words) == cfg


def test_trace_is_deterministic():
    s = skeleton_by_index(2, 2)
    cfg = (1, 4, 2, 0)
    assert trace_gluing(s, cfg) == trace_gluing(s, cfg)


@pytest.mark.parametrize("t", (1, 2))
def test_enumeration_equals_filtered_scan(t):
    for s in enumerate_skeleta(t):
        scan = [
            (cfg, trace_gluing(s, cfg))
            for cfg in all_gluing_configs(s)
        ]
        want = [(c, w) for c, w in scan if len(w) == t + 1]
        assert [(c, trace_gluing(s, c)) for c, _ in enumerate_surfaces(s)] == want
        want3 = [
            (c, w)
            for c, w in scan
            if len(w) == t + 1 and min(len(x) for x in w) >= 3
        ]
        got3 = [(c, trace_gluing(s, c)) for c, _ in enumerate_surfaces(s, min_disk_len=3)]
        assert got3 == want3


def test_sharded_enumeration_is_a_partition():
    s = skeleton_by_index(3, 2)
    full = list(enumerate_surfaces(s))
    sharded = []
    for a in range(6):
        sharded.extend(enumerate_surfaces(s, prefix=(a,)))
    assert sharded == full


def test_enumeration_equals_filtered_scan_complexity3():
    # heavier single-skeleton cross-check of the two engines
    s = skeleton_by_index(3, 3)
    flat = []
    for cfg in all_gluing_configs(s):
        words = trace_gluing(s, cfg)
        if len(words) == 4:
            flat.append((cfg, words))
    assert [(c, trace_gluing(s, c)) for c, _ in enumerate_surfaces(s)] == flat
