"""The scan kernel against independent oracles: traced words, a brute-force
filter of every gluing, and its own prefix shards, including prefixes that
pin the edges whose closures the kernel looks up."""

import pytest

from fakesurfaces import algebra, pipeline
from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index
from fakesurfaces.surfaces import (
    Surface,
    _kernel_tables,
    all_gluing_configs,
    enumerate_surfaces,
    trace_gluing,
)


def _rows_up_to_sign(rows):
    return sorted(max(tuple(r), tuple(-x for x in r)) for r in rows)


@pytest.mark.parametrize("t", (1, 2, 3))
def test_kernel_rows_equal_traced_boundary_matrix(t):
    leaves = 0
    for s in enumerate_skeleta(t):
        columns = algebra.boundary_columns(s)
        for cfg, rows in enumerate_surfaces(s, columns=columns):
            m = algebra.boundary_matrix(Surface(s, trace_gluing(s, cfg)))
            assert _rows_up_to_sign(rows) == _rows_up_to_sign(m), (s.index, cfg)
            leaves += 1
    assert leaves > 0


@pytest.mark.parametrize("t", (1, 2, 3))
def test_scan_survivors_equal_brute_force_filter(t):
    for s in enumerate_skeleta(t):
        want = {1: [], 3: []}
        for cfg in all_gluing_configs(s):
            words = trace_gluing(s, cfg)
            if len(words) != t + 1:
                continue
            m = algebra.boundary_matrix(Surface(s, words))
            if abs(algebra.det_cofactor(m)) != 1:
                continue
            for min_len, kept in want.items():
                if min(map(len, words)) >= min_len:
                    kept.append(cfg)
        for min_len, kept in want.items():
            got = pipeline._scan_shard((t, s.index, min_len, ()))
            assert got == kept, (s.index, min_len)


@pytest.mark.parametrize("min_disk_len", (1, 3))
def test_depth2_prefix_shards_concatenate_to_full_scan_t4(min_disk_len):
    s = skeleton_by_index(4, 10)
    prefixes = pipeline.shard_prefixes(s, 36)
    assert len(prefixes) == 36 and all(len(p) == 2 for p in prefixes)
    sharded = []
    for p in prefixes:
        sharded += pipeline._scan_shard((4, s.index, min_disk_len, p))
    assert sharded == pipeline._scan_shard((4, s.index, min_disk_len, ()))
    assert sharded


@pytest.mark.parametrize("t, shards", ((1, 12), (2, 216), (2, 1296)))
def test_prefixes_pinning_the_tail_edges_give_the_unsharded_scan(t, shards):
    # 12 shards (classify(1, jobs=2)) pin both tail edges at t=1; at t=2,
    # 216 shards pin the first tail edge and 1296 pin both
    jobs2 = pipeline.classify(t, jobs=2, shards=None if t == 1 else shards)
    assert jobs2.records == pipeline.classify(t).records
    for s in enumerate_skeleta(t):
        prefixes = pipeline.shard_prefixes(s, shards)
        assert len(prefixes[0]) >= s.n_edges - 1
        scans = [pipeline._scan_shard((t, s.index, 1, p)) for p in prefixes]
        assert sum(scans, []) == pipeline._scan_shard((t, s.index, 1, ()))


def test_prefix_shards_of_a_skeleton_share_one_tail_table():
    s = skeleton_by_index(4, 10)
    columns = tuple(algebra.boundary_columns(s))
    _kernel_tables.cache_clear()
    for p in pipeline.shard_prefixes(s, 36):
        pipeline._scan_shard((4, s.index, 3, p))
    assert _kernel_tables.cache_info().misses == 1
    tails = _kernel_tables(s, columns)[3]
    pairings = len(tails)
    assert pairings > 0
    # the unsharded scan meets no pairing the shards did not fill in
    pipeline._scan_shard((4, s.index, 3, ()))
    assert _kernel_tables.cache_info().misses == 1
    assert len(tails) == pairings
