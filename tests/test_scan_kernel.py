"""The scan kernel against independent oracles: traced words, a brute-force
filter of every gluing, and its own prefix shards."""

import pytest

from fakesurfaces import algebra, pipeline
from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index
from fakesurfaces.surfaces import (
    Surface,
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
