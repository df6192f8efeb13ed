"""The scan kernel against independent oracles: traced words, a brute-force
filter of every gluing, its own prefix shards, including prefixes that pin
the edges whose closures the kernel looks up, a brute-force replay of those
edges for the tail table, and brute-force curve counts for the count
lookahead."""

import hashlib
import itertools

import pytest

from fakesurfaces import algebra, pipeline, surfaces
from fakesurfaces.skeleta import enumerate_skeleta, skeleton_by_index
from fakesurfaces.surfaces import (
    S3,
    Surface,
    _kernel_tables,
    all_gluing_configs,
    enumerate_surfaces,
    trace_gluing,
)

from oracles import det_cofactor


def _rows_up_to_sign(rows):
    return sorted(max(tuple(r), tuple(-x for x in r)) for r in rows)


@pytest.mark.parametrize("t", (1, 2, 3))
def test_kernel_rows_equal_traced_boundary_matrix(t):
    leaves = 0
    for s in enumerate_skeleta(t):
        for cfg, rows in enumerate_surfaces(s):
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
            if abs(det_cofactor(m)) != 1:
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


@pytest.mark.parametrize("t, shards", ((1, 36), (2, 216), (2, 1296)))
def test_prefixes_pinning_the_tail_edges_give_the_unsharded_scan(tmp_path, t, shards):
    # an m-share sweep scans shard_prefixes(s, 36 * m): at t=1 the 36 of
    # classify's own plan pin both tail edges; at t=2, the 216 of m=6 pin
    # the first tail edge and the 1296 of m=36 pin both
    m = shards // pipeline.SHARE_TASKS
    direct = pipeline.classify(t).records
    assert pipeline.classify(t, jobs=2).records == direct
    out = str(tmp_path / "runs")
    for k in range(1, m + 1):
        pipeline.scan_share(t, k, m, out, jobs=2)
    assert pipeline.classify(t, out_dir=out).records == direct
    for s in enumerate_skeleta(t):
        prefixes = pipeline.shard_prefixes(s, shards)
        assert len(prefixes[0]) >= s.n_edges - 1
        scans = [pipeline._scan_shard((t, s.index, 1, p)) for p in prefixes]
        assert sum(scans, []) == pipeline._scan_shard((t, s.index, 1, ()))


def test_prefix_shards_of_a_skeleton_share_one_tail_table():
    s = skeleton_by_index(4, 10)
    _kernel_tables.cache_clear()
    for p in pipeline.shard_prefixes(s, 36):
        pipeline._scan_shard((4, s.index, 3, p))
    assert _kernel_tables.cache_info().misses == 1
    tails, counts = _kernel_tables(s)[3:5]
    pairings, keys = len(tails), len(counts)
    assert pairings > 0 and keys > 0
    # the unsharded scan meets no pairing the shards did not fill in
    pipeline._scan_shard((4, s.index, 3, ()))
    assert _kernel_tables.cache_info().misses == 1
    assert (len(tails), len(counts)) == (pairings, keys)


def _curve_counts(key, n_nodes):
    """Per permutation p of the first remaining edge, the set of curve counts
    over every gluing of the remaining edges that glues it by p.  A curve is
    a cycle of the open paths' pairing (key) and the sheets' pairing."""
    base = n_nodes - len(key)
    path = {base + k: partner for k, partner in enumerate(key)}
    n_remaining = len(key) // 6
    counts = [set() for _ in S3]
    for perms in itertools.product(range(6), repeat=n_remaining):
        sheet = {}
        for j, pi in enumerate(perms):
            for i in range(3):
                a, b = base + 6 * j + i, base + 6 * j + 3 + S3[pi][i]
                sheet[a], sheet[b] = b, a
        seen = set()
        curves = 0
        for start in path:
            if start in seen:
                continue
            curves += 1
            node = start
            while node not in seen:
                seen.add(node)
                seen.add(path[node])
                node = sheet[path[node]]
        counts[perms[0]].add(curves)
    return counts


@pytest.mark.parametrize("t, index", [(t, s.index) for t in (1, 2, 3)
                                      for s in enumerate_skeleta(t)] + [(4, 10)])
def test_count_lookahead_equals_brute_force_curve_counts(t, index):
    s = skeleton_by_index(t, index)
    for _ in enumerate_surfaces(s):
        pass
    lookahead = _kernel_tables(s)[4]
    if s.n_edges > 2:
        assert lookahead  # every key the scan met at the edges above the tail
    for key, allowed in lookahead.items():
        counts = _curve_counts(key, 6 * s.n_edges)
        want = tuple(
            sum(1 << pi for pi in range(6) if t + 1 - closed in counts[pi])
            for closed in range(t + 2)
        )
        assert allowed == want, (key, allowed, want)


def test_count_lookahead_glues_no_key_and_permutation_twice(monkeypatch):
    s = skeleton_by_index(4, 10)
    glued = []
    real = surfaces._glue

    def counting(end, base, sheets, paths=None, ahead=0, back=0):
        if paths is None:  # a count-lookahead key, glued by one permutation
            glued.append((tuple(end), sheets))
        return real(end, base, sheets, paths, ahead, back)

    monkeypatch.setattr(surfaces, "_glue", counting)
    _kernel_tables.cache_clear()
    for _ in enumerate_surfaces(s, min_disk_len=3):
        pass
    _kernel_tables.cache_clear()
    assert glued and len(set(glued)) == len(glued)


def _tail_curves(key, base, fwd, bwd, pair):
    """The curves permutations pair = (p, q) of the last two edges close,
    found by walking every cycle of the open paths' pairing (key, partners
    of the twelve nodes from base) and the six sheets.  A curve is walked
    from the tail end of the last of its sheets in gluing order, so it is
    (nodes, constant) as the kernel closes it: the nodes whose paths it
    enters there, sorted, and the sheets' packed integers, fwd tail to head
    and bwd head to tail; curves come in the order their last sheets are
    glued."""
    partner = {base + k: x for k, x in enumerate(key)}
    sheets = [(base + 6 * j + i, base + 6 * j + 3 + S3[pi][i])
              for j, pi in enumerate(pair) for i in range(3)]
    across = {}
    for a, b in sheets:
        across[a], across[b] = b, a
    curves, seen = [], set()
    # a curve is first met at its last sheet when the sheets are taken last first
    for a, _ in reversed(sheets):
        if a in seen:
            continue
        nodes, constant, node = [], 0, a
        while True:
            j = (node - base) // 6
            constant += (fwd if (node - base) % 6 < 3 else bwd)[j]
            seen.update((node, across[node]))
            node = across[node]
            nodes.append(node)
            node = partner[node]
            if node == a:
                break
        curves.append((tuple(sorted(nodes)), constant))
    return curves[::-1]


@pytest.mark.parametrize("t, index, min_disk_len",
                         [(t, s.index, 1) for t in (1, 2, 3) for s in enumerate_skeleta(t)]
                         + [(4, 10, 1), (4, 10, 3)])
def test_tail_table_equals_a_brute_force_replay_of_the_last_two_edges(t, index, min_disk_len):
    s = skeleton_by_index(t, index)
    _kernel_tables.cache_clear()
    for _ in enumerate_surfaces(s, min_disk_len=min_disk_len):
        pass
    fwd, bwd, _, tails = _kernel_tables(s)[:4]
    assert tails  # every pairing the scan met at the tail
    base = 6 * (s.n_edges - 2)
    for key, by_count in tails.items():
        pairs = []
        for count, entries in enumerate(by_count):
            for pair, curves in entries:
                want = _tail_curves(key, base, fwd[-2:], bwd[-2:], pair)
                assert len(want) == count, (key, pair)
                assert [(tuple(sorted(ks)), c) for ks, c in curves] == want, (key, pair)
                pairs.append(pair)
            assert [pair for pair, _ in entries] == sorted(pair for pair, _ in entries)
        assert sorted(pairs) == list(itertools.product(range(6), repeat=2))


class _EveryCount(dict):
    """A count lookahead that allows every child."""

    def __missing__(self, key):
        return (0b111111,) * 64


def _stream_digest(s, min_disk_len):
    h = hashlib.sha256()
    for cfg, rows in enumerate_surfaces(s, min_disk_len=min_disk_len):
        h.update(repr((cfg, rows)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("min_disk_len, indices", ((1, (2, 9)), (3, range(1, 11))),
                         ids=("len1-skeleta-2-9", "len3-all-skeleta"))
def test_count_lookahead_keeps_the_leaf_stream(monkeypatch, min_disk_len, indices):
    skeleta = [skeleton_by_index(4, i) for i in indices]
    pruned = []
    for s in skeleta:
        pruned.append(_stream_digest(s, min_disk_len))
        # the tables hold the last skeleton scanned, so look before the next
        masks = _kernel_tables(s)[4].values()
        assert any(m != 0b111111 for allowed in masks for m in allowed)  # it cuts
    real = surfaces._kernel_tables
    monkeypatch.setattr(surfaces, "_kernel_tables",
                        lambda s: real(s)[:4] + (_EveryCount(),) + real(s)[5:])
    assert [_stream_digest(s, min_disk_len) for s in skeleta] == pruned
