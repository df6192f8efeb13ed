"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL report.

Three criteria pin totals from the published classification that are
provably short (see tests/test_reference_gap.py for the mechanical proof
and the analysis writeup in the repository notes): the published complexity
3 and 4 totals miss non-spine surfaces that this pipeline finds and
certifies.  Those assertions are kept faithful to the published figures and
fail honestly; every datum of the published material that can be checked
independently (skeleton tables, all 257 printed rows with all their flags,
spine counts, the named per-skeleton counts 1171 and 35) reproduces
exactly.
"""

import hashlib
import os
import random
import time
from collections import Counter
from multiprocessing import Pool

import pytest

from fakesurfaces.algebra import (
    bp_complexity,
    boundary_matrix,
    coset_enumerate,
    det_bareiss,
    parse_presentation,
)
from fakesurfaces.canon import canonical_form, canonical_key, germ_symmetries
from fakesurfaces.formats import ingest_row, load_reference_listing
from fakesurfaces.pipeline import classify
from fakesurfaces.skeleta import enumerate_skeleta, skeleton_stats
from fakesurfaces.surfaces import (
    Surface,
    all_gluing_configs,
    enumerate_surfaces,
    trace_gluing,
    validate_words,
)
from fakesurfaces.topology import disk_flags

from oracles import det_cofactor


def default_jobs() -> int:
    env = os.environ.get("FAKESURFACES_JOBS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def report(n: int, ok: bool, desc: str):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


# criterion 1 -----------------------------------------------------------------

TABLE2 = {
    1: (0, 0, 1),
    2: (1, 0, 1),
    3: (1, 1, 1, 1),
    4: (3, 2, 3, 1, 1),
    5: (6, 7, 7, 5, 2, 1),
    6: (19, 21, 28, 16, 10, 2, 1),
    7: (50, 85, 98, 72, 36, 14, 3, 1),
}
TABLE3 = {
    1: (1, 0, 0),
    2: (1, 1, 0),
    3: (3, 1, 0),
    4: (7, 3, 0),
    5: (22, 5, 1),
    6: (78, 18, 1),
    7: (309, 48, 2),
}
TOTALS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 28, 6: 97, 7: 359}


def test_criterion_1_skeleton_census():
    enumerate_skeleta.cache_clear()
    start = time.time()
    problems = []
    for t in range(1, 8):
        ske = enumerate_skeleta(t)
        if len(ske) != TOTALS[t]:
            problems.append(f"t={t} total {len(ske)} != {TOTALS[t]}")
        loops = Counter(skeleton_stats(s)["self_loops"] for s in ske)
        girth = Counter(skeleton_stats(s)["girth"] for s in ske)
        if tuple(loops.get(k, 0) for k in range(len(TABLE2[t]))) != TABLE2[t]:
            problems.append(f"t={t} self-loop histogram {dict(loops)}")
        if tuple(girth.get(k, 0) for k in (1, 2, 3)) != TABLE3[t]:
            problems.append(f"t={t} girth histogram {dict(girth)}")
    elapsed = time.time() - start
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    report(1, not problems,
           f"skeleton census t=1..7 in {elapsed:.1f}s" +
           ("" if not problems else "; " + "; ".join(problems)))


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_classification_counts(classification):
    results, timings = classification
    problems = []
    if results[1].total != 2:
        problems.append(f"classify(1)={results[1].total} != 2")
    if results[2].total != 17 or results[2].per_skeleton() != {1: 15, 2: 2}:
        problems.append(f"classify(2)={results[2].total} split {results[2].per_skeleton()}")
    if results[3].total != 238:
        problems.append(
            f"classify(3)={results[3].total} != published 238 "
            f"(split {list(results[3].per_skeleton().values())}; the published "
            f"list provably misses one class, see test_reference_gap)"
        )
    split4 = results[4].per_skeleton()
    if results[4].total != 4618:
        problems.append(
            f"classify(4)={results[4].total} != published 4618 "
            f"(the named counts do match: skeleton 2 -> {split4.get(2)}, "
            f"skeleton 9 -> {split4.get(9)})"
        )
    if split4.get(2) != 1171:
        problems.append(f"skeleton 2 at t=4: {split4.get(2)} != 1171")
    if split4.get(9) != 35:
        problems.append(f"skeleton 9 at t=4: {split4.get(9)} != 35")
    if timings[1] + timings[2] + timings[3] >= 60:
        problems.append(f"t<=3 took {timings[1]+timings[2]+timings[3]:.0f}s, budget 60s")
    if timings[4] >= 4 * 3600:
        problems.append(f"t=4 took {timings[4]:.0f}s, budget a few hours")
    report(2, not problems,
           f"classification counts (t<=3 in {timings[1]+timings[2]+timings[3]:.1f}s, "
           f"t=4 in {timings[4]:.0f}s)" + ("" if not problems else "; " + "; ".join(problems)))


# criterion 3 -----------------------------------------------------------------

TABLE1 = {
    1: (1, 1, 0),
    2: (3, 6, 6, 2),
    3: (20, 54, 89, 62, 13),
    4: (128, 607, 1450, 1533, 745, 155),
}


def test_criterion_3_bundle_histograms(classification):
    results, _ = classification
    problems = []
    for t, row in TABLE1.items():
        hist = results[t].t_histogram()
        got = tuple(hist.get(k, 0) for k in range(len(row)))
        if got != row:
            problems.append(
                f"t={t}: derived {got} != published {row}"
                + ("" if t < 3 else " (missing classes are all non-spines)")
            )
    report(3, not problems,
           "bundle-count histograms" + ("" if not problems else "; " + "; ".join(problems)))


# criterion 4 -----------------------------------------------------------------


def test_criterion_4_reference_bijection(classification):
    results, _ = classification
    problems = []
    flags_checked = 0
    keys_by = {}
    for t in (2, 3):
        for row in load_reference_listing(t):
            f = ingest_row(row)
            derived = tuple(disk_flags(f))
            flags_checked += len(derived)
            if derived != row.flags:
                problems.append(f"flag mismatch at {row}")
            keys_by.setdefault((t, row.skeleton_index), set()).add(canonical_key(f))
    mine = {}
    for t in (2, 3):
        for rec in results[t].records:
            s = rec.surface()
            mine.setdefault((t, rec.skeleton_index), set()).add(canonical_key(s))
    for key in sorted(mine):
        if keys_by.get(key, set()) != mine[key]:
            extra = len(mine[key] - keys_by.get(key, set()))
            missing = len(keys_by.get(key, set()) - mine[key])
            problems.append(
                f"t={key[0]} skeleton {key[1]}: published {len(keys_by.get(key, set()))} "
                f"classes vs derived {len(mine[key])} ({extra} underived in print, "
                f"{missing} unmatched)"
            )
    report(4, not problems,
           f"reference listing round trip ({flags_checked} printed flags re-derived)"
           + ("" if not problems else "; " + "; ".join(problems)))


# criterion 5 -----------------------------------------------------------------


def test_criterion_5_contractibility(classification):
    results, timings = classification
    bad = [
        (t, rec.skeleton_index, rec.disks)
        for t in (1, 2, 3, 4)
        for rec in results[t].records
        if rec.pi1 != "trivial"
    ]
    ok = not bad and timings[4] < 3600
    report(5, ok,
           f"fundamental groups proven trivial for all "
           f"{sum(results[t].total for t in (1, 2, 3, 4))} surfaces at t<=4"
           + ("" if not bad else f"; failures: {bad[:3]}"))


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_embedded_disks(classification):
    results, _ = classification
    missing = [
        (t, rec.skeleton_index, rec.disks)
        for t in (1, 2, 3, 4)
        for rec in results[t].records
        if not any(emb for emb, _ in rec.flags)
    ]
    detail = f"every surface at t<=4 has an embedded disk"
    t5_checked = 0
    if os.environ.get("FAKESURFACES_T5"):
        out_dir = os.environ.get("FAKESURFACES_OUT")
        r5 = classify(5, min_disk_len=3, jobs=default_jobs(), out_dir=out_dir)
        t5_checked = r5.total
        missing += [
            (5, rec.skeleton_index, rec.disks)
            for rec in r5.records
            if not any(emb for emb, _ in rec.flags)
        ]
        detail += f"; extended run: {r5.total} surfaces at t=5 without small disks"
    else:
        detail += " (extended t=5 run skipped; set FAKESURFACES_T5=1)"
    report(6, not missing, detail + ("" if not missing else f"; failures: {missing[:3]}"))


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_negative_control():
    p = parse_presentation("x,y|x^5y^-3,y^3(xy)^-2")
    v = coset_enumerate(p)
    ok = v.status == "finite" and v.order == 120
    report(7, ok, f"binary icosahedral presentation yields {v.status}:{v.order}")


# criterion 8 -----------------------------------------------------------------


def test_criterion_8a_all_gluings_validate():
    bad = 0
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            for cfg in all_gluing_configs(s):
                v = validate_words(s, trace_gluing(s, cfg))
                if not v and v.kind != "disk-count":
                    bad += 1
    report(8, bad == 0, f"(a) every gluing at t<=2 traces to a valid word system")


def _invariance_worker(args):
    t, index, words, seed, sequences = args
    from fakesurfaces.skeleta import skeleton_by_index

    s = skeleton_by_index(t, index)
    rng = random.Random(seed)
    base = canonical_form(Surface(s, words))
    syms = germ_symmetries(s)
    failures = 0
    for _ in range(sequences):
        current = [list(w) for w in words]
        current = tuple(tuple(w) for w in current)
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(5)
            ws = list(current)
            if kind == 0:
                sym = syms[rng.randrange(len(syms))]
                current = sym.apply_words(s, ws)
            elif kind == 1:
                i = rng.randrange(len(ws))
                r = rng.randrange(len(ws[i]))
                ws[i] = ws[i][r:] + ws[i][:r]
                current = tuple(ws)
            elif kind == 2:
                i = rng.randrange(len(ws))
                ws[i] = tuple(-x for x in reversed(ws[i]))
                current = tuple(ws)
            elif kind == 3:
                rng.shuffle(ws)
                current = tuple(ws)
            else:
                e = rng.randrange(s.n_edges) + 1
                current = tuple(
                    tuple(-x if abs(x) == e else x for x in w) for w in ws
                )
        if canonical_form(Surface(s, current)) != base:
            failures += 1
    return failures


def test_criterion_8b_canonical_form_invariance(classification):
    results, _ = classification
    tasks = []
    for t in (1, 2, 3):
        for i, rec in enumerate(results[t].records):
            tasks.append((t, rec.skeleton_index, rec.disks, 1000 + i, 1000))
    with Pool(default_jobs()) as pool:
        failures = sum(pool.map(_invariance_worker, tasks, chunksize=4))
    report(8, failures == 0,
           f"(b) canonical form invariant under 1000 random move sequences for "
           f"each of {len(tasks)} surfaces at t<=3"
           + ("" if not failures else f"; {failures} sequences disagreed"))


def test_criterion_8c_determinant_dual_oracle():
    checked = 0
    for t in (1, 2, 3):
        for s in enumerate_skeleta(t):
            for cfg, _ in enumerate_surfaces(s):
                m = boundary_matrix(Surface(s, trace_gluing(s, cfg)))
                assert det_bareiss(m) == det_cofactor(m)
                checked += 1
    report(8, True, f"(c) determinant oracles agree on {checked} boundary maps")


def test_criterion_8d_shard_determinism():
    digests = set()
    for shards in (1, 4, 16):
        r = classify(3, shards=shards)
        digests.add(
            hashlib.sha256("\n".join(rec.to_json() for rec in r.records).encode()).hexdigest()
        )
    report(8, len(digests) == 1,
           f"(d) classify(3) hashes identical across 1/4/16-way sharding")


# criterion 9 -----------------------------------------------------------------


def test_criterion_9_presentation_complexity():
    cases = [
        ("x|x^3", 1),
        ("x,y|xyxy^-1x^-1y^-1", 3),
        ("x|x^2", 0),
        ("x|x^4", 2),
        ("x|x^5", 3),
        ("x,y|x^2,y^2", 0),
        ("x,y|x^3,y^2", 1),
        ("x,y|xyXY,x^2", 2),
        ("a,b,c|abc,bca,cab", 5),
        ("x,y|x^5y^-3,y^3(xy)^-2", 16),
        ("a,b|a^2b^2,ab^-1", 2 * 6 - 8 - 3 + 2),
    ]
    for text, want in cases:
        assert bp_complexity(parse_presentation(text)) == want, text
    for text in ("x,y|x^3", "x|x"):
        with pytest.raises(ValueError):
            bp_complexity(parse_presentation(text))
    report(9, True, f"(bp formula matches hand substitution on {len(cases)} presentations)")
