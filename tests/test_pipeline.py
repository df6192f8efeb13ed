"""Pipeline: classification runs, determinism, persistence, verification, CLI."""

import hashlib
import json
import os
import re

import pytest

from fakesurfaces import cli, pipeline
from fakesurfaces.canon import config_orbit, geometric_form
from fakesurfaces.formats import (
    ListingRow,
    SurfaceRecord,
    format_listing_line,
    load_reference_listing,
    read_records,
)
from fakesurfaces.pipeline import (
    classify,
    emit_table1,
    emit_table2,
    emit_table3,
    emit_tables,
    stats_spine_ratio,
    verify_file,
)
from fakesurfaces.skeleta import skeleton_by_index
from fakesurfaces.surfaces import Surface, trace_gluing
from fakesurfaces.topology import disk_flags


def _digest(result):
    return hashlib.sha256(
        "\n".join(r.to_json() for r in result.records).encode()
    ).hexdigest()


def test_classify_complexity1():
    r = classify(1)
    assert r.total == 2
    assert r.per_skeleton() == {1: 2}
    assert r.spines == 1
    assert r.t_histogram() == {0: 1, 1: 1}


def test_classify_complexity2():
    r = classify(2)
    assert r.total == 17
    assert r.per_skeleton() == {1: 15, 2: 2}
    assert r.t_histogram() == {0: 3, 1: 6, 2: 6, 3: 2}
    assert r.pi1_summary() == {"trivial": 17}


def test_classify_records_are_valid_and_flagged():
    from fakesurfaces.surfaces import validate_words
    from fakesurfaces.skeleta import skeleton_by_index

    r = classify(2)
    for rec in r.records:
        s = skeleton_by_index(rec.complexity, rec.skeleton_index)
        assert validate_words(s, rec.disks)
        assert len(rec.flags) == len(rec.disks)
        assert rec.acyclic is True


def test_determinism_across_shard_plans(tmp_path, monkeypatch):
    digests = {_digest(classify(2))}
    scanned = _counting(monkeypatch, "classify_skeleton")
    for m in (1, 4, 16):
        out = str(tmp_path / f"m{m}")
        for k in range(1, m + 1):
            pipeline.scan_share(2, k, m, out)
        digests.add(_digest(classify(2, out_dir=out)))
    assert scanned == []  # every skeleton was merged from its sweep
    assert len(digests) == 1


def test_determinism_with_jobs():
    a = _digest(classify(2))
    b = _digest(classify(2, jobs=2))
    assert a == b


def test_resume_reuses_completed_skeletons(tmp_path):
    out = str(tmp_path / "run")
    first = classify(2, out_dir=out)
    manifest_path = os.path.join(out, "manifest_t2.json")
    state = json.load(open(manifest_path))
    assert set(state["skeletons"]) == {"1", "2"}
    # marker for detecting a rescan: clobber a part file hash check by
    # keeping everything; a matching rerun must load, not recompute
    before = os.stat(os.path.join(out, "surfaces_t2_g1.jsonl")).st_mtime_ns
    second = classify(2, out_dir=out)
    after = os.stat(os.path.join(out, "surfaces_t2_g1.jsonl")).st_mtime_ns
    assert before == after
    assert _digest(first) == _digest(second)


def test_resume_restarts_on_option_change(tmp_path):
    out = str(tmp_path / "run")
    classify(2, out_dir=out)
    r = classify(2, min_disk_len=3, out_dir=out)
    state = json.load(open(os.path.join(out, "manifest_t2.json")))
    assert state["options"]["min_disk_len"] == 3
    assert r.total < 17  # small disks excluded


def test_interrupted_run_resumes_to_same_hashes(tmp_path):
    out = str(tmp_path / "run")
    full = classify(2, out_dir=out)
    # simulate a crash after the first skeleton: drop the second part file
    os.remove(os.path.join(out, "surfaces_t2_g2.jsonl"))
    resumed = classify(2, out_dir=out)
    assert _digest(resumed) == _digest(full)


def test_min_disk_len_filter():
    r = classify(2, min_disk_len=3)
    for rec in r.records:
        assert all(len(w) >= 3 for w in rec.disks)


def test_emit_tables_shapes():
    results = {t: classify(t) for t in (1, 2)}
    t1 = emit_table1(results)
    assert "50.0" in t1 and "17.6" in t1 and "3/17" in t1
    t2 = emit_table2(2)
    assert t2.splitlines()[1].split("\t") == ["1", "0", "0", "1", "1"]
    t3 = emit_table3(2)
    assert t3.splitlines()[2].split("\t") == ["2", "1", "1", "0", "2"]
    assert "shortest cycle" in emit_tables(results)
    with pytest.raises(ValueError):
        emit_tables({2: results[2]})


def test_spine_ratio_rows():
    rows = stats_spine_ratio({t: classify(t) for t in (1, 2)})
    assert rows[0] == {"complexity": 1, "spines": 1, "total": 2, "percent": 50.0}
    assert rows[1]["percent"] == 17.6  # recomputed from 3/17, not the printed 16.7


def test_verify_reference_listing(tmp_path):
    path = tmp_path / "c2.txt"
    rows = load_reference_listing(2)
    path.write_text("\n".join(format_listing_line(r) for r in rows) + "\n")
    report = verify_file(str(path))
    assert report["records"] == 17
    assert report["verified"] == 17
    assert report["mismatches"] == []


def test_verify_detects_single_flipped_flag(tmp_path):
    rows = load_reference_listing(2)
    row = rows[0]
    flipped = ListingRow(
        row.complexity,
        row.skeleton_index,
        row.disks,
        ((not row.flags[0][0], row.flags[0][1]),) + row.flags[1:],
    )
    path = tmp_path / "bad.txt"
    path.write_text(format_listing_line(flipped) + "\n")
    report = verify_file(str(path))
    assert len(report["mismatches"]) == 1
    assert report["mismatches"][0]["field"] == "disk 1 flags"


def test_verify_reports_parse_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 | 1 : Y\n")
    with pytest.raises(ValueError, match="line 1"):
        verify_file(str(path))


# ---------------------------------------------------------------------------
# CLI


def test_cli_skeleta(capsys):
    assert cli.main(["skeleta", "--complexity", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["adjacency"] == [2, 2, 2, 2]
    assert rec["self_loops"] == 2 and rec["girth"] == 1


def test_cli_bp(capsys):
    assert cli.main(["bp", "x|x^3"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_classify_and_tables(tmp_path, capsys):
    out = str(tmp_path / "runs")
    for t in ("1", "2"):
        assert cli.main(["classify", "--complexity", t, "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["tables", "--max-complexity", "2", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "3/17" in text
    # refuse incomplete runs
    assert cli.main(["tables", "--max-complexity", "3", "--out", out]) == 1


def test_cli_tables_refuses_a_run_filtered_by_disk_length(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["classify", "--complexity", "1", "--out", out]) == 0
    argv = ["classify", "--complexity", "2", "--out", out]
    assert cli.main(argv + ["--min-disk-len", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["tables", "--max-complexity", "2", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "complexity 2" in err and "length at least 3" in err
    # the census run of complexity 2 replaces it
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["tables", "--max-complexity", "2", "--out", out]) == 0
    assert "3/17" in capsys.readouterr().out


def test_load_census_refuses_a_run_of_some_skeleta(tmp_path):
    out = str(tmp_path / "runs")
    classify(2, skeleton_indices=[2], out_dir=out)
    with pytest.raises(ValueError, match=r"complexity 2: .* only skeleta \[2\]"):
        pipeline.load_census(out, 2)
    classify(2, out_dir=out)
    assert pipeline.load_census(out, 2).total == 17


def test_load_census_refuses_a_surface_file_its_manifest_does_not_describe(
        tmp_path, monkeypatch):
    # a census run stopped after a filtered run leaves the filtered surface
    # file under a manifest that records min_disk_len 1
    out = str(tmp_path / "runs")
    classify(2, min_disk_len=3, out_dir=out)
    real = pipeline.classify_skeleton

    def stopped(s, *args, **kwargs):
        if s.index == 2:
            raise RuntimeError("stopped")
        return real(s, *args, **kwargs)

    monkeypatch.setattr(pipeline, "classify_skeleton", stopped)
    with pytest.raises(RuntimeError, match="stopped"):
        classify(2, out_dir=out)
    state = json.load(open(os.path.join(out, "manifest_t2.json")))
    assert state["options"]["min_disk_len"] == 1
    with pytest.raises(ValueError, match="complexity 2: .* is not the finished run"):
        pipeline.load_census(out, 2)


@pytest.mark.parametrize("t, jobs", ((2, "1"), (3, "2")), ids=("t2", "t3-jobs2"))
def test_cli_shard_sweep_matches_direct_run(tmp_path, capsys, t, jobs):
    direct = classify(t)
    out = str(tmp_path / "sharded")
    argv = ["classify", "--complexity", str(t), "--out", out]
    for k in ("1", "2", "3"):
        assert cli.main(argv + ["--shard", f"{k}/3", "--jobs", jobs]) == 0
    assert cli.main(argv) == 0
    capsys.readouterr()
    merged = read_records(os.path.join(out, f"surfaces_t{t}.jsonl"))
    assert merged == direct.records


def test_cli_verify_pi1_canon(tmp_path, capsys):
    path = tmp_path / "rows.txt"
    rows = load_reference_listing(1)
    path.write_text("\n".join(format_listing_line(r) for r in rows) + "\n")
    assert cli.main(["verify", str(path)]) == 0
    assert cli.main(["pi1", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trivial (proven)" in out
    assert cli.main(["canon", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("1 1 | ")


def test_cli_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(pipeline.OUT_DIR_ENV, str(tmp_path / "envout"))
    assert cli.main(["classify", "--complexity", "1"]) == 0
    capsys.readouterr()
    assert os.path.exists(str(tmp_path / "envout" / "surfaces_t1.jsonl"))


def test_verify_full_reference_complexity3(tmp_path):
    path = tmp_path / "c3.txt"
    rows = load_reference_listing(3)
    path.write_text("\n".join(format_listing_line(r) for r in rows) + "\n")
    report = verify_file(str(path))
    assert report["records"] == 238
    assert report["verified"] == 238


def test_classify_writes_listing_twin(tmp_path):
    out = str(tmp_path / "run")
    classify(1, out_dir=out)
    listing = (tmp_path / "run" / "listing_t1.txt").read_text().splitlines()
    assert len(listing) == 2
    assert listing[0].startswith("1 1 | ")


def test_classify_skeleton_subset():
    r = classify(2, skeleton_indices=[2])
    assert r.per_skeleton() == {2: 2}


def test_classify_rejects_unknown_skeleton_indices(tmp_path):
    # t=2 has two skeleta; an index past them must fail before any output
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=r"unknown skeleton indices \[0, 7\]"):
        classify(2, skeleton_indices=[1, 7, 0], out_dir=str(out))
    assert not out.exists()


def test_resume_restarts_on_source_change(tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    computed = []
    real = pipeline.classify_skeleton

    def counting(s, *args, **kwargs):
        computed.append(s.index)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(pipeline, "classify_skeleton", counting)
    first = classify(2, out_dir=out)
    assert computed == [1, 2]
    monkeypatch.setattr(pipeline, "source_fingerprint", lambda: "other code")
    second = classify(2, out_dir=out)
    assert computed == [1, 2, 1, 2]  # recomputed, not loaded
    state = json.load(open(os.path.join(out, "manifest_t2.json")))
    assert state["options"]["source"] == "other code"
    classify(2, out_dir=out)
    assert computed == [1, 2, 1, 2]  # same code again: loaded
    assert _digest(first) == _digest(second)


def test_verify_detects_duplicate_record(tmp_path):
    out = str(tmp_path / "run")
    classify(2, out_dir=out)
    path = tmp_path / "run" / "surfaces_t2.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[:1]) + "\n")
    report = verify_file(str(path))
    assert report["records"] == 18
    assert report["verified"] == 17
    assert report["mismatches"] == [
        {"record": 18, "field": "duplicate", "got": "same class as record 1"}
    ]
    assert report["sign_flip_merges"] == []


def test_sign_flip_merges_are_reported_not_applied(tmp_path, monkeypatch, capsys):
    # no two t <= 4 classes share a published key, so stand in a key that
    # puts every surface of a skeleton in one published class
    monkeypatch.setattr(pipeline.canon, "canonical_key", lambda f: b"one class")
    out = str(tmp_path / "run")
    result = classify(2, out_dir=out)
    assert result.per_skeleton() == {1: 15, 2: 2}
    want = [(1, n) for n in range(2, 16)] + [(16, 17)]
    assert result.sign_flip_merges == want
    assert _digest(result) == _digest(classify(2))  # nothing merged
    state = json.load(open(os.path.join(out, "manifest_t2.json")))
    assert state["combined"]["sign_flip_merges"] == [list(p) for p in want]
    path = os.path.join(out, "surfaces_t2.jsonl")
    report = verify_file(path)
    assert (report["verified"], report["mismatches"]) == (17, [])
    assert report["sign_flip_merges"] == want
    assert cli.main(["verify", path]) == 0
    assert "records 16 and 17: one published (sign-flip) class" in capsys.readouterr().out


def test_cli_merge_ignores_shards_of_other_options(tmp_path, capsys):
    out = str(tmp_path / "runs")
    argv = ["classify", "--complexity", "2", "--out", out]
    assert cli.main(argv + ["--min-disk-len", "3", "--shard", "1/1"]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert "complexity 2: 17 surfaces" in capsys.readouterr().out
    state = json.load(open(os.path.join(out, "manifest_t2.json")))
    assert state["options"]["min_disk_len"] == 1
    assert state["combined"]["surfaces"] == 17


def test_cli_merged_skeleta_record_shard_scan_seconds(tmp_path, capsys):
    out = str(tmp_path / "runs")
    argv = ["classify", "--complexity", "2", "--out", out]
    for k in ("1", "2"):
        assert cli.main(argv + ["--shard", f"{k}/2"]) == 0
    # stand in a known scan time in every shard header
    shard_dir = os.path.join(out, "shards")
    for name in os.listdir(shard_dir):
        path = os.path.join(shard_dir, name)
        head, rest = open(path).read().split("\n", 1)
        header = dict(json.loads(head[2:]), seconds=5.0)
        open(path, "w").write("# " + json.dumps(header) + "\n" + rest)
    assert cli.main(argv) == 0
    capsys.readouterr()
    state = json.load(open(os.path.join(out, "manifest_t2.json")))
    assert [meta["seconds"] >= 10.0 for meta in state["skeletons"].values()] == [True, True]
    assert read_records(os.path.join(out, "surfaces_t2.jsonl")) == classify(2).records


def _counting(monkeypatch, name):
    """Skeleton indices of every call of pipeline.<name> from now on."""
    calls = []
    real = getattr(pipeline, name)

    def counting(s, *args, **kwargs):
        calls.append(s.index)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(pipeline, name, counting)
    return calls


def test_merge_takes_the_complete_plan_among_mixed_plans(tmp_path, monkeypatch):
    out = str(tmp_path / "runs")
    for k in (1, 2):
        pipeline.scan_share(2, k, 2, out)
    pipeline.scan_share(2, 1, 3, out)  # a stray share of another plan
    scanned = _counting(monkeypatch, "classify_skeleton")
    assert classify(2, out_dir=out).records == classify(2).records
    assert scanned == [1, 2]  # only the direct run scanned: the 2/2 sweep merged


def test_a_share_gives_every_skeleton_many_scan_tasks(tmp_path, monkeypatch):
    tasks = []
    real = pipeline._scan_shard

    def counting(args):
        tasks.append(args)
        return real(args)

    monkeypatch.setattr(pipeline, "_scan_shard", counting)
    pipeline.scan_share(2, 2, 3, str(tmp_path / "runs"))
    for s in pipeline.enumerate_skeleta(2):
        prefixes = [prefix for _, index, _, prefix in tasks if index == s.index]
        # share 2 of 3 is every third of the 216 depth-3 prefixes
        assert len(prefixes) == 72 >= pipeline.SHARE_TASKS
        assert prefixes == pipeline.shard_prefixes(s, 216)[1::3]


def test_rerun_after_merge_loads_from_the_manifest(tmp_path, monkeypatch):
    out = str(tmp_path / "runs")
    for k in (1, 2):
        pipeline.scan_share(2, k, 2, out, min_disk_len=3)
    reduced = _counting(monkeypatch, "reduce_survivors")
    first = classify(2, min_disk_len=3, out_dir=out)
    assert reduced == [1, 2]
    second = classify(2, min_disk_len=3, out_dir=out)
    assert reduced == [1, 2]  # no reduce on the second run
    assert _digest(first) == _digest(second)


@pytest.mark.parametrize("line, problem", (
    ("0,1,", "invalid literal for int"),  # a truncated line
    ("0,1,2", "not a configuration of 4 edges"),
    ("0,1,2,6", "not a configuration of 4 edges"),
))
def test_bad_shard_line_fails_with_file_and_line(tmp_path, line, problem):
    out = str(tmp_path / "runs")
    pipeline.scan_share(2, 1, 1, out)
    path = os.path.join(out, "shards", "t2_g1_shard1of1.txt")
    lines = open(path).read().splitlines()
    lines[2] = line
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {problem}")):
        classify(2, out_dir=out)


def test_verify_reports_a_representative_not_in_canonical_form(tmp_path):
    out = str(tmp_path / "run")
    classify(2, out_dir=out)
    path = tmp_path / "run" / "surfaces_t2.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    word = rec["disks"][-1]
    rec["disks"][-1] = word[1:] + word[:1]  # the same surface, one word rotated
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    report = verify_file(str(path))
    assert report["verified"] == 16
    assert report["mismatches"] == [{
        "record": 1, "field": "representative",
        "got": "not the canonical words of its class",
    }]


def test_verify_reports_missing_and_extra_flag_pairs(tmp_path):
    out = str(tmp_path / "run")
    classify(2, out_dir=out)
    path = tmp_path / "run" / "surfaces_t2.jsonl"
    lines = path.read_text().splitlines()
    short, long = json.loads(lines[0]), json.loads(lines[1])
    short["flags"] = short["flags"][:-1]
    long["flags"] = long["flags"] + [["Y", "Y"]]
    lines[:2] = [json.dumps(short), json.dumps(long)]
    path.write_text("\n".join(lines) + "\n")
    report = verify_file(str(path))
    assert report["verified"] == 15
    assert report["mismatches"] == [
        {"record": 1, "field": "flags", "got": "stored 2 pairs for 3 disks"},
        {"record": 2, "field": "flags", "got": "stored 4 pairs for 3 disks"},
    ]


def test_verify_reports_a_stored_acyclic_claim_once(tmp_path):
    # gluing (1, 1) of the complexity-1 skeleton has t+1 curves and
    # boundary determinant 3
    s = skeleton_by_index(1, 1)
    f = Surface(s, geometric_form(Surface(s, trace_gluing(s, (1, 1)))))
    flags = tuple(disk_flags(f))
    rec = SurfaceRecord(1, 1, f.disks, flags, acyclic=True,
                        spine=all(t for _, t in flags), pi1="finite:3")
    path = tmp_path / "cyclic.jsonl"
    path.write_text(rec.to_json() + "\n")
    report = verify_file(str(path))
    assert report["mismatches"] == [
        {"record": 1, "field": "acyclic", "got": "record is not acyclic"}
    ]


@pytest.mark.parametrize("change, violation", [
    (lambda disks: disks[:-1] + [disks[-1] + disks[-1][:1]], "edge 1 occurs 4 times, not 3"),
    (lambda disks: disks[:-1], "edge 1 occurs 2 times, not 3"),
], ids=["one-letter-appended", "one-disk-missing"])
def test_verify_names_the_violation_of_invalid_words(tmp_path, change, violation):
    out = str(tmp_path / "run")
    classify(2, out_dir=out)
    path = tmp_path / "run" / "surfaces_t2.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["disks"] = change(rec["disks"])
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    report = verify_file(str(path))
    assert report["verified"] == 16
    assert report["mismatches"] == [
        {"record": 1, "field": "validity", "got": f"type-1: {violation}"}
    ]


def test_reduce_rejects_an_orbit_that_escapes_the_survivors():
    s = skeleton_by_index(2, 1)
    survivors = pipeline._scan(s, [()], 1, None)
    assert len(pipeline.reduce_survivors(s, survivors)) == 15
    orbit = config_orbit(s, survivors[0])
    assert len(orbit) > 1
    dropped = [cfg for cfg in survivors if cfg != max(orbit)]
    with pytest.raises(AssertionError, match="orbit escapes the survivor set"):
        pipeline.reduce_survivors(s, dropped)


def test_verify_runs_no_pi1_on_a_record_that_is_not_acyclic(tmp_path, monkeypatch):
    # gluing (2, 4, 4, 5) of complexity-2 skeleton 1 has t+1 curves and
    # boundary determinant 0; its coset enumeration only hits the cap
    s = skeleton_by_index(2, 1)
    f = Surface(s, geometric_form(Surface(s, trace_gluing(s, (2, 4, 4, 5)))))
    flags = tuple(disk_flags(f))
    flipped = ((not flags[0][0], flags[0][1]),) + flags[1:]
    rec = SurfaceRecord(2, 1, f.disks, flipped, acyclic=True,
                        spine=all(t for _, t in flags), pi1="trivial")
    path = tmp_path / "cyclic.jsonl"
    path.write_text(rec.to_json() + "\n")
    calls = []
    real = pipeline.algebra.pi1_trivial
    monkeypatch.setattr(
        pipeline.algebra, "pi1_trivial", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    report = verify_file(str(path))
    assert calls == []
    assert [m["field"] for m in report["mismatches"]] == ["acyclic", "disk 1 flags"]
