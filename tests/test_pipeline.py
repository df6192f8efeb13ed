"""Pipeline: classification runs, determinism, persistence, verification, CLI."""

import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from fakesurfaces import cli, pipeline
from fakesurfaces.canon import config_orbit, geometric_form
from fakesurfaces.formats import (
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
from oracles import reduce_by_orbit_sets


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
    plans = (1, 4, 16)
    for m in plans:
        for k in range(1, m + 1):
            pipeline.scan_share(2, k, m, str(tmp_path / f"m{m}"))
    tasks = _scan_tasks(monkeypatch)
    for m in plans:
        digests.add(_digest(classify(2, out_dir=str(tmp_path / f"m{m}"))))
    assert tasks == []  # every skeleton was merged from its sweep
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
    flipped = SurfaceRecord(
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


@pytest.mark.parametrize("field, value", [
    ("acyclic", "false"), ("acyclic", 0), ("acyclic", 1), ("spine", "true"), ("spine", 0),
    ("pi1", "Trivial"), ("pi1", "finite:"), ("pi1", "finite:-2"), ("pi1", "finite:2 "),
    ("pi1", True), ("pi1", 1),
])
def test_verify_refuses_a_stored_claim_of_another_type(tmp_path, field, value):
    # a claim that is not null or a value classify writes used to go unchecked:
    # "acyclic": "false" or 0 verified with no mismatch
    lines = [r.to_json() for r in classify(1).records]
    path = tmp_path / "c1.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert verify_file(str(path))["verified"] == 2
    record = json.loads(lines[1])
    record[field] = None  # an unstated claim is not checked
    path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    assert verify_file(str(path))["verified"] == 2
    record[field] = value
    path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(ValueError, match=f"^line 2: {field} "):
        verify_file(str(path))


def test_native_records_keep_every_pi1_verdict():
    for pi1 in ("trivial", "inconclusive", "finite:120"):
        rec = SurfaceRecord(1, 1, ((1,),), acyclic=True, spine=False, pi1=pi1)
        assert SurfaceRecord.from_json(rec.to_json()) == rec


# ---------------------------------------------------------------------------
# CLI


def test_cli_skeleta(capsys):
    assert cli.main(["skeleta", "--complexity", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["adjacency"] == [2, 2, 2, 2]
    assert rec["self_loops"] == 2 and rec["girth"] == 1


def test_cli_skeleta_reports_an_unwritable_out_file_in_one_line(tmp_path, capsys):
    missing = tmp_path / "missing" / "skeleta.jsonl"
    for path, message in ((missing, "No such file or directory"),
                          (tmp_path, "Is a directory")):
        assert cli.main(["skeleta", "--complexity", "2", "--out", str(path)]) == 1
        assert capsys.readouterr() == ("", f"{path}: {message}\n")
    written = tmp_path / "skeleta.jsonl"
    assert cli.main(["skeleta", "--complexity", "2", "--out", str(written)]) == 0
    assert len(written.read_text().splitlines()) == 2


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


@pytest.mark.parametrize("command", ("verify", "pi1", "canon"))
def test_cli_reports_an_unreadable_file_in_one_line(tmp_path, capsys, command):
    bad = tmp_path / "rows.txt"
    bad.write_text("1 1 | 1 1 x : Y Y\n")
    missing = tmp_path / "missing.txt"
    for path, message in ((bad, "line 1: invalid literal for int() with base 10: 'x'"),
                          (missing, "No such file or directory")):
        assert cli.main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{path}: {message}\n")


@pytest.mark.parametrize("command", ("pi1", "canon"))
def test_cli_reports_a_bad_later_line_after_the_records_before_it(tmp_path, capsys, command):
    rows = "".join(format_listing_line(r) + "\n" for r in load_reference_listing(1))
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(rows)
    bad.write_text(rows + "1 1 | 1 1 x : Y Y\n")
    assert cli.main([command, str(good)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") == 2
    assert cli.main([command, str(bad)]) == 1
    assert capsys.readouterr() == (
        printed, f"{bad}: line 3: invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize("presentation, message", (
    ("x|x^0", "at position 4: bad exponent"),
    ("x|x", "generator x occurs 1 times; the construction needs every generator at least twice"),
))
def test_cli_bp_reports_a_bad_presentation_in_one_line(capsys, presentation, message):
    assert cli.main(["bp", presentation]) == 1
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("manifest, problem", (
    ("{\n", "Expecting property name enclosed in double quotes"),
    ("[1, 2]\n", "not a JSON object"),
), ids=("not-json", "a-list"))
def test_cli_reports_a_bad_manifest_in_one_line(tmp_path, capsys, manifest, problem):
    out = str(tmp_path / "runs")
    argv = ["classify", "--complexity", "1", "--out", out]
    assert cli.main(argv) == 0
    path = os.path.join(out, "manifest_t1.json")
    open(path, "w").write(manifest)
    capsys.readouterr()
    for command in (argv, argv + ["--shard", "1/1"],
                    ["tables", "--max-complexity", "1", "--out", out]):
        assert cli.main(command) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"{path}: {problem}") and err.count("\n") == 1
    assert open(path).read() == manifest


@pytest.mark.parametrize("edit, problem", (
    (lambda state: state.pop("skeletons"),
     "skeletons is not an object of part files, each with a sha256 string"),
    (lambda state: state["skeletons"].update({"1": {}}),
     "skeletons is not an object of part files, each with a sha256 string"),
    (lambda state: state.update(combined=5),
     "combined is not an object with a sha256 string and a skeletons list"),
), ids=("no-skeletons", "a-part-without-sha256", "combined-a-number"))
def test_cli_reports_a_wrong_shaped_manifest_in_one_line(tmp_path, capsys, edit, problem):
    out = str(tmp_path / "runs")
    argv = ["classify", "--complexity", "1", "--out", out]
    assert cli.main(argv) == 0
    path = os.path.join(out, "manifest_t1.json")
    state = json.load(open(path))
    edit(state)
    manifest = json.dumps(state)
    open(path, "w").write(manifest)
    capsys.readouterr()
    for command in (argv, argv + ["--shard", "1/1"],
                    ["tables", "--max-complexity", "1", "--out", out]):
        assert cli.main(command) == 1
        assert capsys.readouterr() == ("", f"{path}: {problem}\n")
    assert open(path).read() == manifest


def test_cli_classify_reports_a_bad_shard_line_in_one_line(tmp_path, capsys):
    out = str(tmp_path / "runs")
    argv = ["classify", "--complexity", "2", "--out", out]
    assert cli.main(argv + ["--shard", "1/1"]) == 0
    path = os.path.join(out, "shards", "t2_g1_shard1of1.txt")
    lines = open(path).read().splitlines()
    lines[1] = "0,1,2"
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"{path}:2: not a configuration of 4 edges\n")


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


def test_combined_file_is_the_concatenated_part_files(tmp_path, monkeypatch):
    out = tmp_path / "run"

    def assert_concatenated(result):
        parts = b"".join((out / f"surfaces_t3_g{g}.jsonl").read_bytes() for g in (1, 2, 3, 4))
        combined = (out / "surfaces_t3.jsonl").read_bytes()
        assert combined == parts
        assert combined.decode().splitlines() == [r.to_json() for r in result.records]
        state = json.loads((out / "manifest_t3.json").read_text())
        assert state["combined"] == {
            "skeletons": [1, 2, 3, 4],
            "surfaces": 239,
            "sha256": hashlib.sha256(combined).hexdigest(),
            "sign_flip_merges": [],
        }
        assert list(out.glob("listing_t*.txt")) == []

    fresh = classify(3, out_dir=str(out))
    assert_concatenated(fresh)
    scanned = _counting(monkeypatch, "classify_skeleton")
    assert classify(3, out_dir=str(out)).records == fresh.records
    assert scanned == []  # every skeleton was loaded
    assert_concatenated(fresh)
    os.remove(out / "surfaces_t3_g2.jsonl")
    assert classify(3, out_dir=str(out)).records == fresh.records
    assert scanned == [2]
    assert_concatenated(fresh)


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


def test_cli_merged_skeleta_record_shard_scan_seconds(tmp_path, capsys, monkeypatch):
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
    classified = _counting(monkeypatch, "classify_skeleton")
    tasks = _scan_tasks(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert classified == [1, 2]  # each skeleton once, from its shard files
    assert tasks == []
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


def _scan_tasks(monkeypatch):
    """The arguments of every scan task (pipeline._scan_shard) run in this
    process from now on."""
    tasks = []
    real = pipeline._scan_shard

    def counting(args):
        tasks.append(args)
        return real(args)

    monkeypatch.setattr(pipeline, "_scan_shard", counting)
    return tasks


def test_merge_takes_the_complete_plan_among_mixed_plans(tmp_path, monkeypatch):
    out = str(tmp_path / "runs")
    for k in (1, 2):
        pipeline.scan_share(2, k, 2, out)
    pipeline.scan_share(2, 1, 3, out)  # a stray share of another plan
    direct = classify(2).records
    tasks = _scan_tasks(monkeypatch)
    assert classify(2, out_dir=out).records == direct
    assert tasks == []  # nothing scanned: the 2/2 sweep merged


@pytest.mark.parametrize("k, m", ((0, 2), (3, 2), (1, 0)))
def test_scan_share_refuses_a_share_outside_its_plan(tmp_path, k, m):
    out = tmp_path / "runs"
    with pytest.raises(ValueError, match=re.escape(f"share {k} of {m} is outside 1 <= k <= m")):
        pipeline.scan_share(2, k, m, str(out))
    assert not out.exists()


def test_a_share_gives_every_skeleton_many_scan_tasks(tmp_path, monkeypatch):
    tasks = _scan_tasks(monkeypatch)
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
    ("0,0,0,0", "configuration not above the line before"),  # line 2 again
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


def _edited(**changes):
    """A header line: the written one with changes, a None value deleting its key."""
    def edit(header):
        header = {k: v for k, v in dict(header, **changes).items() if v is not None}
        return "# " + json.dumps(header)
    return edit


@pytest.mark.parametrize("first", (
    _edited(m=None),
    _edited(k="1"),
    _edited(skeleton=1.0),
    _edited(seconds="1"),
    lambda header: "# [1, 2]",
    lambda header: "# {",
    lambda header: "0,0,0,0",
), ids=("no-m", "string-k", "float-skeleton", "string-seconds",
        "not-an-object", "not-json", "no-header"))
def test_malformed_shard_header_fails_with_file_and_line(tmp_path, first):
    out = str(tmp_path / "runs")
    pipeline.scan_share(2, 1, 1, out)
    path = os.path.join(out, "shards", "t2_g1_shard1of1.txt")
    header, rest = open(path).read().split("\n", 1)
    open(path, "w").write(first(json.loads(header.removeprefix("# "))) + "\n" + rest)
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: not a shard file header")):
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
    survivors = pipeline._scan_shard((2, 1, 1, ()))
    assert len(pipeline.reduce_survivors(s, survivors)) == 15
    orbit = config_orbit(s, survivors[0])
    assert len(orbit) > 1
    dropped = [cfg for cfg in survivors if cfg != max(orbit)]
    with pytest.raises(AssertionError, match="orbit escapes the survivor set"):
        pipeline.reduce_survivors(s, dropped)


def test_reduce_rejects_survivors_without_an_orbit_minimum():
    s = skeleton_by_index(2, 1)
    survivors = pipeline._scan_shard((2, 1, 1, ()))
    orbit = config_orbit(s, survivors[0])
    for dropped in ([cfg for cfg in survivors if cfg != min(orbit)],
                    survivors + [max(orbit)]):  # a survivor twice
        with pytest.raises(AssertionError, match="orbit escapes the survivor set"):
            pipeline.reduce_survivors(s, dropped)


@pytest.mark.parametrize("t, indices, min_disk_len", (
    (1, (1,), 1), (2, (1, 2), 1), (3, (1, 2, 3, 4), 1),
    (4, (2, 9), 1), (4, (10,), 3),
), ids=("t1", "t2", "t3", "t4-g2-g9", "t4-g10-min3"))
def test_reduce_gives_the_records_of_the_set_based_quotient(t, indices, min_disk_len):
    for index in indices:
        s = skeleton_by_index(t, index)
        survivors = pipeline._scan_shard((t, index, min_disk_len, ()))
        want = reduce_by_orbit_sets(s, survivors)
        assert pipeline.reduce_survivors(s, survivors) == want, (t, index)


def test_reduce_reads_tuples_packed_bytes_and_shard_files_alike(tmp_path, monkeypatch):
    s = skeleton_by_index(3, 1)
    survivors = pipeline._scan_shard((3, 1, 1, ()))
    packed = pipeline.Packed(bytes(itertools.chain.from_iterable(survivors)), s.n_edges)
    assert len(packed) == len(survivors) == 2496
    records = pipeline.reduce_survivors(s, survivors)
    assert pipeline.reduce_survivors(s, packed) == records
    out = str(tmp_path / "runs")
    for k in (1, 2, 3):
        pipeline.scan_share(3, k, 3, out)
    tasks = _scan_tasks(monkeypatch)
    assert classify(3, skeleton_indices=[1], out_dir=out).records == records
    assert tasks == []  # the skeleton was merged from its sweep


def test_reduce_of_a_skeleton_stays_small():
    # the survivors stay packed through the reduce: no tuple per survivor
    # and no survivor set (7.7 MiB with both, 2.9 MiB without, each read
    # cold in a fresh interpreter).  Traced warm with the collector off, as
    # in test_verify_keeps_keys_not_records, the peak is live data, not
    # tuple free lists refilled with traced blocks: 1.9-2.1 MiB, where it
    # read 2.7 MiB cold with the collector on.
    s = skeleton_by_index(4, 2)
    scans = [pipeline._timed_scan((4, 2, 1, p)) for p in pipeline.share_prefixes(s, 1, 1)]
    assert sum(len(found) for found, _ in scans) == 36016 * s.n_edges
    pipeline.classify_skeleton(s, iter(scans))  # the skeleton caches warm
    gc.disable()
    tracemalloc.start()
    try:
        records, _ = pipeline.classify_skeleton(s, iter(scans))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(records) == 1171
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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


def _logging_scans(monkeypatch, log, delay=0.0):
    """Log "pid skeleton start-time" for every _scan_shard task from now
    on, pool workers included (they fork after the patch), to the file log."""
    real = pipeline._scan_shard

    def logging(args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {args[1]} {time.time()}\n")
        time.sleep(delay)
        return real(args)

    monkeypatch.setattr(pipeline, "_scan_shard", logging)


def _logged(log) -> list[tuple[int, int, float]]:
    """(pid, skeleton index, start time) per logged scan task."""
    with open(log, encoding="utf-8") as fh:
        return [(int(pid), int(index), float(started))
                for pid, index, started in map(str.split, fh)]


def test_stream_scans_only_the_skeleta_with_no_manifest_or_sweep(tmp_path, monkeypatch):
    out = str(tmp_path / "runs")
    classify(3, skeleton_indices=[1], out_dir=out)  # skeleton 1 in the manifest
    for k in (1, 2):
        pipeline.scan_share(3, k, 2, out)
    for name in os.listdir(os.path.join(out, "shards")):
        if not name.startswith("t3_g2_"):  # a complete sweep of skeleton 2 only
            os.remove(os.path.join(out, "shards", name))
    direct = classify(3).records
    log = str(tmp_path / "tasks.log")
    _logging_scans(monkeypatch, log)
    assert classify(3, jobs=2, out_dir=out).records == direct
    scanned = [index for _, index, _ in _logged(log)]
    assert sorted(scanned) == [3] * pipeline.SHARE_TASKS + [4] * pipeline.SHARE_TASKS
    state = json.load(open(os.path.join(out, "manifest_t3.json")))
    assert all(state["skeletons"][g]["seconds"] > 0 for g in ("3", "4"))


def test_stream_gives_each_skeleton_whole_to_one_worker(tmp_path, monkeypatch):
    log = str(tmp_path / "tasks.log")
    _logging_scans(monkeypatch, log)
    assert _digest(classify(3, jobs=2)) == _digest(classify(3))
    tasks = [task for task in _logged(log) if task[0] != os.getpid()]
    assert len(tasks) == 4 * pipeline.SHARE_TASKS
    for index in (1, 2, 3, 4):
        assert len({pid for pid, g, _ in tasks if g == index}) == 1, index


def test_stream_splits_a_lone_skeleton_over_the_workers(tmp_path, monkeypatch):
    # 36 tasks in chunks of ceil(36 / 8); a short wait per task keeps the
    # first worker busy while the second takes the next chunk
    log = str(tmp_path / "tasks.log")
    _logging_scans(monkeypatch, log, delay=0.02)
    assert classify(3, skeleton_indices=[3], jobs=2).per_skeleton() == {3: 63}
    pids = [pid for pid, _, _ in _logged(log)]
    assert len(pids) == pipeline.SHARE_TASKS
    assert len(set(pids)) == 2 and os.getpid() not in pids


def test_stream_scans_at_most_jobs_skeleta_ahead_of_the_reduce(tmp_path, monkeypatch):
    # at jobs=2, skeleton 4 is submitted only when classify takes skeleton
    # 2, although the workers would be free to scan it while skeleton 1 is
    # slow to reduce
    log = str(tmp_path / "tasks.log")
    _logging_scans(monkeypatch, log)
    real = pipeline.classify_skeleton
    done = {}

    def slow(s, *args, **kwargs):
        if s.index == 1:
            time.sleep(1.0)
        result = real(s, *args, **kwargs)
        done[s.index] = time.time()
        return result

    monkeypatch.setattr(pipeline, "classify_skeleton", slow)
    assert classify(3, jobs=2).per_skeleton() == {1: 97, 2: 65, 3: 63, 4: 14}
    started = [when for _, index, when in _logged(log) if index == 4]
    assert len(started) == pipeline.SHARE_TASKS and min(started) > done[1]


def test_jobs_below_one_are_refused(tmp_path, capsys):
    out = tmp_path / "runs"
    with pytest.raises(ValueError, match="jobs must be at least 1, not 0"):
        classify(2, jobs=0, out_dir=str(out))
    with pytest.raises(ValueError, match="jobs must be at least 1, not -1"):
        pipeline.scan_share(2, 1, 2, str(out), jobs=-1)
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--complexity", "2", "--jobs", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "jobs must be a whole number of at least 1, not '0'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_coset_cap_for_a_share(tmp_path, capsys):
    # a share computes no pi1; the merging run's cap is the one that applies
    out = tmp_path / "runs"
    argv = ["classify", "--complexity", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--shard", "1/2", "--coset-cap", "5"])
    assert exc.value.code == 2
    assert "--coset-cap: not allowed with argument --shard" in capsys.readouterr().err
    assert not out.exists()


def test_min_disk_len_below_one_is_refused(tmp_path):
    out = tmp_path / "runs"
    for min_disk_len in (0, -3):
        with pytest.raises(ValueError, match=f"min_disk_len must be at least 1, "
                                             f"not {min_disk_len}"):
            classify(2, min_disk_len=min_disk_len, out_dir=str(out))
        with pytest.raises(ValueError, match=f"min_disk_len must be at least 1, "
                                             f"not {min_disk_len}"):
            pipeline.scan_share(2, 1, 2, str(out), min_disk_len=min_disk_len)
    assert not out.exists()


def test_complexity_or_coset_cap_below_one_is_refused_before_any_work(tmp_path):
    out = tmp_path / "runs"
    for call, message in (
        (lambda: classify(2, coset_cap=0, out_dir=str(out)), "coset_cap must be at least 1, not 0"),
        (lambda: classify(0, out_dir=str(out)), "complexity must be at least 1, not 0"),
        (lambda: pipeline.scan_share(-1, 1, 2, str(out)), "complexity must be at least 1, not -1"),
        # the file does not exist: the cap is refused before it is read
        (lambda: verify_file(str(tmp_path / "absent.txt"), coset_cap=0),
         "coset_cap must be at least 1, not 0"),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert not out.exists()


@pytest.mark.parametrize("argv, refused", [
    (["classify", "--complexity", "2", "--coset-cap", "0", "--out", "OUT"], "coset cap ... '0'"),
    (["classify", "--complexity", "0", "--out", "OUT"], "complexity ... '0'"),
    (["skeleta", "--complexity", "0", "--out", "OUT/skeleta.jsonl"], "complexity ... '0'"),
    (["tables", "--max-complexity", "0", "--out", "OUT"], "max complexity ... '0'"),
    (["verify", "ROWS", "--coset-cap", "0"], "coset cap ... '0'"),
    (["pi1", "ROWS", "--coset-cap", "-3"], "coset cap ... '-3'"),
])
def test_cli_refuses_a_complexity_or_coset_cap_below_one(tmp_path, capsys, argv, refused):
    out, rows = tmp_path / "runs", tmp_path / "rows.txt"
    rows.write_text("\n".join(format_listing_line(r) for r in load_reference_listing(1)) + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([a.replace("OUT", str(out)).replace("ROWS", str(rows)) for a in argv])
    assert exc.value.code == 2
    name, value = refused.split(" ... ")
    assert f"{name} must be a whole number of at least 1, not {value}" in capsys.readouterr().err
    assert not out.exists()


# six letters, each edge three times, that fit complexity-1 skeleton 1 in no
# orientation, then a good row
BAD_THEN_GOOD = "1 1 | 1 1 : Y Y | 2 2 2 1 : N Y\n1 1 | 1 2 2 1 -2 : N Y | 1 : Y Y\n"


@pytest.mark.parametrize("command, good", [
    ("pi1", "record 2: trivial (proven)"),
    ("canon", "1 1 | 1 | 1 2 1 -2 -2"),
])
def test_cli_pi1_and_canon_report_a_row_that_does_not_ingest(tmp_path, capsys,
                                                              command, good):
    path = tmp_path / "rows.txt"
    path.write_text(BAD_THEN_GOOD)
    assert cli.main(["verify", str(path)]) == 1
    verify_line = capsys.readouterr().out.splitlines()[1].strip()
    assert verify_line.startswith("record 1: validity: type-2: vertex 0: ")
    assert cli.main([command, str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [verify_line, good]


def test_commands_name_the_failed_ingest_check(tmp_path, capsys):
    # skeleton 5 of complexity 1 does not exist; verify, pi1 and canon word
    # it alike
    path = tmp_path / "rows.txt"
    path.write_text("1 5 | 1 2 2 1 -2 : N Y | 1 : Y Y\n")
    line = "record 1: skeleton: complexity 1 has 1 skeleta, not 5"
    for command in ("verify", "pi1", "canon"):
        assert cli.main([command, str(path)]) == 1
        assert line in [l.strip() for l in capsys.readouterr().out.splitlines()], command
    assert verify_file(str(path))["mismatches"] == [
        {"record": 1, "field": "skeleton", "got": "complexity 1 has 1 skeleta, not 5"}
    ]


def test_verify_rejects_a_record_of_a_complexity_its_letters_cannot_have(tmp_path):
    # a complexity-9 record needs 54 letters; it must fail before the
    # skeleta of complexity 9 are enumerated, which would take far longer
    path = tmp_path / "c9.jsonl"
    path.write_text('{"skeleton":{"complexity":9,"index":1},"disks":[[1]]}\n')
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "fakesurfaces.cli", "verify", str(path)],
                          capture_output=True, text=True, timeout=10, env=env)
    assert done.returncode == 1
    assert "record 1: validity: type-1: edge 1 occurs 1 times, not 3" in done.stdout
    record = read_records(str(path))[0]
    with pytest.raises(ValueError, match="type-1: edge 1 occurs 1 times, not 3"):
        pipeline.ingest_row(record)


def _write_output(path, records) -> str:
    """records written as classify writes its combined file: one JSON line each."""
    path.write_text("".join(r.to_json() + "\n" for r in records))
    return str(path)


def test_verify_builds_each_presentation_once(tmp_path, monkeypatch, classification):
    # acyclicity and the pi1 verdict read one presentation per record
    path = _write_output(tmp_path / "surfaces_t3.jsonl", classification[0][3].records)
    calls = []
    real = pipeline.algebra.presentation_of
    monkeypatch.setattr(pipeline.algebra, "presentation_of",
                        lambda f: calls.append(f) or real(f))
    report = verify_file(path)
    assert (report["records"], report["verified"], report["mismatches"]) == (239, 239, [])
    assert len(calls) == 239


def test_verify_keeps_keys_not_records(tmp_path, classification):
    # verify keeps two keys per class and no surface: its traced peak grows
    # by less than 1 KiB a record from the t=3 output (239 records) to t=4
    # skeleton 2's (1171); holding every distinct surface it grew by 1.2 KiB.
    # The collector is off while tracing, so that no full collection empties
    # the tuple free lists, warm from the untraced runs, mid-run: refilled
    # with traced blocks, they add up to a few MiB whatever the file's size.
    results = classification[0]
    paths = [_write_output(tmp_path / "t3.jsonl", results[3].records),
             _write_output(tmp_path / "t4_g2.jsonl",
                           [r for r in results[4].records if r.skeleton_index == 2])]
    for path in paths:
        verify_file(path)  # the skeleton caches warm
    peaks = []
    for path in paths:
        gc.disable()
        tracemalloc.start()
        try:
            report = verify_file(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
        assert report["verified"] == report["records"]
    per_record = (peaks[1] - peaks[0]) / (1171 - 239)
    assert per_record < 1024, f"{per_record:.0f} bytes a record"
