"""Listing and record formats, ingestion with orientation normalization."""

import json

import pytest

from fakesurfaces.formats import (
    SurfaceRecord,
    format_listing_line,
    ingest_row,
    load_reference_listing,
    normalize_orientations,
    parse_listing,
    parse_listing_line,
    read_records,
)
from fakesurfaces.skeleta import skeleton_by_index
from fakesurfaces.surfaces import validate_words


def test_parse_and_format_round_trip():
    line = "2 1 | 4 2 -1 -1 -2 4 3 1 -3 : N N | 2 -3 : Y N | 4 : Y N"
    row = parse_listing_line(line)
    assert row.complexity == 2 and row.skeleton_index == 1
    assert row.disks[1] == (2, -3)
    assert row.flags[0] == (False, False)
    assert format_listing_line(row) == line


def test_parse_rejects_bad_lines():
    for bad in ("x 1 | 1 : Y Y", "2 1 | 1 : Y", "2 1 | 1 : A B", "2 | 1 : Y Y"):
        with pytest.raises(ValueError):
            parse_listing_line(bad)
    with pytest.raises(ValueError, match="line 2"):
        parse_listing("1 1 | 1 : Y Y | 1 2 2 1 -2 : N Y\nbogus")


def test_reference_listing_counts():
    assert len(load_reference_listing(1)) == 2
    assert len(load_reference_listing(2)) == 17
    assert len(load_reference_listing(3)) == 238
    with pytest.raises(ValueError):
        load_reference_listing(4)


def test_reference_rows_ingest_to_valid_surfaces():
    for t in (1, 2, 3):
        for row in load_reference_listing(t):
            f = ingest_row(row)
            assert validate_words(f.skeleton, f.disks)
            assert len(f.disks) == t + 1


def test_orientation_normalization_fixes_reversed_edges():
    # rows over the third complexity-3 skeleton are printed with edges 2,3
    # oriented against the convention here; ingestion must repair them
    s = skeleton_by_index(3, 3)
    raw = ((1, 2, -5, -3, 2, -6, 4, -5, 4, -2), (3, 4, -6, -3, -1), (5, -6), (1,))
    assert not validate_words(s, raw)
    fixed = normalize_orientations(s, raw)
    assert validate_words(s, fixed)
    # loops keep their letters; flipped edges negate everywhere
    assert {abs(x) for w in fixed for x in w} == {1, 2, 3, 4, 5, 6}


def test_orientation_normalization_keeps_valid_input():
    s = skeleton_by_index(1, 1)
    words = ((1, 2, 2, 1, -2), (1,))
    assert normalize_orientations(s, words) == words


def test_orientation_normalization_rejects_wrong_skeleton():
    s = skeleton_by_index(2, 2)  # four parallel edges, no loops
    with pytest.raises(ValueError):
        normalize_orientations(s, ((1, 2, 2, 1, -2), (1,)))


def test_native_record_round_trip(tmp_path):
    rec = SurfaceRecord(
        complexity=1,
        skeleton_index=1,
        disks=((1, 2, 2, 1, -2), (1,)),
        flags=((False, True), (True, True)),
        acyclic=True,
        spine=True,
        pi1="trivial",
    )
    back = SurfaceRecord.from_json(rec.to_json())
    assert back == rec
    p = tmp_path / "one.jsonl"
    p.write_text(rec.to_json() + "\n")
    assert read_records(p) == [rec]


def test_read_records_detects_listing_format(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("1 1 | 1 2 2 1 -2 : N Y | 1 : Y Y\n")
    recs = read_records(p)
    assert recs[0].complexity == 1
    assert recs[0].flags == ((False, True), (True, True))


GOOD_RECORD = SurfaceRecord(1, 1, ((1, 2, 2, 1, -2), (1,)), ((False, True), (True, True)))


@pytest.mark.parametrize("field, value", [
    ("flags", [["Y", "X"], ["Y", "Y"]]),
    ("flags", [["Y"]]),
    ("skeleton", 5),
    ("disks", "abc"),
], ids=["flag-not-Y-or-N", "flag-pair-of-one", "skeleton-not-an-object", "disks-a-string"])
def test_read_records_names_the_line_of_a_malformed_field(tmp_path, field, value):
    bad = json.loads(GOOD_RECORD.to_json())
    bad[field] = value
    p = tmp_path / "bad.jsonl"
    p.write_text(GOOD_RECORD.to_json() + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=f"line 2: {field}"):
        read_records(p)
