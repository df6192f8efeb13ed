"""Opt-in cross-checks of a full complexity-5 classification.

Skipped unless FAKESURFACES_T5_FULL names the output directory of a full
run (`fakesurfaces classify --complexity 5 --jobs 2 --out DIR`):

    FAKESURFACES_T5_FULL=DIR pytest tests/test_t5_crosscheck.py

The records whose disks all have length at least 3 must be, byte for byte,
a fresh classify(5, min_disk_len=3), and verify_file must re-derive every
claim of the full output with no mismatch and no published sign-flip merge.
"""

import json
import os

import pytest

from conftest import default_jobs
from fakesurfaces.pipeline import classify, verify_file

FULL_DIR = os.environ.get("FAKESURFACES_T5_FULL")

pytestmark = pytest.mark.skipif(
    not FULL_DIR, reason="set FAKESURFACES_T5_FULL to a full classify(5) output directory"
)


def _full_output() -> str:
    return os.path.join(FULL_DIR, "surfaces_t5.jsonl")


def test_t5_records_without_small_disks_equal_a_min_disk_len_3_run(tmp_path):
    with open(_full_output(), encoding="utf-8") as fh:
        kept = [line for line in fh if min(map(len, json.loads(line)["disks"])) >= 3]
    classify(5, min_disk_len=3, jobs=default_jobs(), out_dir=str(tmp_path))
    with open(tmp_path / "surfaces_t5.jsonl", encoding="utf-8") as fh:
        fresh = fh.read()
    assert kept and "".join(kept) == fresh


def test_t5_full_output_verifies():
    report = verify_file(_full_output())
    assert report["mismatches"] == []
    assert report["sign_flip_merges"] == []
    assert report["verified"] == report["records"] > 0
