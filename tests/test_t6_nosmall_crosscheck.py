"""Opt-in cross-checks of a complexity-6 classification without small disks.

Skipped unless FAKESURFACES_T6_NOSMALL names the output directory of such a
run (`fakesurfaces classify --complexity 6 --min-disk-len 3 --jobs 2 --out
DIR`, about eight minutes on two cores):

    FAKESURFACES_T6_NOSMALL=DIR pytest tests/test_t6_nosmall_crosscheck.py

Its surface file must have the sha256 the README records, and verify_file
must re-derive every claim with no mismatch and no published sign-flip
merge.
"""

import hashlib
import os

import pytest

from fakesurfaces.pipeline import verify_file

RUN_DIR = os.environ.get("FAKESURFACES_T6_NOSMALL")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SHA256 = "999dd4569569d6f19bb8565ee6f946c60aec620a4df25f545d46f7b1bef42892"

pytestmark = pytest.mark.skipif(
    not RUN_DIR,
    reason="set FAKESURFACES_T6_NOSMALL to a classify(6, min_disk_len=3) output directory",
)


def _output() -> str:
    return os.path.join(RUN_DIR, "surfaces_t6.jsonl")


def test_t6_nosmall_output_has_the_readme_hash():
    with open(README, encoding="utf-8") as fh:
        assert SHA256 in fh.read()
    with open(_output(), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SHA256


def test_t6_nosmall_output_verifies():
    report = verify_file(_output())
    assert report["mismatches"] == []
    assert report["sign_flip_merges"] == []
    assert report["verified"] == report["records"] == 7762
