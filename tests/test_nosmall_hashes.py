"""The sha256 of the surface files of runs without small disks, which every
change to the scan kernel's pruning must keep: classify(4, min_disk_len=3,
jobs=2), about a second, and the opt-in classify(5, min_disk_len=3,
jobs=2), 10-15 s on two cores, skipped unless FAKESURFACES_T5_NOSMALL is
set:

    FAKESURFACES_T5_NOSMALL=1 pytest tests/test_nosmall_hashes.py

The README records both hashes.
"""

import hashlib
import os

import pytest

from fakesurfaces.pipeline import classify

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

T5_GATE = pytest.mark.skipif(not os.environ.get("FAKESURFACES_T5_NOSMALL"),
                             reason="set FAKESURFACES_T5_NOSMALL to run classify(5, min_disk_len=3)")


@pytest.mark.parametrize("t, sha256", [
    (4, "e3430200f8594beb6df70bf8e60b5947b540e107057f1a4ec4ee7e956376837e"),
    pytest.param(5, "e1017d94a4a34616db64afabb02917a07ee76b365990bc7a9851da13a6a45bdd",
                 marks=T5_GATE),
])
def test_min_disk_len_3_output_has_its_pinned_hash(tmp_path, t, sha256):
    with open(README, encoding="utf-8") as fh:
        assert sha256 in fh.read()
    classify(t, min_disk_len=3, jobs=2, out_dir=str(tmp_path))
    with open(tmp_path / f"surfaces_t{t}.jsonl", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sha256
