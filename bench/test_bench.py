"""Self-tests of the benchmark, at complexity 3 and below.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

from run import ROOT, use_source_tree

use_source_tree()

import checks  # noqa: E402
import layers  # noqa: E402
from fakesurfaces import algebra, pipeline  # noqa: E402
from fakesurfaces.skeleta import enumerate_skeleta  # noqa: E402
from fakesurfaces.surfaces import Surface, all_gluing_configs, trace_gluing  # noqa: E402


def _surfaces_file(out_dir: Path) -> bytes:
    return (out_dir / "surfaces_t3.jsonl").read_bytes()


def test_tracing_leaves_classify3_output_byte_identical(tmp_path):
    pipeline.classify(3, out_dir=str(tmp_path / "plain"))
    originals = (pipeline.enumerate_surfaces, algebra.det_bareiss, pipeline.classify)
    with layers.Tracer() as tracer:
        pipeline.classify(3, out_dir=str(tmp_path / "traced"))
    assert (pipeline.enumerate_surfaces, algebra.det_bareiss, pipeline.classify) == originals
    assert _surfaces_file(tmp_path / "traced") == _surfaces_file(tmp_path / "plain")
    values = {name: value for name, (value, _) in tracer.metrics(1.0, 0).items()}
    assert values["canon.key_classes"] == 239
    assert values["canon.orbit_members"] == values["pipeline.survivors"] > 0
    assert values["surfaces.leaves"] == values["algebra.det_calls"] > 0


def test_determinant_agrees_with_bareiss_on_every_boundary_map_up_to_t2():
    compared = 0
    for t in (1, 2):
        for s in enumerate_skeleta(t):
            for cfg in all_gluing_configs(s):
                words = trace_gluing(s, cfg)
                if len(words) != t + 1:
                    continue  # not square: no boundary determinant
                m = algebra.boundary_matrix(Surface(s, words))
                det = algebra.det_bareiss(m)
                assert checks.determinant(m) == det
                # another spanning tree changes the sign at most
                own = checks.boundary_matrix(s.edges, t, words)
                assert abs(checks.determinant(own)) == abs(det)
                compared += 1
    assert compared > 100


def test_checks_catch_broken_records():
    rec = json.loads(pipeline.classify(2).records[0].to_json())
    s = enumerate_skeleta(2)[rec["skeleton"]["index"] - 1]
    assert checks.record_problems(s, rec, 1) == []
    assert checks.record_problems(s, rec, 99)  # too short for min_disk_len
    bad = dict(rec, flags=[["N" if f[0] == "Y" else "Y", f[1]] for f in rec["flags"]])
    assert checks.record_problems(s, bad, 1)
    bad = dict(rec, disks=rec["disks"][:-1])
    assert checks.record_problems(s, bad, 1)
    assert checks.determinant([[1, 2], [2, 4]]) == 0


def test_min_disk_len_equals_filtered_full_run():
    full = pipeline.classify(3)
    long_only = pipeline.classify(3, min_disk_len=3)
    kept = [r.to_json() for r in full.records if min(map(len, r.disks)) >= 3]
    assert [r.to_json() for r in long_only.records] == kept
    assert 0 < len(kept) < full.total


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(layers.LAYER_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "peak_rss_mib", "setup_s"]
