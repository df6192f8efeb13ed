"""Complexity 4 and the no-small-disks run at complexity 5.

The gluing space is 6^(2t) per skeleton: about 1.7 million configurations
at t=4 and 60 million at t=5.  The scan shards into fixed prefix ranges of
the configuration space, so worker counts and shard plans never change the
output; persisted runs resume per skeleton.  At complexity 5 the search
restricts to surfaces whose disks all have length at least 3 (small disks
are always embedded, so the embedded-disk question is unaffected), which
prunes the tree by an order of magnitude.

On two cores expect about 20 seconds for t=4 and about 15 seconds for t=5.
"""

import os
import time

from fakesurfaces.pipeline import classify

jobs = min(4, os.cpu_count() or 1)

start = time.time()
r4 = classify(4, jobs=jobs, out_dir="runs")
print(f"complexity 4: {r4.total} surfaces in {time.time()-start:.0f}s")
print(f"  split {r4.per_skeleton()}")
print(f"  histogram by nontrivial bundles {r4.t_histogram()}")
print(f"  fundamental groups {r4.pi1_summary()}")

start = time.time()
r5 = classify(5, min_disk_len=3, jobs=jobs, out_dir="runs")
print(f"\ncomplexity 5 without small disks: {r5.total} surfaces "
      f"in {time.time()-start:.0f}s")
print(f"  split {r5.per_skeleton()}")
print(f"  fundamental groups {r5.pi1_summary()}")
poincare = [rec for rec in r5.records if rec.pi1 != "trivial"]
print(f"  non-trivial fundamental groups: {len(poincare)} "
      f"(the Poincare-sphere spines report finite:120)")
print(f"  every surface has an embedded disk: "
      f"{all(any(e for e, _ in rec.flags) for rec in r5.records)}")
