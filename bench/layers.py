"""Per-layer tracing of the package, from outside it.

A Tracer replaces the public functions of each module with timing wrappers
while it is entered, and puts the originals back on exit.  Every alias of a
wrapped function in the loaded fakesurfaces modules is replaced, because
modules import each other's functions by name (`pipeline` calls its own
binding of `enumerate_surfaces`, `surfaces` calls `trace_gluing` from
inside the search).  Spans nest: a span's self time is its duration minus
the time of the wrapped calls made inside it.  Counters live on the Tracer,
so a traced run must keep all work in this process (jobs=1).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from fakesurfaces import algebra, canon, formats, pipeline, skeleta, surfaces, topology

# name, unit, better: the per-layer metrics a traced run reports, in order
LAYER_METRICS = (
    ("surfaces.scan_s", "s", "lower"),
    ("surfaces.leaves", "count", "lower"),
    ("surfaces.leaves_per_s", "1/s", "higher"),
    ("surfaces.trace_s", "s", "lower"),
    ("surfaces.trace_calls", "count", "lower"),
    ("algebra.boundary_s", "s", "lower"),
    ("algebra.det_s", "s", "lower"),
    ("algebra.det_calls", "count", "lower"),
    ("algebra.dets_per_s", "1/s", "higher"),
    ("algebra.acyclic_ratio", "ratio", "higher"),
    ("algebra.pi1_s", "s", "lower"),
    ("algebra.pi1_calls", "count", "lower"),
    ("algebra.tietze_s", "s", "lower"),
    ("algebra.coset_s", "s", "lower"),
    ("algebra.cosets_used", "count", "lower"),
    ("canon.orbit_s", "s", "lower"),
    ("canon.orbit_calls", "count", "lower"),
    ("canon.orbit_members", "count", "lower"),
    ("canon.normalize_s", "s", "lower"),
    ("canon.key_s", "s", "lower"),
    ("canon.key_calls", "count", "lower"),
    ("canon.keys_per_s", "1/s", "higher"),
    ("canon.orbit_classes", "count", "higher"),
    ("canon.key_classes", "count", "higher"),
    ("topology.flags_s", "s", "lower"),
    ("topology.flags_calls", "count", "lower"),
    ("formats.ingest_s", "s", "lower"),
    ("formats.ingest_calls", "count", "lower"),
    ("pipeline.scan_s", "s", "lower"),
    ("pipeline.reduce_s", "s", "lower"),
    ("pipeline.survivors", "count", "lower"),
    ("pipeline.persist_s", "s", "lower"),
    ("pipeline.output_bytes", "bytes", "lower"),
    ("pipeline.pool_busy_ratio", "ratio", "higher"),
    ("skeleta.enumerate_s", "s", "lower"),
)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> exclusive seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.orbit_minima: set = set()  # (complexity, index, minimal config)
        self.keys: set = set()  # (complexity, index, canonical key)
        # (skeleton index, survivors, orbit members counted) per reduce call
        self.reduce_audit: list[tuple[int, int, int]] = []
        self._open: list[float] = []  # child seconds of each open span
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def _start(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def _stop(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        child = self._open.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._open:
            self._open[-1] += elapsed

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            started = self._start()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stop(name, started)
            self.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _generator_span(self, name, fn):
        """Time each step of a generator; the consumer's work between steps
        is not part of the span."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            steps = fn(*args, **kwargs)
            while True:
                started = self._start()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._stop(name, started)
                self.counts[name + ".yields"] += 1
                yield item

        return wrapper

    # -- hooks -----------------------------------------------------------------

    def _det(self, args, result):
        if abs(result) == 1:
            self.counts["acyclic"] += 1

    def _coset(self, args, result):
        self.counts["cosets_used"] += result.cosets_used

    def _orbit(self, args, result):
        s = args[0]
        self.counts["orbit_members"] += len(result)
        self.orbit_minima.add((s.complexity, s.index, min(result)))

    def _key(self, args, result):
        s = args[0].skeleton
        self.keys.add((s.complexity, s.index, result))

    def _audited_reduce(self, fn):
        def wrapper(s, survivors, *args, **kwargs):
            before = self.counts["orbit_members"]
            result = fn(s, survivors, *args, **kwargs)
            members = self.counts["orbit_members"] - before
            self.reduce_audit.append((s.index, len(survivors), members))
            self.counts["survivors"] += len(survivors)
            return result

        return wrapper

    # -- install and restore ---------------------------------------------------

    def _patch(self, original, replacement) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if n == "fakesurfaces" or n.startswith("fakesurfaces.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        span = self._span
        self._patch(surfaces.enumerate_surfaces,
                    self._generator_span("surfaces.scan", surfaces.enumerate_surfaces))
        self._patch(surfaces.trace_gluing, span("surfaces.trace", surfaces.trace_gluing))
        self._patch(algebra.boundary_matrix,
                    span("algebra.boundary", algebra.boundary_matrix))
        self._patch(algebra.det_bareiss, span("algebra.det", algebra.det_bareiss, self._det))
        self._patch(algebra.pi1_trivial, span("algebra.pi1", algebra.pi1_trivial))
        self._patch(algebra.tietze_simplify, span("algebra.tietze", algebra.tietze_simplify))
        self._patch(algebra.coset_enumerate,
                    span("algebra.coset", algebra.coset_enumerate, self._coset))
        self._patch(canon.config_orbit, span("canon.orbit", canon.config_orbit, self._orbit))
        self._patch(canon.normalize_words, span("canon.normalize", canon.normalize_words))
        self._patch(canon.canonical_key, span("canon.key", canon.canonical_key, self._key))
        self._patch(topology.disk_flags, span("topology.flags", topology.disk_flags))
        self._patch(formats.normalize_orientations,
                    span("formats.ingest", formats.normalize_orientations))
        self._patch(pipeline.classify, span("pipeline.classify", pipeline.classify))
        self._patch(pipeline.classify_skeleton,
                    span("pipeline.skeleton", pipeline.classify_skeleton))
        self._patch(pipeline.reduce_survivors,
                    span("pipeline.reduce", self._audited_reduce(pipeline.reduce_survivors)))
        self._patch(skeleta.enumerate_skeleta,
                    span("skeleta.enumerate", skeleta.enumerate_skeleta))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self, pool_busy_ratio: float, output_bytes: int) -> dict:
        """Every LAYER_METRICS value.  pool_busy_ratio and output_bytes come
        from outside the trace: an untraced round and the output directory."""
        total, calls, counts = self.total, self.calls, self.counts
        scan_s = self.self_time["surfaces.scan"]
        leaves = counts["surfaces.scan.yields"]
        values = {
            "surfaces.scan_s": scan_s,
            "surfaces.leaves": leaves,
            "surfaces.leaves_per_s": _rate(leaves, scan_s),
            "surfaces.trace_s": total["surfaces.trace"],
            "surfaces.trace_calls": calls["surfaces.trace"],
            "algebra.boundary_s": total["algebra.boundary"],
            "algebra.det_s": total["algebra.det"],
            "algebra.det_calls": calls["algebra.det"],
            "algebra.dets_per_s": _rate(calls["algebra.det"], total["algebra.det"]),
            "algebra.acyclic_ratio": _rate(counts["acyclic"], calls["algebra.det"]),
            "algebra.pi1_s": total["algebra.pi1"],
            "algebra.pi1_calls": calls["algebra.pi1"],
            "algebra.tietze_s": total["algebra.tietze"],
            "algebra.coset_s": total["algebra.coset"],
            "algebra.cosets_used": counts["cosets_used"],
            "canon.orbit_s": total["canon.orbit"],
            "canon.orbit_calls": calls["canon.orbit"],
            "canon.orbit_members": counts["orbit_members"],
            "canon.normalize_s": total["canon.normalize"],
            "canon.key_s": total["canon.key"],
            "canon.key_calls": calls["canon.key"],
            "canon.keys_per_s": _rate(calls["canon.key"], total["canon.key"]),
            "canon.orbit_classes": len(self.orbit_minima),
            "canon.key_classes": len(self.keys),
            "topology.flags_s": total["topology.flags"],
            "topology.flags_calls": calls["topology.flags"],
            "formats.ingest_s": total["formats.ingest"],
            "formats.ingest_calls": calls["formats.ingest"],
            "pipeline.scan_s": total["pipeline.skeleton"] - total["pipeline.reduce"],
            "pipeline.reduce_s": total["pipeline.reduce"],
            "pipeline.survivors": counts["survivors"],
            "pipeline.persist_s": total["pipeline.classify"] - total["pipeline.skeleton"],
            "pipeline.output_bytes": output_bytes,
            "pipeline.pool_busy_ratio": pool_busy_ratio,
            "skeleta.enumerate_s": total["skeleta.enumerate"],
        }
        return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
