"""In-memory span tracer that times bmclab's layers from outside.

The tracer replaces public functions at the module attributes their callers
look up (for example ``bmclab.treesim.batch_normal_pairs`` is reached
through ``bmclab.rng.batch_uniform_pairs`` and ``bmclab.rng.ndtri``) with
wrappers that record one span per call: name, start, end, parent span and
thread.  Nothing in the program changes; ``uninstall`` puts every original
attribute back.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Per-layer self times plus a residual add up to the wall
time of the traced phase.  Spans on worker threads add up across threads, so
the residual is the time outside every span minus the time chunks of one
call ran beside each other (``thread_overlap``).
"""

from __future__ import annotations

import concurrent.futures
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Layers in the order they are reported; a span belongs to the layer named
# before the first dot of its name.
LAYERS = ("cli", "experiments", "treesim", "rng", "spectral", "variance",
          "moments", "kernels", "quadrature", "stats", "svg")

# Bytes moved per Philox output block by rng._philox_words, computed from
# its array passes: each of the 10 rounds makes 10 full-array numpy passes
# that read 12 and write 10 uint64 words per block (176 B), and counter
# setup plus output packing move another 14 words (112 B).
PHILOX_BYTES_PER_BLOCK = 10 * 176 + 112


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; patches and restores module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        ident = next(self._ids)
        stack.append(ident)
        start = time.perf_counter()
        try:
            yield ident
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(ident, name, start, end, parent, threading.get_ident())
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        ``counter(original, args, kwargs, result)`` runs after each call.

        A boundary the program no longer has is listed in ``missing`` and
        left alone, so its metrics read 0 instead of failing the run.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                counter(original, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return [(owner, attr, original) for owner, attr, original, _ in self._patches]


def install(tracer: Tracer) -> None:
    """Wrap bmclab's layer boundaries at the names their callers use."""
    from bmclab import (cli, experiments, kernels, moments, rng, spectral,
                        treesim)

    def philox(fn, args, kwargs, result):
        hi = result[0]
        tracer.count("rng.philox_bytes", hi.size * PHILOX_BYTES_PER_BLOCK)

    def normals(fn, args, kwargs, result):
        tracer.count("rng.normals", np.size(result))

    tracer.wrap(rng, "batch_uniform_pairs", "rng.uniform_pairs", philox)
    tracer.wrap(rng, "ndtri", "rng.ndtri", normals)
    tracer.wrap(rng, "derive_keys", "rng.derive_keys")
    tracer.wrap(treesim, "derive_keys", "rng.derive_keys")

    def arguments(fn, args, kwargs) -> dict:
        return inspect.signature(fn).bind(*args, **kwargs).arguments

    def tree_work(fn, args, kwargs, result):
        bound = arguments(fn, args, kwargs)
        n = int(bound["n"])
        rows = len(np.atleast_1d(bound["replica_keys"]))
        chunk_rows = max(1, treesim.CHUNK_VALUES >> n)
        tracer.count("treesim.generation_sums.calls", 1)
        tracer.count("treesim.nodes", rows * ((1 << (n + 1)) - 1))
        tracer.count("treesim.chunks", math.ceil(rows / chunk_rows))

    def sim_work(fn, args, kwargs, result):
        n = int(arguments(fn, args, kwargs)["n"])
        tracer.count("treesim.nodes", (1 << (n + 1)) - 1)

    for owner in (treesim, experiments):
        tracer.wrap(owner, "generation_sums", "treesim.generation_sums", tree_work)
    if hasattr(treesim, "ThreadPoolExecutor"):
        tracer.patch(treesim, "ThreadPoolExecutor", _traced_pool(tracer))
    tracer.wrap(cli, "simulate", "treesim.simulate", sim_work)
    for owner in (cli, experiments):
        tracer.wrap(owner, "replicate", "treesim.replicate")

    def values(fn, args, kwargs, result):
        tracer.count("spectral.evaluate.values", np.size(args[1]))

    tracer.wrap(spectral.SpectralFn, "evaluate", "spectral.evaluate", values)

    for owner in (cli, experiments):
        tracer.wrap(owner, "subcritical_variance", "variance.subcritical")
        tracer.wrap(owner, "critical_variance", "variance.critical")
    tracer.wrap(cli, "martingale_path", "variance.martingale_path")

    for fn in ("exact_mean", "exact_second_moment", "exact_cross_moment"):
        tracer.wrap(moments, fn, "moments.exact")
    for fn in ("enumerated_mean", "enumerated_second_moment",
               "enumerated_cross_moment"):
        tracer.wrap(moments, fn, "moments.enumerated")

    tracer.wrap(cli, "check_assumptions", "kernels.check_assumptions")
    tracer.wrap(kernels, "hermite_nodes", "quadrature.hermite_nodes")

    for fn in ("slope_study", "slope_summary", "clt_study", "supercritical_study"):
        tracer.wrap(cli, fn, f"experiments.{fn}")
    for fn in ("fit_line", "ks_normal_distance", "ks_threshold", "sample_moments"):
        tracer.wrap(experiments, fn, f"stats.{fn}")
    tracer.wrap(cli, "line_chart", "svg.line_chart")


def _traced_pool(tracer: Tracer):
    """A ThreadPoolExecutor whose mapped chunks run as child spans."""

    class TracedPool(concurrent.futures.ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()

            def chunk(*args):
                with tracer.span("treesim.chunk", parent=parent):
                    return fn(*args)

            return super().map(chunk, *iterables, **kwargs)

    return TracedPool


# -- analysis ----------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus its children's coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.ident: s.duration - _covered(children[s.ident], s.start, s.end)
            for s in spans}


def outer_time(spans, name: str) -> float:
    """Summed duration of spans called name, not counting nested repeats."""
    by_id = {s.ident: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.duration
    return total


def layer_self(spans) -> dict[str, float]:
    selfs = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + selfs[s.ident]
    return out


def thread_speedup(spans) -> float:
    """Chunk span time over generation_sums wall (serial calls count once).

    A call that ran its chunks on the pool contributes the summed duration
    of its chunk spans; a serial call contributes its own duration.  Zero
    when nothing was simulated.
    """
    chunk_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.name == "treesim.chunk":
            chunk_time[s.parent] += s.duration
    wall = busy = 0.0
    for s in spans:
        if s.name == "treesim.generation_sums":
            wall += s.duration
            busy += chunk_time.get(s.ident, s.duration)
    return busy / wall if wall > 0.0 else 0.0


def thread_overlap(spans) -> float:
    """Time chunks of one call ran beside each other on worker threads.

    Summed chunk durations minus the union of their intervals.  Per-layer
    self times count that time once per thread, so the residual (traced
    wall minus all self time) is the time outside every span minus this.
    """
    chunks: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.name == "treesim.chunk":
            chunks[s.parent].append((s.start, s.end))
    return sum(sum(end - start for start, end in iv)
               - _covered(iv, min(iv)[0], max(end for _, end in iv))
               for iv in chunks.values())


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase, as name -> (value, unit)."""
    spans = tracer.spans
    counts = tracer.counts
    selfs = layer_self(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in ("rng.uniform_pairs", "rng.ndtri", "rng.derive_keys",
                 "treesim.generation_sums", "treesim.simulate",
                 "spectral.evaluate", "variance.subcritical",
                 "variance.critical", "variance.martingale_path",
                 "moments.exact", "moments.enumerated",
                 "kernels.check_assumptions", "quadrature.hermite_nodes",
                 "svg.line_chart"):
        out[name + "_s"] = (outer_time(spans, name), "s")
    out["stats_s"] = (sum(s.duration for s in spans if s.layer == "stats"), "s")
    for name, unit in (("rng.normals", "count"), ("rng.philox_bytes", "bytes"),
                       ("treesim.generation_sums.calls", "count"),
                       ("treesim.nodes", "count"), ("treesim.chunks", "count"),
                       ("spectral.evaluate.values", "count"),
                       ("cli.output_bytes", "bytes")):
        out[name] = (float(counts.get(name, 0.0)), unit)
    out["treesim.thread_speedup"] = (thread_speedup(spans), "ratio")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (selfs[layer], "s")
    out["residual_s"] = (traced_wall - sum(selfs.values()), "s")
    out["thread_overlap_s"] = (thread_overlap(spans), "s")
    out["traced_wall_s"] = (traced_wall, "s")
    out["spans"] = (float(len(spans)), "count")
    return out
