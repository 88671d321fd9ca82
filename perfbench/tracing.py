"""Benchmark-side tracing: spans around the calls into each program layer.

The benchmark times layers from outside the program.  A traced pass wraps the
public functions the ISE pipeline calls — at the module attributes through
which the pipeline calls them — in spans, and restores them afterwards:

=====================  ==================================================
span                   wrapped call
=====================  ==================================================
``frontend.translate`` ``profile_kernel`` (called by the benchmark itself)
``ise.pipeline``       ``identify_instruction_set_extension`` (ditto)
``engine.run``         ``BatchRunner.run`` of the pass's runner
``memo.canon``         ``canonical_form`` as ``repro.engine.batch`` calls it
``memo.store_get``     ``ResultStore.get`` of the pass's store
``memo.store_put``     ``ResultStore.put_many`` of the pass's store
``core.context_build`` ``EnumerationContext.build``
``core.search``        ``enumerate_cuts`` as ``repro.engine.registry`` calls it
``ise.score``          ``score_cuts`` as ``repro.ise.pipeline`` calls it
``ise.select``         ``select_cuts`` as ``repro.ise.pipeline`` calls it
=====================  ==================================================

Pool workers are forked before the wrappers go in, so work done inside a
worker shows only as the enclosing ``engine.run`` span.  A call site that no
longer exists is skipped with a warning; the layer then reads zero and its
time shows as the enclosing span's self time.  :func:`layer_metrics` turns
one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro import EnumerationContext

#: ``(module, attribute, public name, span)`` of the module-level call sites.
CALL_SITES = (
    ("repro.engine.batch", "canonical_form", "repro.memo.canonical_form", "memo.canon"),
    ("repro.engine.registry", "enumerate_cuts", "repro.enumerate_cuts", "core.search"),
    ("repro.ise.pipeline", "score_cuts", "repro.ise.score_cuts", "ise.score"),
    ("repro.ise.pipeline", "select_cuts", "repro.ise.select_cuts", "ise.select"),
)

#: The span covering a whole pass; every other span is a layer.
ROOT = "ise.pass"


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id")

    def __init__(self, name: str, start: float, parent: Optional[int], pass_id: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_id = pass_id


class SpanRecorder:
    """Holds every span in memory until the run writes them out."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_id = 0
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = Span(name, time.perf_counter(), parent, self.pass_id)
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class _NullRecorder:
    """The untraced runs' recorder: spans cost one no-op context manager."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_RECORDER = _NullRecorder()


def _resolve(dotted: str):
    module, _, attribute = dotted.rpartition(".")
    return getattr(importlib.import_module(module), attribute)


@contextlib.contextmanager
def interposed(recorder: SpanRecorder, state) -> Iterator[None]:
    """Wrap the pipeline's layer calls in spans for the duration of a pass."""
    restore = []
    for module_name, attribute, public, span_name in CALL_SITES:
        module = importlib.import_module(module_name)
        current = getattr(module, attribute, None)
        if current is None or current is not _resolve(public):
            print(
                f"perfbench: {module_name}.{attribute} is no longer {public}; "
                f"span {span_name!r} not recorded",
                file=sys.stderr,
            )
            continue
        setattr(module, attribute, recorder.wrap(span_name, current))
        restore.append((module, attribute, current))

    build = EnumerationContext.__dict__["build"]
    EnumerationContext.build = classmethod(
        recorder.wrap("core.context_build", build.__func__)
    )
    runner = state.runner
    runner.run = recorder.wrap("engine.run", runner.run)
    if state.store is not None:
        state.store.get = recorder.wrap("memo.store_get", state.store.get)
        state.store.put_many = recorder.wrap("memo.store_put", state.store.put_many)
    try:
        yield
    finally:
        EnumerationContext.build = build
        for module, attribute, original in restore:
            setattr(module, attribute, original)
        del runner.run
        if state.store is not None:
            del state.store.get, state.store.put_many


def self_times(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Per pass, per span name: summed duration minus what child spans cover.

    *spans* is a recorder's whole list (``parent`` indexes into it).  Spans
    are strictly nested — one thread, context managers — so a span's
    children never overlap and their durations simply subtract.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    result: Dict[int, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        per_name = result.setdefault(span.pass_id, {})
        own = span.end - span.start - child_time[index]
        per_name[span.name] = per_name.get(span.name, 0.0) + own
    return result


def durations(spans: List[Span], pass_id: int) -> Dict[str, List[float]]:
    """Per span name: the durations of that pass's spans."""
    result: Dict[str, List[float]] = {}
    for span in spans:
        if span.pass_id == pass_id:
            result.setdefault(span.name, []).append(span.end - span.start)
    return result


def write_chrome_trace(path: Path, spans: List[Span], metadata: Dict[str, object]) -> None:
    """Write *spans* as Chrome trace-event JSON (opens in Perfetto)."""
    origin = spans[0].start if spans else 0.0
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": 1,
            "args": {
                "pass": span.pass_id,
                "span": index,
                "parent": span.parent,
                "parent_name": None if span.parent is None else spans[span.parent].name,
            },
        }
        for index, span in enumerate(spans)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"traceEvents": events, "otherData": metadata}, stream)


def layer_metrics(spans: List[Span], pass_id: int, workload, outcome, state):
    """The per-layer figures of one traced pass, and its self time per span."""
    self_time = self_times(spans)[pass_id]
    spans_by_name = durations(spans, pass_id)

    def total(name):
        return sum(spans_by_name.get(name, ()))

    fresh = [i for i in outcome.items if i.result is not None and not i.cached]
    stats = [i.result.stats for i in fresh]
    cuts = sum(s.cuts_found for s in stats)
    duplicates = sum(s.duplicates for s in stats)
    lt_calls = sum(s.lt_calls for s in stats)
    hits = sum(s.insearch_hits for s in stats)
    misses = sum(s.insearch_misses for s in stats)
    translate_s = total("frontend.translate")
    run_s = total("engine.run")
    busy_s = sum(i.elapsed_seconds for i in outcome.items)
    pass_s = total(ROOT)
    store = state.store.stats if state.store is not None else None
    metrics = {
        "frontend.translate_s": translate_s,
        "frontend.ops_per_s": outcome.frontend_ops / translate_s if translate_s else 0.0,
        "memo.canon_s": total("memo.canon"),
        "memo.canon_calls": len(spans_by_name.get("memo.canon", ())),
        "memo.store_get_s": total("memo.store_get"),
        "memo.store_put_s": total("memo.store_put"),
        "memo.store_hit_rate": store.hit_rate if store else 0.0,
        "memo.store_writes": store.writes if store else 0,
        "core.context_build_s": total("core.context_build"),
        "core.context_builds": len(spans_by_name.get("core.context_build", ())),
        "core.search_s": self_time.get("core.search", 0.0),
        "core.cuts": cuts,
        "core.duplicates": duplicates,
        "core.candidates_checked": sum(s.candidates_checked for s in stats),
        "core.useful_ratio": cuts / (cuts + duplicates) if cuts + duplicates else 0.0,
        "dominators.lt_calls": lt_calls,
        "dominators.lt_s": sum(s.lt_seconds for s in stats),
        "dominators.lt_calls_per_cut": lt_calls / cuts if cuts else 0.0,
        "memo.insearch_hits": hits,
        "memo.insearch_misses": misses,
        "memo.insearch_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "memo.insearch_evictions": sum(s.insearch_evictions for s in stats),
        "engine.run_s": run_s,
        "engine.busy_s": busy_s,
        "engine.dispatch_s": run_s - busy_s / workload.jobs,
        "engine.utilization": busy_s / (run_s * workload.jobs) if run_s else 0.0,
        "engine.warm_pool_s": state.warm_pool_s,
        "ise.score_s": total("ise.score"),
        "ise.select_s": total("ise.select"),
        "ise.instructions": outcome.instructions,
        "trace.coverage": (
            sum(t for name, t in self_time.items() if name != ROOT) / pass_s
        ),
    }
    return metrics, self_time
