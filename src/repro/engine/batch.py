"""Streaming, fault-tolerant multi-block batch enumeration.

The paper's conclusion is that full subgraph enumeration pays off when it is
driven across *whole applications* — many basic blocks, weighted by execution
counts — inside a compiler toolchain.  :class:`BatchRunner` is that driver: it
takes a :class:`~repro.workloads.suite.WorkloadSuite` (or any iterable of
graphs / profiled blocks), enumerates every block with one registry algorithm,
and returns per-block results in input order plus aggregated statistics.

Parallel runs (``jobs >= 2``, ``jobs="auto"``, or ``force_pool=True``) use a
**persistent** ``ProcessPoolExecutor`` behind a streaming scheduler.  Three
design decisions make the pool actually win against sub-40ms enumerations
from the paper's polynomial-time enumerator:

* **Worker-resident state.**  Each worker process keeps a bounded registry of
  deserialized graphs keyed by the parent's structural fingerprint, plus a
  :class:`ContextCache` of prepared :class:`EnumerationContext` objects.  A
  graph is shipped and deserialized once per worker, not once per block;
  subsequent tasks refer to it by fingerprint only.  The parent tracks how
  many copies of each graph it has shipped and stops attaching the graph
  body once every worker can have seen it; a worker that nevertheless misses
  a graph (registry eviction, unlucky task routing) reports ``missing`` and
  the block is resubmitted with the body attached.
* **Size-binned chunked dispatch.**  Blocks are binned by node count
  (:data:`CHUNK_BIN_NODE_WIDTH` nodes per bin) and many same-bin blocks
  travel in one task (up to :data:`MAX_CHUNK_BLOCKS`), so the per-task
  executor overhead — pickling, queue wakeups, future bookkeeping — is
  amortized across a chunk whose runtime stays predictable.  Workers stamp
  per-block ``task_seconds`` inside the chunk, so over-budget accounting
  stays per-block.
* **Compact wire format.**  Graphs travel as plain nested tuples
  (:func:`~repro.dfg.serialization.graph_to_wire`), and workers send back cut
  bit masks and counters only — no JSON encode/decode anywhere on the hot
  path.  The parent rebuilds the :class:`~repro.core.cut.Cut` objects
  against a locally built context, so the results of a parallel run are
  bit-identical to a sequential run.

The scheduler streams: at most ``2 * jobs`` chunks are outstanding at any
moment (so million-block suites never materialize every serialized graph up
front), results are collected as they complete, and
:meth:`BatchRunner.iter_run` yields each finished :class:`BatchItem`
immediately — :meth:`BatchRunner.run` is a thin wrapper that drains the
stream and restores input order.

Timeout semantics: a block's deadline is measured from the moment its task
actually *starts*, never from submission — time spent waiting in the pool
queue is not charged to the block.  A chunk of ``k`` blocks gets a combined
``k * timeout`` running deadline; a multi-block chunk that blows it is
re-split into single-block tasks (penalty-free) so the slow block is isolated
and charged individually, exactly like a chunk of one.  A single block still
running at its deadline is abandoned (``timed_out`` set, no result) and the
worker pool is recycled; a block that *completes* over budget — measured by
its own worker-side ``task_seconds`` stamp, even mid-chunk — keeps its result
and is only flagged, matching sequential runs (which cannot be interrupted).

When a worker process crashes (``BrokenProcessPool``) the in-flight chunks
are retried on a fresh pool.  A crash strike is charged only when the culprit
is unambiguous — a sole single-block casualty, or exactly one single-block
task observed *running* when the pool broke — and two strikes fail a block.
Any crash event involving a multi-block chunk is inherently ambiguous: every
casualty is re-split into single-block tasks and re-run one at a time
(quarantine), penalty-free, which makes any repeat crash attributable.  A
hard per-block encounter cap guarantees termination either way.

Both execution paths apply one exception policy: any ``Exception`` raised by
the algorithm is caught and recorded as ``item.error`` in the same
``"TypeName: message"`` form, so a block fails identically under ``jobs=1``
and ``jobs=2``.

Every run deduplicates whole blocks.  Each block is canonicalized
(:func:`~repro.memo.canon.canonical_form`) and grouped with its isomorphs:
one leader per class is enumerated, and the other members are served from
the leader's result, their cut masks remapped through the canonical
permutations and the items marked ``cached`` and ``deduplicated``.  An
attached :class:`~repro.memo.store.ResultStore` adds hits across runs: it is
consulted before a leader is dispatched, and fresh results are written back
chunk by chunk as they complete (one
:meth:`~repro.memo.store.ResultStore.put_many` call per finished chunk), so
a crash in the middle of a suite loses none of the work already finished.

The pool is owned by the runner and survives across :meth:`BatchRunner.run`
calls, so repeated runs (sweeps, benchmark loops, services) pay the worker
spawn cost once; :meth:`BatchRunner.warm_pool` pre-spawns the workers
explicitly and :meth:`BatchRunner.close` (or using the runner as a context
manager) releases them.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..core.constraints import Constraints
from ..core.context import EnumerationContext
from ..core.cut import Cut
from ..core.pruning import FULL_PRUNING, PruningConfig
from ..core.stats import EnumerationResult, EnumerationStats
from ..dfg.graph import DataFlowGraph
from ..dfg.serialization import graph_from_wire, graph_to_wire
from ..memo.canon import CanonicalForm, canonical_form
from ..memo.store import ResultStore, StoredResult, request_fingerprint
from ..obs import runtime as obs
from ..workloads.suite import WorkloadSuite
from .registry import DEFAULT_ALGORITHM, EnumerationRequest, get_algorithm

#: Anything the runner accepts as "a batch of blocks".
BlockLike = Union[DataFlowGraph, Tuple[DataFlowGraph, float]]
BatchInput = Union[WorkloadSuite, Iterable[BlockLike]]

#: Per-item progress hook: ``callback(item, completed, total)``.
ProgressCallback = Callable[["BatchItem", int, int], None]

#: Outstanding-task window of the streaming scheduler, as a multiple of
#: ``jobs``: enough to keep every worker busy while the parent rebuilds the
#: previous results, small enough that huge suites are serialized lazily.
WINDOW_FACTOR = 2

#: Width (in nodes) of one chunk size bin: blocks whose node counts fall in
#: the same bin may share a chunk, so chunk runtimes stay predictable.
CHUNK_BIN_NODE_WIDTH = 8

#: Hard cap on blocks per chunk, whatever the auto sizing says.
MAX_CHUNK_BLOCKS = 16

#: Auto chunk sizing targets about this many chunks per worker, so the
#: streaming window keeps every worker busy while chunks stay small enough
#: for timely completion-order yielding.
CHUNK_TARGET_PER_WORKER = 3

#: Bound on the per-worker graph registry (graphs kept deserialized in each
#: worker process, keyed by structural fingerprint).
WORKER_GRAPH_REGISTRY_LIMIT = 256

#: How long (seconds) to wait for the surviving futures of a broken pool to
#: settle before classifying them.
_BROKEN_POOL_DRAIN_SECONDS = 10.0

#: A block observed *running* when the pool broke is charged a crash strike
#: (it is a probable culprit); two strikes and it is marked failed.
_MAX_CRASH_CHARGES = 2

#: Hard bound on how many pool crashes any single block may witness while in
#: flight — charged or not — before it is marked failed.  Guarantees the
#: stream terminates even when crashes cannot be attributed (a worker that
#: dies before the parent ever observes its task running).
_MAX_CRASH_ENCOUNTERS = 4


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Resolve a ``jobs`` argument (an int or ``"auto"``) to a worker count.

    ``"auto"`` maps to ``os.cpu_count()``; on a single-core machine (or when
    the count is unknown) that is 1, so the losing pool is never spawned
    silently.  Integers are validated (must be >= 1) and passed through.
    """
    if isinstance(jobs, str):
        if jobs != "auto":
            raise ValueError(f'jobs must be a positive integer or "auto", got {jobs!r}')
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return count


class ContextCache:
    """Bounded LRU cache of :class:`EnumerationContext` objects.

    Keys combine the *structure* of the graph — its cached
    :meth:`~repro.dfg.graph.DataFlowGraph.structural_hash` — with the
    constraints, so two graph objects with identical content share one
    context while a renamed or edited graph does not.
    """

    def __init__(self, max_entries: int = 64, side: str = "parent") -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: Which end of the pool this cache serves ("parent" or "worker") —
        #: the ``side`` label of its observability counters.
        self.side = side
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[str, Constraints], EnumerationContext]" = (
            OrderedDict()
        )

    @staticmethod
    def fingerprint(graph: DataFlowGraph) -> str:
        """Deterministic structural key of *graph* (cached on the graph)."""
        return graph.structural_hash()

    def get(
        self,
        graph: DataFlowGraph,
        constraints: Optional[Constraints],
        fingerprint: Optional[str] = None,
    ) -> EnumerationContext:
        """Return a (possibly cached) context for *graph* under *constraints*.

        *fingerprint* may be supplied when the caller already fingerprinted
        the graph, to skip even the cached-hash lookup.
        """
        key = (fingerprint or self.fingerprint(graph), constraints or Constraints())
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            obs.metrics().inc("context_cache.hits_total", side=self.side)
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        obs.metrics().inc("context_cache.misses_total", side=self.side)
        context = EnumerationContext.build(graph, constraints)
        self._entries[key] = context
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return context

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class BatchItem:
    """Outcome of enumerating one block of a batch."""

    index: int
    graph: DataFlowGraph
    graph_name: str
    execution_count: float = 1.0
    result: Optional[EnumerationResult] = None
    context: Optional[EnumerationContext] = None
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    error: Optional[str] = None
    #: ``True`` when the result was not enumerated for this block: it was
    #: rebuilt from the memoization store or from an isomorphic leader.
    cached: bool = False
    #: ``True`` when the result was remapped from an isomorphic leader
    #: enumerated earlier in the same run (``cached`` is set too).
    deduplicated: bool = False

    @property
    def ok(self) -> bool:
        """``True`` when an enumeration result is available."""
        return self.result is not None


@dataclass
class BatchReport:
    """Input-ordered results of one batch run."""

    algorithm: str
    constraints: Constraints
    jobs: int
    items: List[BatchItem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def results(self) -> List[EnumerationResult]:
        """The successful per-block results, in input order."""
        return [item.result for item in self.items if item.ok]

    def failures(self) -> List[BatchItem]:
        """Items that errored or timed out without a result."""
        return [item for item in self.items if not item.ok]

    def timed_out(self) -> List[BatchItem]:
        """Items flagged over budget, in input order.

        Covers both blocks abandoned at their deadline (no result) and
        blocks that completed past the budget with their result kept (the
        only possible outcome of a sequential run, which cannot be
        interrupted).
        """
        return [item for item in self.items if item.timed_out]

    def total_cuts(self) -> int:
        """Number of cuts found across all successful blocks."""
        return sum(len(item.result.cuts) for item in self.items if item.ok)

    def total_stats(self) -> EnumerationStats:
        """Aggregated search statistics of the successful blocks."""
        total = EnumerationStats()
        for item in self.items:
            if item.ok:
                total.merge(item.result.stats)
        return total

    def summary(self) -> str:
        """One-paragraph human-readable account of the run."""
        stats = self.total_stats()
        lines = [
            f"batch of {len(self.items)} block(s), algorithm {self.algorithm!r}, "
            f"jobs={self.jobs}: {self.total_cuts()} cuts "
            f"in {stats.elapsed_seconds:.3f}s of enumeration time",
        ]
        for item in self.failures():
            reason = "timed out" if item.timed_out else (item.error or "failed")
            lines.append(f"  block {item.graph_name!r}: {reason}")
        for item in self.timed_out():
            if item.ok:
                lines.append(
                    f"  block {item.graph_name!r}: exceeded the budget "
                    f"({item.elapsed_seconds:.3f}s) but completed; result kept"
                )
        return "\n".join(lines)


def normalize_blocks(blocks: BatchInput) -> List[BatchItem]:
    """Turn any accepted batch input into an ordered :class:`BatchItem` list."""
    if isinstance(blocks, WorkloadSuite):
        pairs = [(graph, 1.0) for graph in blocks]
    else:
        pairs = []
        for entry in blocks:
            if isinstance(entry, DataFlowGraph):
                pairs.append((entry, 1.0))
            elif isinstance(entry, tuple):
                graph, count = entry
                pairs.append((graph, float(count)))
            elif hasattr(entry, "graph"):
                # Duck-typed profile, e.g. repro.ise.pipeline.BlockProfile.
                pairs.append(
                    (entry.graph, float(getattr(entry, "execution_count", 1.0)))
                )
            else:
                raise TypeError(
                    f"cannot interpret {entry!r} as a basic block; expected a "
                    "DataFlowGraph, a (graph, execution_count) pair, or an "
                    "object with a .graph attribute"
                )
    return [
        BatchItem(
            index=index,
            graph=graph,
            graph_name=graph.name,
            execution_count=count,
        )
        for index, (graph, count) in enumerate(pairs)
    ]


def _size_bin(graph: DataFlowGraph) -> int:
    """The chunking size bin of *graph* (node count bucket)."""
    return graph.num_nodes // CHUNK_BIN_NODE_WIDTH


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
#: Per-process context cache reused across the tasks a worker executes.
_worker_cache: Optional[ContextCache] = None

#: Per-process registry of deserialized graphs, keyed by the parent's
#: structural fingerprint.  Bounded LRU: a graph is deserialized once per
#: worker and then referenced by fingerprint for the rest of the pool's life.
_worker_graphs: "OrderedDict[str, DataFlowGraph]" = OrderedDict()


#: Statically-extracted shape of the chunk result records produced by
#: :func:`_enumerate_chunk` (every appended dict plus the return
#: expressions), pinned by ``repro lint``'s wire-drift pass.  Changing the
#: record layout requires bumping ``_ENUMERATE_CHUNK_SHAPE_VERSION`` and
#: recording the new hash here — old entries stay for provenance.
_ENUMERATE_CHUNK_SHAPE_VERSION = 1
_ENUMERATE_CHUNK_SHAPE_HISTORY = {1: "dda190e6e754a264"}


# repro-lint: worker-entry
def _worker_ping(seconds: float) -> int:
    """Warm-up task: occupy a worker briefly so the pool actually spawns."""
    time.sleep(seconds)
    return os.getpid()


# repro-lint: worker-entry
def _enumerate_chunk(
    payload: Tuple[
        str,
        Optional[Constraints],
        Optional[PruningConfig],
        Tuple[Tuple[str, Optional[tuple]], ...],
        Optional[Tuple[str, int]],
    ],
) -> Union[List[Dict[str, object]], Dict[str, object]]:
    """Enumerate one chunk of blocks inside a worker process.

    ``payload`` is ``(algorithm_name, constraints, pruning, blocks,
    obs_config)`` where each block is ``(fingerprint, wire_or_None)`` — the
    wire form is attached only when the parent believes this worker may not
    have seen the graph yet; otherwise the worker resolves the fingerprint
    in its registry.  ``obs_config`` is the parent's observability
    activation (see :func:`repro.obs.runtime.ensure_worker`); payloads from
    older callers may omit it.

    Returns one compact, picklable summary per block, aligned with the
    input: cut bit masks, statistics, algorithm label and the wall-clock
    time the block actually ran (``task_seconds``, stamped per block *inside*
    the chunk — the basis of the parent's over-budget accounting, which must
    never charge queue wait or a sibling block's runtime to a block).  A
    block whose graph is neither attached nor registered yields
    ``{"missing": True}`` and the parent resubmits it with the body; a block
    whose enumeration raises yields an ``{"error": ...}`` record without
    poisoning its siblings.

    With observability on, the per-block list is wrapped as
    ``{"results": [...], "metrics": <wire>, "spans": <wire>}`` — the
    worker's drained metric/span deltas ride back inside the chunk result
    and are folded in by the parent's :meth:`BatchRunner._collect_chunk`.
    """
    global _worker_cache
    algorithm_name, constraints, pruning, blocks = payload[:4]
    obs.ensure_worker(payload[4] if len(payload) > 4 else None)
    algorithm = get_algorithm(algorithm_name)
    results: List[Dict[str, object]] = []
    tracer = obs.tracer()
    with tracer.span("worker.chunk", cat="pool", blocks=len(blocks)):
        for fingerprint, wire in blocks:
            task_start = time.perf_counter()
            graph = _worker_graphs.get(fingerprint)
            if graph is None:
                if wire is None:
                    results.append({"missing": True})
                    continue
                graph = graph_from_wire(wire)
                _worker_graphs[fingerprint] = graph
                while len(_worker_graphs) > WORKER_GRAPH_REGISTRY_LIMIT:
                    _worker_graphs.popitem(last=False)
            else:
                _worker_graphs.move_to_end(fingerprint)
            try:
                with tracer.span("worker.block", cat="pool", graph=graph.name) as span:
                    context = None
                    if algorithm.capabilities.supports_context:
                        if _worker_cache is None:
                            _worker_cache = ContextCache(side="worker")
                        context = _worker_cache.get(
                            graph, constraints, fingerprint=fingerprint
                        )
                    result = algorithm.enumerate(
                        EnumerationRequest(
                            graph=graph,
                            constraints=constraints,
                            pruning=pruning,
                            context=context,
                        )
                    )
                    span.note(cuts=len(result.cuts))
            except Exception as exc:  # same policy as the sequential path
                results.append(
                    {
                        "error": f"{type(exc).__name__}: {exc}",
                        "task_seconds": time.perf_counter() - task_start,
                    }
                )
                continue
            results.append(
                {
                    "graph_name": result.graph_name,
                    "algorithm": result.algorithm,
                    "masks": [cut.node_mask() for cut in result.cuts],
                    "stats": result.stats,
                    "task_seconds": time.perf_counter() - task_start,
                }
            )
    drained = obs.drain_worker()
    if drained:
        return {"results": results, **drained}
    return results


class _WorkerPool:
    """A ``ProcessPoolExecutor`` plus its graph-shipping ledger.

    The ledger tracks, per structural fingerprint, how many task payloads
    carried the graph body to this pool.  Once ``jobs`` copies have shipped,
    every worker *may* have registered the graph, so further chunks refer to
    it by fingerprint alone; ``must_ship`` pins fingerprints a worker
    reported missing (eviction or unlucky routing), forcing the body onto
    every later shipment.  The ledger dies with the pool — fresh workers
    have empty registries.
    """

    def __init__(self, executor: ProcessPoolExecutor, jobs: int) -> None:
        self.executor = executor
        self.jobs = jobs
        self.shipped: Dict[str, int] = {}
        self.must_ship: Set[str] = set()
        #: Set once the executor is shut down; a dead pool is never reused.
        self.dead = False

    def submit_chunk(
        self,
        algorithm: str,
        constraints: Optional[Constraints],
        pruning: Optional[PruningConfig],
        chunk: List[BatchItem],
    ) -> Future:
        metrics = obs.metrics()
        blocks = []
        for item in chunk:
            fingerprint = item.graph.structural_hash()
            shipped_before = self.shipped.get(fingerprint, 0)
            ship = fingerprint in self.must_ship or shipped_before < self.jobs
            if ship:
                self.shipped[fingerprint] = shipped_before + 1
                metrics.inc("pool.graphs_shipped_total")
                if shipped_before >= self.jobs:
                    # Every worker could have seen this graph and one still
                    # reported it missing — an eviction- or routing-driven
                    # re-ship, worth watching separately.
                    metrics.inc("pool.graph_reships_total")
            blocks.append(
                (fingerprint, graph_to_wire(item.graph) if ship else None)
            )
        metrics.inc("pool.chunks_dispatched_total")
        metrics.inc("pool.blocks_dispatched_total", len(blocks))
        return self.executor.submit(
            _enumerate_chunk,
            (algorithm, constraints, pruning, tuple(blocks), obs.worker_config()),
        )

    def discard(self) -> None:
        """Shut the executor down without waiting (crashed-pool path)."""
        self.dead = True
        self.executor.shutdown(wait=False, cancel_futures=True)

    def kill(self) -> None:
        """Terminate the worker processes outright (timeout path).

        A timed-out task cannot be cancelled cooperatively, and a worker
        stuck in it would also block interpreter exit (the executor joins
        its workers atexit) — kill the processes.
        """
        self.dead = True
        workers = list((getattr(self.executor, "_processes", None) or {}).values())
        self.executor.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.terminate()

    def shutdown(self) -> None:
        """Orderly release (idle pool)."""
        self.dead = True
        self.executor.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
class BatchRunner:
    """Enumerate many basic blocks with one registry algorithm.

    Parameters
    ----------
    algorithm:
        Registry name (or alias) of the enumeration algorithm.
    constraints:
        I/O constraints applied to every block (defaults to Nin=4, Nout=2).
    pruning:
        Optional pruning configuration; only forwarded to algorithms whose
        capabilities declare ``supports_pruning``.
    jobs:
        Number of worker processes, or ``"auto"`` for ``os.cpu_count()``
        (clamped to 1 on a single-core machine); ``1`` (default) runs
        in-process.
    timeout:
        Optional per-block wall-clock budget in seconds, measured from the
        moment the block's task starts running — queue wait is never charged
        (see the module docstring for the exact semantics).
    context_cache:
        Parent-side context cache to share across runs; one is created per
        runner by default.
    store:
        Optional persistent :class:`~repro.memo.store.ResultStore`.  Blocks
        with a stored result (same canonical graph hash, algorithm and
        request fingerprint) skip enumeration entirely; fresh results are
        written back chunk by chunk as they complete.  Isomorphic blocks
        within one run are deduplicated with or without a store.
    mp_context:
        Optional :mod:`multiprocessing` context for the worker pool (e.g.
        ``multiprocessing.get_context("fork")``); the platform default is
        used when omitted.
    chunk_size:
        Blocks per dispatched task: ``"auto"`` (default) targets
        :data:`CHUNK_TARGET_PER_WORKER` chunks per worker capped at
        :data:`MAX_CHUNK_BLOCKS`, an integer forces a fixed capacity
        (``1`` restores task-per-block dispatch).
    force_pool:
        Route execution through the worker pool even at ``jobs=1``.  Used
        to measure dispatch overhead honestly (the benchmark gate) and to
        get abandonable timeouts on a single-core machine.

    A runner owns a persistent worker pool: the pool survives across
    :meth:`run` calls (so sweeps pay worker spawn once) and is released by
    :meth:`close`, by using the runner as a context manager, or at garbage
    collection.  The pool snapshots the process state (e.g. dynamically
    registered algorithms) when its workers spawn — create the runner after
    registering custom algorithms.
    """

    def __init__(
        self,
        algorithm: str = DEFAULT_ALGORITHM,
        constraints: Optional[Constraints] = None,
        pruning: Optional[PruningConfig] = None,
        jobs: Union[int, str] = 1,
        timeout: Optional[float] = None,
        context_cache: Optional[ContextCache] = None,
        store: Optional[ResultStore] = None,
        mp_context=None,
        chunk_size: Union[int, str] = "auto",
        force_pool: bool = False,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if isinstance(chunk_size, str):
            if chunk_size != "auto":
                raise ValueError(
                    f'chunk_size must be a positive integer or "auto", '
                    f"got {chunk_size!r}"
                )
        elif chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.algorithm = get_algorithm(algorithm).name
        self.constraints = constraints or Constraints()
        self.pruning = pruning
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.cache = context_cache or ContextCache()
        self.store = store
        self.mp_context = mp_context
        self.chunk_size = chunk_size
        self.force_pool = bool(force_pool)
        self._pool: Optional[_WorkerPool] = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _uses_pool(self) -> bool:
        return self.jobs >= 2 or self.force_pool

    def _make_pool(self) -> _WorkerPool:
        # max_workers is a cap: the executor spawns workers on demand, so a
        # jobs-sized pool never over-provisions for a short queue.
        executor = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self.mp_context
        )
        return _WorkerPool(executor, self.jobs)

    def _checkout_pool(self) -> _WorkerPool:
        """Take the persistent pool (or build one); caller must return it."""
        pool, self._pool = self._pool, None
        if pool is not None and not pool.dead:
            return pool
        return self._make_pool()

    def _return_pool(self, pool: _WorkerPool) -> None:
        """Hand a pool back for reuse (dead pools are dropped)."""
        if pool.dead:
            return
        if self._pool is None:
            self._pool = pool
        else:  # a nested stream already returned one; keep a single pool
            pool.shutdown()

    def warm_pool(self) -> None:
        """Pre-spawn the worker processes (no-op for in-process runs).

        Useful before timing-sensitive work: the first ``run`` after this
        call pays no worker fork/spawn cost.
        """
        if not self._uses_pool():
            return
        pool = self._checkout_pool()
        try:
            with obs.tracer().span("pool.warm", cat="pool", jobs=pool.jobs):
                # Overlapping sleeps force the executor to actually spawn all
                # `jobs` workers instead of funnelling the pings through one.
                futures = [
                    pool.executor.submit(_worker_ping, 0.05) for _ in range(pool.jobs)
                ]
                for future in futures:
                    future.result()
        except BrokenExecutor:
            pool.discard()
        finally:
            self._return_pool(pool)

    def close(self) -> None:
        """Release the persistent worker pool (the runner stays usable)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        blocks: BatchInput,
        progress: Optional[ProgressCallback] = None,
    ) -> BatchReport:
        """Enumerate every block and return the input-ordered report.

        Implemented on :meth:`iter_run`: the stream is drained to completion
        and the items — the same objects the generator yields — are restored
        to input order.  *progress* is invoked as ``progress(item, completed,
        total)`` after every finished block.
        """
        items = sorted(
            self.iter_run(blocks, progress=progress),
            key=lambda item: item.index,
        )
        return BatchReport(
            algorithm=self.algorithm,
            constraints=self.constraints,
            jobs=self.jobs,
            items=items,
        )

    def iter_run(
        self,
        blocks: BatchInput,
        progress: Optional[ProgressCallback] = None,
    ) -> Iterator[BatchItem]:
        """Enumerate *blocks*, yielding each :class:`BatchItem` as it finishes.

        Items arrive in completion order (``item.index`` carries the input
        position); every input block is yielded exactly once — successes,
        cache hits, deduplicated isomorphs, errors and timeouts alike.  A
        follower is yielded right after its leader.  With a store attached, each
        fresh result is written back *before* the item is yielded, so a
        consumer crash mid-suite never loses completed work.  *progress*, if
        given, is called as ``progress(item, completed, total)`` right before
        each item is yielded.
        """
        algorithm = get_algorithm(self.algorithm)
        # Pruning-capable algorithms treat "no pruning config" as full
        # pruning (see the registry adapters); normalizing here keeps that
        # default out of the cache key, so e.g. a `cache warm` run
        # (pruning=None) serves a later ISE run (pruning=FULL_PRUNING).
        if algorithm.capabilities.supports_pruning:
            pruning = self.pruning or FULL_PRUNING
        else:
            pruning = None
        items = normalize_blocks(blocks)
        total = len(items)
        completed = 0
        # Snapshot the observability switch once: activation never changes
        # mid-run, and the disabled path must not pay per-item bookkeeping.
        observing = obs.enabled()
        with obs.tracer().span(
            "batch.run",
            cat="batch",
            algorithm=self.algorithm,
            jobs=self.jobs,
            blocks=total,
        ):
            for item in self._iter_resolved(algorithm, pruning, items):
                completed += 1
                if observing:
                    self._record_item_metrics(item)
                if progress is not None:
                    progress(item, completed, total)
                yield item

    def _record_item_metrics(self, item: BatchItem) -> None:
        """Fold one finished block into the active metrics registry.

        Runs in the parent only, on the single funnel every item passes
        through (sequential, pool, store-hit and dedup paths alike), so
        counters are absorbed exactly once per block regardless of chunk
        re-splits, crash retries or caching.  Cached items contribute their
        status only: their stats describe the original (already-counted)
        run.
        """
        metrics = obs.metrics()
        if item.deduplicated:
            metrics.inc("enum.blocks_deduplicated_total", algorithm=self.algorithm)
        if item.cached:
            status = "cached"
        elif item.result is not None:
            status = "fresh"
        elif item.timed_out:
            status = "timeout"
        else:
            status = "error"
        metrics.inc("enum.blocks_total", status=status, algorithm=self.algorithm)
        if status != "fresh":
            return
        stats = item.result.stats
        metrics.inc("enum.cuts_found_total", stats.cuts_found)
        metrics.inc("enum.duplicates_total", stats.duplicates)
        metrics.inc("enum.candidates_checked_total", stats.candidates_checked)
        metrics.inc("enum.lt_calls_total", stats.lt_calls)
        metrics.inc("enum.lt_seconds_total", stats.lt_seconds)
        metrics.inc("enum.pick_output_calls_total", stats.pick_output_calls)
        metrics.inc("enum.pick_input_calls_total", stats.pick_input_calls)
        metrics.inc("enum.forbidden_cache_hits_total", stats.forbidden_cache_hits)
        metrics.inc("enum.forbidden_cache_misses_total", stats.forbidden_cache_misses)
        for rule, amount in stats.pruned.items():
            metrics.inc("enum.pruned_total", amount, rule=rule)
        metrics.observe("enum.block_seconds", stats.elapsed_seconds)

    # ------------------------------------------------------------------ #
    # Whole-block dedup and the store
    # ------------------------------------------------------------------ #
    def _iter_resolved(
        self,
        algorithm,
        pruning: Optional[PruningConfig],
        items: List[BatchItem],
    ) -> Iterator[BatchItem]:
        """Stream *items* through whole-block dedup, the store and the scheduler.

        Every block is canonicalized and keyed like a store entry.  The
        first block of each key is its class leader and is dispatched (a
        store hit serves it instead); later blocks of the key wait for the
        leader and are served from its result as soon as it finishes, or
        straight away when it already has.  Followers of a failed leader
        are dispatched together in one trailing round (deferring them one
        by one would serialize a parallel run).

        Resolution is *lazy*: the scheduler pulls blocks from this source as
        its submission window frees up, so canonicalization and store probes
        interleave with enumeration instead of forming an O(N) barrier in
        front of a large suite.
        """
        forms: Dict[int, CanonicalForm] = {}
        keys: Dict[int, str] = {}
        leaders: Dict[str, BatchItem] = {}  # finished, successful leaders
        followers_by_key: Dict[str, List[BatchItem]] = {}

        def classified() -> Iterator[Tuple[BatchItem, bool]]:
            tracer = obs.tracer()
            for item in items:
                with tracer.span("memo.classify", cat="memo", graph=item.graph_name):
                    start = time.perf_counter()
                    form = forms[item.index] = canonical_form(item.graph, self.constraints)
                    key = keys[item.index] = self._store_key(form, pruning)
                    if key in followers_by_key:
                        followers_by_key[key].append(item)
                        continue
                    if key in leaders:
                        self._serve_follower(item, leaders[key], forms)
                        resolved = True
                    else:
                        resolved = self._serve_from_store(item, key, form, start)
                        if not resolved:
                            followers_by_key[key] = []  # leader: dispatch it
                yield item, resolved

        deferred: List[BatchItem] = []
        for group in self._stream_groups(
            algorithm, pruning, classified(), total_hint=len(items)
        ):
            # One write-back per finished chunk, not per block.
            self._write_back(group, pruning, forms)
            for item in group:
                yield item
                if item.cached:
                    continue
                key = keys[item.index]
                waiting = followers_by_key.pop(key, [])
                if item.result is None:
                    deferred.extend(waiting)
                    continue
                leaders[key] = item
                for follower in waiting:
                    self._serve_follower(follower, item, forms)
                    yield follower

        if deferred:
            for group in self._stream_groups(
                algorithm,
                pruning,
                ((item, False) for item in deferred),
                total_hint=len(deferred),
            ):
                self._write_back(group, pruning, forms)
                yield from group

    def _store_key(self, form: CanonicalForm, pruning: Optional[PruningConfig]) -> str:
        return ResultStore.make_key(
            form.hash,
            self.algorithm,
            request_fingerprint(self.constraints, pruning),
        )

    def _serve(
        self,
        item: BatchItem,
        masks: Iterable[int],
        source: EnumerationResult,
        start: float,
    ) -> None:
        """Fill *item* with cuts rebuilt from *masks* (in its own vertex ids).

        *source* is the result the masks came from; its algorithm label and
        a copy of its stats carry over.  The stats are copied because the
        source object is shared (the store's LRU front, or the leader's
        result) and ``EnumerationStats.merge`` mutates in place.
        """
        with obs.tracer().span("memo.serve", cat="memo", graph=item.graph_name):
            item.context = self.cache.get(item.graph, self.constraints)
            stats = EnumerationStats()
            stats.merge(source.stats)
            item.result = EnumerationResult(
                cuts=[Cut.from_mask(item.context, mask) for mask in masks],
                stats=stats,
                graph_name=item.graph_name,
                # The label the algorithm itself emitted (it may differ from
                # the registry name, e.g. "exhaustive-pruned"), so a served
                # block reports exactly what its leader or the cold run
                # reported.
                algorithm=source.algorithm,
            )
        item.cached = True
        item.elapsed_seconds = time.perf_counter() - start

    def _serve_follower(
        self, item: BatchItem, leader: BatchItem, forms: Dict[int, CanonicalForm]
    ) -> None:
        """Serve *item* from its isomorphic *leader*'s result of this run."""
        start = time.perf_counter()
        assert leader.result is not None
        source, target = forms[leader.index], forms[item.index]
        self._serve(
            item,
            (
                target.from_canonical_mask(source.to_canonical_mask(cut.node_mask()))
                for cut in leader.result.cuts
            ),
            leader.result,
            start,
        )
        item.deduplicated = True

    def _serve_from_store(
        self, item: BatchItem, key: str, form: CanonicalForm, start: float
    ) -> bool:
        """Serve *item* from the store; ``False`` on a miss or without a store.

        Stored masks live in the canonical id space, so a hit produced by an
        isomorphic block remaps cleanly onto this block's vertex ids.
        """
        if self.store is None:
            return False
        stored = self.store.get(key)
        if stored is None:
            return False
        self._serve(
            item,
            (form.from_canonical_mask(mask) for mask in stored.masks),
            EnumerationResult(stats=stored.stats, algorithm=stored.algorithm),
            start,
        )
        return True

    def _write_back(
        self,
        computed: List[BatchItem],
        pruning: Optional[PruningConfig],
        forms: Dict[int, CanonicalForm],
    ) -> None:
        """Persist the results enumerated in this run (masks in canonical ids).

        A no-op without a store.  Cache hits and result-less items are
        skipped; everything else goes to the store in one
        :meth:`~repro.memo.store.ResultStore.put_many` batch.
        """
        if self.store is None:
            return
        fingerprint = request_fingerprint(self.constraints, pruning)
        entries: List[Tuple[str, StoredResult]] = []
        for item in computed:
            if item.cached or item.result is None:
                continue
            form = forms[item.index]
            entries.append(
                (
                    self._store_key(form, pruning),
                    StoredResult(
                        canonical_hash=form.hash,
                        # The result's own label, not the registry name (see
                        # the reconstruction in _serve).
                        algorithm=item.result.algorithm,
                        fingerprint=fingerprint,
                        masks=[
                            form.to_canonical_mask(cut.node_mask())
                            for cut in item.result.cuts
                        ],
                        stats=item.result.stats,
                    ),
                )
            )
        if entries:
            with obs.tracer().span(
                "store.write_back", cat="store", entries=len(entries)
            ):
                self.store.put_many(entries)

    # ------------------------------------------------------------------ #
    # Execution paths
    # ------------------------------------------------------------------ #
    def _stream_groups(
        self,
        algorithm,
        pruning: Optional[PruningConfig],
        source: Iterator[Tuple[BatchItem, bool]],
        total_hint: int,
    ) -> Iterator[List[BatchItem]]:
        """Yield finished blocks in groups from a lazy ``(item, resolved)`` source.

        Already-resolved items (store hits, deduplicated followers) pass
        straight through; the rest are enumerated.  A group is the natural completion unit — one
        finished chunk in parallel mode, one block sequentially — and is the
        granularity of store write-backs.  The source is pulled
        incrementally, so store lookups and canonicalization interleave with
        execution.
        """
        # Parallel-capable runs go through the pool even for a single
        # block: only the pool path can abandon a block that blows its
        # timeout.
        if self._uses_pool():
            yield from self._stream_parallel(pruning, source, total_hint)
        else:
            for item in self._stream_sequential(algorithm, pruning, source):
                yield [item]

    def _chunk_capacity(self, total_hint: int) -> int:
        """Blocks per chunk for a stream of roughly *total_hint* blocks."""
        if not isinstance(self.chunk_size, str):
            return int(self.chunk_size)
        return max(
            1,
            min(
                MAX_CHUNK_BLOCKS,
                total_hint // (CHUNK_TARGET_PER_WORKER * self.jobs),
            ),
        )

    @staticmethod
    def _form_chunk(
        staged: "deque[BatchItem]", capacity: int
    ) -> List[BatchItem]:
        """Pop the next chunk off *staged*: same-size-bin blocks, in order.

        The head block anchors the chunk; the rest of the staging queue is
        scanned for blocks in the same node-count bin (so chunk runtimes
        stay predictable) and everything else keeps its relative order.
        """
        first = staged.popleft()
        chunk = [first]
        if capacity <= 1 or not staged:
            return chunk
        want = _size_bin(first.graph)
        kept: "deque[BatchItem]" = deque()
        while staged and len(chunk) < capacity:
            candidate = staged.popleft()
            if _size_bin(candidate.graph) == want:
                chunk.append(candidate)
            else:
                kept.append(candidate)
        while kept:
            staged.appendleft(kept.pop())
        return chunk

    def _stream_sequential(
        self,
        algorithm,
        pruning: Optional[PruningConfig],
        source: Iterator[Tuple[BatchItem, bool]],
    ) -> Iterator[BatchItem]:
        for item, resolved in source:
            if resolved:
                yield item
                continue
            item.context = self.cache.get(item.graph, self.constraints)
            context = item.context if algorithm.capabilities.supports_context else None
            start = time.perf_counter()
            with obs.tracer().span(
                "enum.block", cat="enum", graph=item.graph_name
            ) as span:
                try:
                    item.result = algorithm.enumerate(
                        EnumerationRequest(
                            graph=item.graph,
                            constraints=self.constraints,
                            pruning=pruning,
                            context=context,
                        )
                    )
                    span.note(cuts=len(item.result.cuts))
                except Exception as exc:  # same policy as the parallel path
                    item.error = f"{type(exc).__name__}: {exc}"
                    span.note(error=item.error)
            item.elapsed_seconds = time.perf_counter() - start
            if self.timeout is not None and item.elapsed_seconds > self.timeout:
                # The run cannot be interrupted in-process; keep the result,
                # flag the overrun.
                item.timed_out = True
            yield item

    def _stream_parallel(
        self,
        pruning: Optional[PruningConfig],
        source: Iterator[Tuple[BatchItem, bool]],
        total_hint: int,
    ) -> Iterator[List[BatchItem]]:
        """The streaming chunked scheduler (see the module docstring).

        Bounded submission window over a lazily pulled source, size-binned
        chunk formation, as-completed collection, per-chunk deadlines
        measured from actual task start (``len(chunk) * timeout``), re-split
        retry of crashed or expired multi-block chunks, and pool recycling
        when a deadline fires (a running task cannot be cancelled
        cooperatively, so its worker must die).
        """
        jobs = self.jobs
        window = max(WINDOW_FACTOR * jobs, 2)
        capacity = self._chunk_capacity(total_hint)
        stage_limit = window * capacity
        retry: "deque[List[BatchItem]]" = deque()  # crash/timeout/missing chunks
        staged: "deque[BatchItem]" = deque()  # pulled misses awaiting dispatch
        crash_charges: Dict[int, int] = {}  # strikes: observed-running crashes
        crash_encounters: Dict[int, int] = {}  # any crash witnessed in flight
        in_flight: Dict[Future, List[BatchItem]] = {}
        started: Dict[Future, float] = {}  # first observed running, monotonic
        ready: List[BatchItem] = []  # store hits pulled from the source
        exhausted = False
        # Remaining tasks to run one-at-a-time after an ambiguous crash
        # (nobody — or a whole chunk — was on the hook): isolation makes any
        # repeat crash attributable, so innocents keep their clean record.
        quarantine = 0
        pool = self._checkout_pool()
        try:
            while True:
                # Pull the source lazily into the staging queue: at most
                # `stage_limit` staged misses (plus the in-flight chunks)
                # exist at a time, so million-block suites are never
                # materialized up front.
                pulls = 0
                while (
                    not exhausted
                    and pulls < stage_limit
                    and len(staged) < stage_limit
                ):
                    entry = next(source, None)
                    if entry is None:
                        exhausted = True
                        break
                    pulls += 1
                    item, resolved = entry
                    if resolved:
                        ready.append(item)
                    else:
                        staged.append(item)

                # Top up the submission window with chunks.  Chunks are only
                # formed once the staging queue can fill one (or the source
                # is dry), so early blocks are not dispatched in fragments.
                limit = 1 if quarantine else window
                while len(in_flight) < limit:
                    if retry:
                        chunk = retry.popleft()
                    elif staged and (exhausted or len(staged) >= capacity):
                        chunk = self._form_chunk(staged, capacity)
                    else:
                        break
                    try:
                        future = pool.submit_chunk(
                            self.algorithm, self.constraints, pruning, chunk
                        )
                    except BrokenExecutor:
                        # The pool broke before we noticed; the in-flight
                        # futures (if any) surface the crash below.
                        retry.appendleft(chunk)
                        break
                    in_flight[future] = chunk

                if ready:
                    yield list(ready)
                    ready.clear()
                    if pulls >= stage_limit and not exhausted:
                        # The pull cap — not capacity — ended the top-up: a
                        # run of store hits is flowing.  Keep draining it
                        # instead of blocking on the in-flight tasks.
                        continue

                if not in_flight:
                    if retry:  # broken pool with nothing left in flight
                        pool.discard()
                        pool = self._make_pool()
                        continue
                    if exhausted and not staged:
                        break
                    continue  # source (or the staged misses) still has blocks

                tick = (
                    None
                    if self.timeout is None
                    else max(min(self.timeout / 10.0, 0.1), 0.005)
                )
                done, _ = wait(list(in_flight), timeout=tick, return_when=FIRST_COMPLETED)

                # (chunk, was_observed_running) casualties of a broken pool.
                crashed: List[Tuple[List[BatchItem], bool]] = []
                for future in done:
                    chunk = in_flight.pop(future)
                    was_running = started.pop(future, None) is not None
                    outcome = self._collect_chunk(future, chunk, pool)
                    if outcome is None:
                        crashed.append((chunk, was_running))
                    else:
                        quarantine = max(quarantine - 1, 0)
                        finished, requeue = outcome
                        retry.extend(requeue)
                        if finished:
                            yield finished

                if crashed:
                    # The pool is broken: every other in-flight future fails
                    # with it.  Drain them (already-computed results survive),
                    # then rebuild the pool and retry the casualties.
                    if in_flight:
                        wait(list(in_flight), timeout=_BROKEN_POOL_DRAIN_SECONDS)
                        for future, chunk in list(in_flight.items()):
                            was_running = started.pop(future, None) is not None
                            outcome = self._collect_chunk(future, chunk, pool)
                            if outcome is None:
                                crashed.append((chunk, was_running))
                            else:
                                finished, requeue = outcome
                                retry.extend(requeue)
                                if finished:
                                    yield finished
                        in_flight.clear()
                        started.clear()
                    pool.discard()
                    obs.metrics().inc("pool.crash_recoveries_total")
                    obs.tracer().instant(
                        "pool.crashed", cat="pool", casualties=len(crashed)
                    )
                    failed, isolate = self._triage_crash(
                        crashed, retry, crash_charges, crash_encounters
                    )
                    for item in failed:
                        quarantine = max(quarantine - 1, 0)
                    if failed:
                        yield failed
                    quarantine += isolate
                    pool = self._make_pool()
                    continue

                if not in_flight:
                    continue

                # Stamp a task when it is first observed running, capped at
                # `jobs` stamps so the executor's one-deep call-queue buffer
                # is never treated as executing.  The stamps drive both the
                # deadline accounting and the crash attribution above.
                now = time.monotonic()
                for future in in_flight:
                    if (
                        future not in started
                        and len(started) < jobs
                        and future.running()
                    ):
                        started[future] = now

                if self.timeout is None:
                    continue
                expired = [
                    future
                    for future, stamp in started.items()
                    if now - stamp >= self.timeout * len(in_flight[future])
                    and not future.done()
                ]
                if not expired:
                    continue
                for future in expired:
                    chunk = in_flight.pop(future)
                    stamp = started.pop(future)
                    quarantine = max(quarantine - 1, 0)
                    obs.metrics().inc("pool.deadline_expiries_total")
                    if len(chunk) == 1:
                        item = chunk[0]
                        item.timed_out = True
                        item.elapsed_seconds = now - stamp
                        obs.tracer().instant(
                            "pool.block_abandoned", cat="pool",
                            graph=item.graph_name,
                        )
                        yield [item]
                    else:
                        # The chunk blew its combined budget but the slow
                        # block is unknown: re-split into single-block tasks
                        # (penalty-free) so each gets its own deadline.
                        obs.metrics().inc(
                            "pool.chunk_resplits_total", reason="deadline"
                        )
                        for item in chunk:
                            retry.append([item])
                # A running task cannot be cancelled cooperatively: kill the
                # workers and rebuild the pool.  Innocent in-flight chunks
                # are resubmitted with no penalty (results that landed
                # between the wait() and now are kept as-is).
                survivors: List[List[BatchItem]] = []
                for future, chunk in list(in_flight.items()):
                    if future.done():
                        outcome = self._collect_chunk(future, chunk, pool)
                        if outcome is not None:
                            quarantine = max(quarantine - 1, 0)
                            finished, requeue = outcome
                            retry.extend(requeue)
                            if finished:
                                yield finished
                            continue
                    survivors.append(chunk)
                in_flight.clear()
                started.clear()
                pool.kill()
                retry.extendleft(reversed(survivors))
                pool = self._make_pool()
        finally:
            if in_flight:
                # The consumer abandoned the stream with tasks still running.
                pool.kill()
            else:
                self._return_pool(pool)

    @staticmethod
    def _triage_crash(
        crashed: List[Tuple[List[BatchItem], bool]],
        retry: "deque[List[BatchItem]]",
        charges: Dict[int, int],
        encounters: Dict[int, int],
    ) -> Tuple[List[BatchItem], int]:
        """Requeue or fail the casualties of one broken-pool event.

        A strike (*charges*) is issued only when the culprit is unambiguous:
        every casualty was a single-block task, and the event had a sole
        casualty or exactly one task observed *running* when the pool broke.
        Everyone else is requeued penalty-free, so one poison block can
        never burn an innocent neighbour's retry — not even a slow innocent
        running right next to it.  Ambiguous crashes — several suspects, or
        any multi-block chunk among the casualties — charge nobody and
        requeue every casualty block as a *single-block* task run in
        isolation (the second number returned), so a repeat crash has
        exactly one suspect.  The *encounters* cap bounds the worst case per
        block, so the stream always terminates.  Returns the items whose
        error was just sealed, plus the quarantine count.
        """
        singles_only = all(len(chunk) == 1 for chunk, _ in crashed)
        suspects = sum(1 for _, was_running in crashed if was_running)
        attributable = singles_only and (len(crashed) == 1 or suspects == 1)
        for chunk, _ in crashed:
            if len(chunk) > 1:
                obs.metrics().inc("pool.chunk_resplits_total", reason="crash")
        failed: List[BatchItem] = []
        requeued: List[List[BatchItem]] = []
        for chunk, was_running in crashed:
            for item in chunk:
                encounters[item.index] = encounters.get(item.index, 0) + 1
                if attributable and (was_running or len(crashed) == 1):
                    charges[item.index] = charges.get(item.index, 0) + 1
                if charges.get(item.index, 0) >= _MAX_CRASH_CHARGES:
                    item.error = (
                        "BrokenProcessPool: worker process crashed "
                        f"{_MAX_CRASH_CHARGES} times while running this block"
                    )
                    failed.append(item)
                elif encounters[item.index] >= _MAX_CRASH_ENCOUNTERS:
                    item.error = (
                        "BrokenProcessPool: worker pool crashed "
                        f"{_MAX_CRASH_ENCOUNTERS} times with this block in flight"
                    )
                    failed.append(item)
                else:
                    requeued.append([item])
        retry.extendleft(reversed(requeued))
        return failed, (0 if attributable else len(requeued))

    def _collect_chunk(
        self,
        future: Future,
        chunk: List[BatchItem],
        pool: _WorkerPool,
    ) -> Optional[Tuple[List[BatchItem], List[List[BatchItem]]]]:
        """Turn a finished chunk future into its items, or report a worker death.

        Returns ``(finished, requeue)`` — the items ready to be yielded
        (successes, worker errors, completed-over-budget) and the
        single-block tasks to resubmit (blocks whose graph the worker was
        missing) — or ``None`` when the worker died and the caller must
        triage the whole chunk for the crash-retry pass.
        """
        try:
            payloads = future.result(timeout=0)
        except (BrokenExecutor, CancelledError, FuturesTimeoutError):
            return None
        except Exception as exc:
            # A failure outside the worker's per-block harness (e.g. an
            # unpicklable payload): charge it to every block of the chunk,
            # in the same "TypeName: message" form.
            message = f"{type(exc).__name__}: {exc}"
            for item in chunk:
                item.error = message
            return list(chunk), []
        if isinstance(payloads, dict):
            # Observability-enabled worker: the per-block list rides inside a
            # wrapper dict next to the worker's drained metric/span deltas.
            obs.absorb_worker_payload(payloads)
            payloads = payloads["results"]
        finished: List[BatchItem] = []
        requeue: List[List[BatchItem]] = []
        for item, payload in zip(chunk, payloads):
            if payload.get("missing"):
                # The worker never saw this graph (registry eviction or
                # unlucky routing): pin the body onto future shipments and
                # resubmit the block alone.
                pool.must_ship.add(item.graph.structural_hash())
                obs.metrics().inc("pool.graph_missing_total")
                requeue.append([item])
                continue
            error = payload.get("error")
            if error is not None:
                item.error = str(error)
                item.elapsed_seconds = float(payload.get("task_seconds", 0.0))
                finished.append(item)
                continue
            item.context = self.cache.get(item.graph, self.constraints)
            item.result = EnumerationResult(
                cuts=[Cut.from_mask(item.context, mask) for mask in payload["masks"]],
                stats=payload["stats"],
                graph_name=payload["graph_name"],
                algorithm=payload["algorithm"],
            )
            item.elapsed_seconds = payload["stats"].elapsed_seconds
            if (
                self.timeout is not None
                and float(payload.get("task_seconds", 0.0)) > self.timeout
            ):
                # Completed over budget — mid-chunk or between two scheduler
                # ticks: keep the result, flag the overrun — identical to
                # sequential semantics.
                item.timed_out = True
            finished.append(item)
        return finished, requeue


def enumerate_batch(
    blocks: BatchInput,
    algorithm: str = DEFAULT_ALGORITHM,
    constraints: Optional[Constraints] = None,
    pruning: Optional[PruningConfig] = None,
    jobs: Union[int, str] = 1,
    timeout: Optional[float] = None,
) -> BatchReport:
    """One-shot convenience wrapper around :class:`BatchRunner`."""
    with BatchRunner(
        algorithm=algorithm,
        constraints=constraints,
        pruning=pruning,
        jobs=jobs,
        timeout=timeout,
    ) as runner:
        return runner.run(blocks)
