"""Enumeration statistics and result containers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cut import Cut


@dataclass
class EnumerationStats:
    """Counters collected while enumerating cuts.

    The counters mirror the quantities the paper discusses: the number of
    Lengauer–Tarjan invocations (the kernel that takes "at least 70% of the
    time"), the number of candidate cuts submitted to the validity check, and
    how many branches each pruning rule removed.
    """

    cuts_found: int = 0
    duplicates: int = 0
    candidates_checked: int = 0
    lt_calls: int = 0
    pick_output_calls: int = 0
    pick_input_calls: int = 0
    pruned: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Wall time spent inside the Lengauer–Tarjan dominator kernel itself
    #: (fresh runs only — region-cache hits cost no kernel time).
    lt_seconds: float = 0.0
    #: Hit/miss counters of the ReachabilityIndex forbidden-between memo
    #: (bounded; see repro.dfg.reachability.FORBIDDEN_BETWEEN_CACHE_LIMIT).
    forbidden_cache_hits: int = 0
    forbidden_cache_misses: int = 0

    # The in-search memo is gone, but the frozen perfbench tracer still reads
    # these three counters; they stay as constant zeros, never serialized.
    @property
    def insearch_hits(self) -> int:
        return 0

    @property
    def insearch_misses(self) -> int:
        return 0

    @property
    def insearch_evictions(self) -> int:
        return 0

    def count_pruned(self, rule: str, amount: int = 1) -> None:
        """Record that *rule* pruned *amount* branches."""
        self.pruned[rule] = self.pruned.get(rule, 0) + amount

    def merge(self, other: "EnumerationStats") -> None:
        """Accumulate the counters of *other* into this object."""
        self.cuts_found += other.cuts_found
        self.duplicates += other.duplicates
        self.candidates_checked += other.candidates_checked
        self.lt_calls += other.lt_calls
        self.pick_output_calls += other.pick_output_calls
        self.pick_input_calls += other.pick_input_calls
        self.elapsed_seconds += other.elapsed_seconds
        self.lt_seconds += other.lt_seconds
        self.forbidden_cache_hits += other.forbidden_cache_hits
        self.forbidden_cache_misses += other.forbidden_cache_misses
        for rule, amount in other.pruned.items():
            self.count_pruned(rule, amount)

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"cuts found          : {self.cuts_found}",
            f"duplicates          : {self.duplicates}",
            f"candidates checked  : {self.candidates_checked}",
            f"Lengauer-Tarjan runs: {self.lt_calls}",
            f"output expansions   : {self.pick_output_calls}",
            f"input expansions    : {self.pick_input_calls}",
            f"elapsed             : {self.elapsed_seconds:.4f} s",
        ]
        if self.lt_seconds:
            lines.append(f"LT kernel time      : {self.lt_seconds:.4f} s")
        if self.forbidden_cache_hits or self.forbidden_cache_misses:
            lines.append(
                "forbidden-path cache: "
                f"{self.forbidden_cache_hits} hits / "
                f"{self.forbidden_cache_misses} misses"
            )
        for rule in sorted(self.pruned):
            lines.append(f"pruned[{rule}]: {self.pruned[rule]}")
        return "\n".join(lines)


@dataclass
class EnumerationResult:
    """Outcome of a cut enumeration run.

    Attributes
    ----------
    cuts:
        The distinct valid cuts, in discovery order.
    stats:
        Search statistics.
    graph_name:
        Name of the graph that was enumerated (for reports).
    algorithm:
        Identifier of the algorithm that produced the result.
    """

    cuts: List["Cut"] = field(default_factory=list)
    stats: EnumerationStats = field(default_factory=EnumerationStats)
    graph_name: str = ""
    algorithm: str = ""

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self) -> Iterator["Cut"]:
        return iter(self.cuts)

    def node_sets(self) -> Set[FrozenSet[int]]:
        """The cuts as a set of frozen vertex-id sets (order-independent)."""
        return {cut.nodes for cut in self.cuts}

    def largest(self, count: int = 1) -> List["Cut"]:
        """The *count* largest cuts by number of vertices."""
        return sorted(self.cuts, key=lambda cut: len(cut.nodes), reverse=True)[:count]

    def filter(self, predicate: Callable[["Cut"], bool]) -> List["Cut"]:
        """Cuts satisfying *predicate*."""
        return [cut for cut in self.cuts if predicate(cut)]


class Stopwatch:
    """Tiny context manager storing the elapsed wall-clock time into stats."""

    def __init__(self, stats: EnumerationStats) -> None:
        self._stats = stats
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self._stats.elapsed_seconds += time.perf_counter() - self._start
