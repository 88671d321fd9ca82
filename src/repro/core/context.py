"""Enumeration context: everything precomputed before the search starts.

The paper's Section 5.4 lists the data structures kept by the implementation:
adjacency lists and matrix, path-presence information annotated with forbidden
vertices, and the dominator/postdominator trees.  :class:`EnumerationContext`
bundles all of them, derived once from a :class:`~repro.dfg.graph.DataFlowGraph`
and a :class:`~repro.core.constraints.Constraints` object, and is shared by
every enumeration algorithm and by the validity checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dfg.augment import AugmentedDFG, augment
from ..dfg.graph import DataFlowGraph
from ..dfg.opcodes import is_memory
from ..dfg.reachability import ReachabilityIndex, mask_from_ids
from ..dominators.dominator_tree import DominatorTree
from ..dominators.iterative import immediate_dominators_dag
from ..dominators.multi_vertex import CompletionResult, completions_from_idom
from ..dominators.postdominators import dominator_tree_of, postdominator_tree_of
from .constraints import Constraints


def effective_forbidden(node, constraints: Constraints) -> bool:
    """The forbidden flag of *node* after constraint-driven overrides.

    Memory operations are forbidden unless ``allow_memory_ops``; vertices in
    ``extra_forbidden`` are forbidden unconditionally.  This is the single
    definition of the rule: :meth:`EnumerationContext.build` applies it to
    the working graph, and :mod:`repro.memo.canon` folds it into canonical
    hashes — the two must agree or the memoization store would serve results
    computed under a different forbidden set.
    """
    forbidden = node.forbidden
    if node.is_operation:
        if is_memory(node.opcode):
            forbidden = not constraints.allow_memory_ops
        if node.node_id in constraints.extra_forbidden:
            forbidden = True
    return forbidden


class ContributionTables:
    """Precomputed per-(vertex, output) contribution masks.

    For a candidate output ``o`` the incremental enumerator repeatedly needs
    ``B({w}, o)`` — the vertices a candidate input ``w`` contributes to the
    cut body — and the *forbidden interior* of the ``(w, o)`` pair, which
    drives the output–input pruning of Section 5.3.  Both are pure
    intersections of closure rows, so this class materialises them once per
    output (lazily, on first query) and serves every later query with a list
    index.

    The forbidden interiors depend on the forbidden set, so the tables carry
    the forbidden-set fingerprint they were built against;
    :meth:`EnumerationContext.contribution_tables` rebuilds them whenever the
    context's fingerprint no longer matches.  Because contexts are shared
    through the engine's ``ContextCache`` (whose key ignores the pruning
    configuration) and per-process in the batch workers, one set of tables
    serves every pruning variant and every repeated run on the same block.
    """

    def __init__(self, reach: ReachabilityIndex, forbidden_mask: int) -> None:
        self.reach = reach
        self.forbidden_fingerprint = forbidden_mask
        self._between: Dict[int, List[int]] = {}
        self._forbidden_interior: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ #
    def between_table(self, output: int) -> List[int]:
        """Per-vertex ``B({w}, output)`` masks (row ``w`` of the table)."""
        rows = self._between.get(output)
        if rows is None:
            reach = self.reach
            window = reach.ancestors_mask(output) | (1 << output)
            rows = [reach.descendants_mask(v) & window for v in range(reach.num_nodes)]
            self._between[output] = rows
        return rows

    def forbidden_interior_table(self, output: int) -> List[int]:
        """Per-vertex masks of forbidden vertices strictly between ``w`` and *output*."""
        rows = self._forbidden_interior.get(output)
        if rows is None:
            reach = self.reach
            window = reach.ancestors_mask(output) & self.forbidden_fingerprint
            rows = [reach.descendants_mask(v) & window for v in range(reach.num_nodes)]
            self._forbidden_interior[output] = rows
        return rows

    # ------------------------------------------------------------------ #
    def between(self, vertex: int, output: int) -> int:
        """``B({vertex}, output)`` from the precomputed table."""
        return self.between_table(output)[vertex]

    def between_union(self, sources_mask: int, output: int) -> int:
        """``B(V, output)`` as the union of the table rows of ``V``."""
        rows = self.between_table(output)
        union = 0
        while sources_mask:
            low = sources_mask & -sources_mask
            union |= rows[low.bit_length() - 1]
            sources_mask ^= low
        return union

    def forbidden_interior(self, vertex: int, output: int) -> int:
        """Forbidden vertices on some path strictly between *vertex* and *output*."""
        return self.forbidden_interior_table(output)[vertex]


#: Shared "the seed already blocks every path" completion step.  The
#: dataclass is frozen and the completion sequence an immutable tuple, so
#: handing one instance to every caller in the process is safe.
_ALREADY_DOMINATED = CompletionResult(already_dominated=True, completions=(), lt_calls=0)

#: Entry cap of each per-context dominator cache (reachable regions, idom
#: arrays, completion steps).  The keys are drawn from one graph's own
#: search space, which is usually far smaller, but a pathological block
#: under a long-lived batch worker must not grow without bound — eviction
#: is first-in, like the reachability index's forbidden-between memo.
REGION_CACHE_LIMIT = 32768


@dataclass
class EnumerationContext:
    """Precomputed view of a basic block, ready for cut enumeration.

    Use :meth:`build` to construct one; the attributes are then read-only by
    convention.  On top of the static precomputation the context owns the
    *shared dominator-query caches* of the enumeration hot path: reachable
    regions per forbidden/seed mask, one immediate-dominator array per
    reachable region (a single Lengauer–Tarjan run answers the completion
    query of every output of that region), and the per-(region, output)
    completion steps derived from them.  Keeping these on the context —
    rather than inside one enumerator instance — lets repeated runs over the
    same block (pruning ablations, batch re-runs, warm ``ContextCache``
    hits) skip the dominator kernel entirely.
    """

    constraints: Constraints
    original_graph: DataFlowGraph
    augmented: AugmentedDFG
    reach: ReachabilityIndex
    dom_tree: DominatorTree
    postdom_tree: DominatorTree
    successor_lists: List[List[int]] = field(default_factory=list)
    predecessor_lists: List[List[int]] = field(default_factory=list)
    forbidden_mask: int = 0
    candidate_mask: int = 0
    candidate_nodes: List[int] = field(default_factory=list)
    depths: List[int] = field(default_factory=list)
    topo_order: List[int] = field(default_factory=list)
    #: Dominator-kernel invocations actually performed through this context
    #: (cache misses only); enumerators report per-run deltas of it.
    lt_calls_performed: int = field(default=0, compare=False)
    #: Wall time spent inside those fresh kernel invocations, in seconds —
    #: the denominator of the paper's "at least 70% of the time" claim.
    lt_seconds_performed: float = field(default=0.0, compare=False)
    _reachable_cache: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _idom_cache: Dict[int, List[Optional[int]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _completion_cache: Dict[Tuple[int, int], CompletionResult] = field(
        default_factory=dict, repr=False, compare=False
    )
    _contrib: Optional[ContributionTables] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, graph: DataFlowGraph, constraints: Optional[Constraints] = None) -> "EnumerationContext":
        """Prepare a context for enumerating the cuts of *graph* under *constraints*."""
        constraints = constraints or Constraints()

        working = graph.copy()
        # Apply constraint-driven forbidden flags before augmentation so that
        # the artificial source is wired to the right vertices.
        for node in working.nodes():
            node.forbidden = effective_forbidden(node, constraints)

        augmented = augment(working)
        reach = ReachabilityIndex(augmented.graph, forbidden=augmented.forbidden)
        dom_tree = dominator_tree_of(augmented)
        postdom_tree = postdominator_tree_of(augmented)

        num_nodes = augmented.graph.num_nodes
        successor_lists = [list(augmented.graph.successors(v)) for v in range(num_nodes)]
        predecessor_lists = [list(augmented.graph.predecessors(v)) for v in range(num_nodes)]

        forbidden_mask = mask_from_ids(augmented.forbidden)
        candidate_nodes = [
            v for v in augmented.original_node_ids() if v not in augmented.forbidden
        ]
        candidate_mask = mask_from_ids(candidate_nodes)
        depths = augmented.graph.all_depths()
        topo_order = list(augmented.graph.topological_order())

        return cls(
            constraints=constraints,
            original_graph=graph,
            augmented=augmented,
            reach=reach,
            dom_tree=dom_tree,
            postdom_tree=postdom_tree,
            successor_lists=successor_lists,
            predecessor_lists=predecessor_lists,
            forbidden_mask=forbidden_mask,
            candidate_mask=candidate_mask,
            candidate_nodes=candidate_nodes,
            depths=depths,
            topo_order=topo_order,
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of vertices of the augmented graph (original + source + sink)."""
        return self.augmented.graph.num_nodes

    @property
    def source(self) -> int:
        """Artificial source vertex (root for dominator queries)."""
        return self.augmented.source

    @property
    def sink(self) -> int:
        """Artificial sink vertex (root for postdominator queries)."""
        return self.augmented.sink

    @property
    def max_inputs(self) -> int:
        """``Nin`` of the active constraint set."""
        return self.constraints.max_inputs

    @property
    def max_outputs(self) -> int:
        """``Nout`` of the active constraint set."""
        return self.constraints.max_outputs

    def is_forbidden(self, node_id: int) -> bool:
        """``True`` if the vertex may not belong to any cut."""
        return bool((self.forbidden_mask >> node_id) & 1)

    def is_candidate(self, node_id: int) -> bool:
        """``True`` if the vertex may belong to a cut."""
        return bool((self.candidate_mask >> node_id) & 1)

    def ancestors_mask(self, node_id: int) -> int:
        """Ancestor mask of *node_id* in the augmented graph."""
        return self.reach.ancestors_mask(node_id)

    # ------------------------------------------------------------------ #
    # Shared hot-path caches
    # ------------------------------------------------------------------ #
    @property
    def contribution_tables(self) -> ContributionTables:
        """The per-(vertex, output) contribution tables, fingerprint-checked.

        Rebuilt automatically when the context's forbidden mask no longer
        matches the fingerprint the tables were computed against (the
        forbidden interiors bake the forbidden set into their rows).
        """
        tables = self._contrib
        if tables is None or tables.forbidden_fingerprint != self.forbidden_mask:
            tables = ContributionTables(self.reach, self.forbidden_mask)
            self._contrib = tables
        return tables

    def reachable_avoiding(self, avoid_mask: int) -> int:
        """Vertices reachable from the source once *avoid_mask* is removed.

        Memoised on the context: two input sets that leave the same
        reachable region induce the same reduced graph, so this mask doubles
        as the key of the shared dominator cache.  Computed as a frontier
        sweep over the packed successor rows — one row union per level
        instead of one Python iteration per edge.
        """
        cached = self._reachable_cache.get(avoid_mask)
        if cached is None:
            source = self.source
            if (avoid_mask >> source) & 1:
                cached = 0
            else:
                rows = self.reach.successor_rows()
                seen = 1 << source
                frontier = rows[source] & ~avoid_mask
                while frontier:
                    seen |= frontier
                    grown = 0
                    while frontier:
                        low = frontier & -frontier
                        grown |= rows[low.bit_length() - 1]
                        frontier ^= low
                    frontier = grown & ~avoid_mask & ~seen
                cached = seen
            if len(self._reachable_cache) >= REGION_CACHE_LIMIT:
                self._reachable_cache.pop(next(iter(self._reachable_cache)))
            self._reachable_cache[avoid_mask] = cached
        return cached

    def dominator_completions_for(
        self, inputs_mask: int, output: int
    ) -> Tuple[CompletionResult, int]:
        """Memoised Dubrova reduction step for ``(current inputs, output)``.

        Returns the completion step plus the number of Lengauer–Tarjan runs
        it actually triggered (0 on any cache hit).  The dominator arrays
        are keyed by the *reachable region* the input set leaves behind, and
        one array serves every output of that region — the optimisation that
        collapses the enumeration's LT-call count from one per (input set,
        output) pair to one per distinct region.
        """
        reachable = self.reachable_avoiding(inputs_mask)
        if not ((reachable >> output) & 1):
            return _ALREADY_DOMINATED, 0
        key = (reachable, output)
        cached = self._completion_cache.get(key)
        if cached is not None:
            return cached, 0
        idom = self._idom_cache.get(reachable)
        fresh_lt_calls = 0
        if idom is None:
            # DFGs are acyclic, so the single-pass DAG kernel replaces the
            # general Lengauer–Tarjan run; ``lt_calls`` keeps counting these
            # dominator-kernel invocations.
            kernel_start = time.perf_counter()
            idom = immediate_dominators_dag(
                self.topo_order,
                self.predecessor_lists,
                self.source,
                removed_mask=inputs_mask,
            )
            self.lt_seconds_performed += time.perf_counter() - kernel_start
            if len(self._idom_cache) >= REGION_CACHE_LIMIT:
                self._idom_cache.pop(next(iter(self._idom_cache)))
            self._idom_cache[reachable] = idom
            fresh_lt_calls = 1
            self.lt_calls_performed += 1
        step = completions_from_idom(idom, self.source, output)
        if len(self._completion_cache) >= REGION_CACHE_LIMIT:
            self._completion_cache.pop(next(iter(self._completion_cache)))
        self._completion_cache[key] = step
        return step, fresh_lt_calls

    def dominated_by(self, inputs_mask: int, output: int) -> bool:
        """Condition 1 of Definition 5 for the current input set and *output*."""
        if not inputs_mask:
            return False
        reachable = self.reachable_avoiding(inputs_mask)
        return not ((reachable >> output) & 1)

    def graph_name(self) -> str:
        """Name of the underlying basic block."""
        return self.original_graph.name
