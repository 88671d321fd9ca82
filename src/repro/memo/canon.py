"""Deterministic canonical labeling of data-flow graphs.

Memoizing enumeration results across basic blocks requires recognising when
two blocks are *the same computation*: isomorphic DAGs whose corresponding
vertices carry the same opcode, the same (effective) forbidden flag and the
same live-out flag.  Names and free-form attributes are ignored — they never
influence which cuts are enumerated.

The canonical form is computed with the classic two-stage scheme:

1. **Iterative Weisfeiler–Leman color refinement.**  Every vertex starts from
   a seed color ``(opcode, forbidden, live_out)`` — with the constraint-driven
   forbidding (memory operations, ``extra_forbidden``) folded in, because
   ``extra_forbidden`` names raw vertex ids and is therefore *not* invariant
   under isomorphism — and is repeatedly relabeled by the multiset of its
   predecessors' and successors' colors until the partition stabilises.
2. **Individualization with backtracking tie-break.**  While some color class
   holds more than one vertex, each member of the first such class is
   individualized in turn, refinement is re-run, and the branch producing the
   lexicographically smallest certificate wins.  Because the candidate set and
   the comparison are both permutation-invariant, isomorphic graphs yield the
   *identical* canonical form.

The backtracking search is exact but can blow up on highly symmetric graphs
(e.g. the uniform-opcode worst-case trees of Figure 4, whose automorphism
groups are exponential).  A node budget caps the search; when it is exhausted
the function falls back to an **identity form**: the graph hashed in its
given vertex order.  The fallback is always *correct* — identical graphs
still share a hash, and distinct hashes merely mean a missed cache hit — it
just cannot merge isomorphs, and is flagged via ``CanonicalForm.complete``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.constraints import Constraints
from ..core.context import effective_forbidden
from ..dfg.graph import DataFlowGraph

#: Maximum number of refinement passes the backtracking search may run before
#: falling back to the identity form.  Ordinary basic blocks (mixed opcodes)
#: discretise in a few passes: the most any block of the frontend corpus, the
#: Fig. 5 mix or ``repetition_suite()`` needs is 30.  The uniform trees of
#: Figure 4 never finish (their automorphism groups are exponential), so a
#: larger budget only delays their identity fallback: ``tree_dfg(5)`` gives
#: up after ~11 ms at 64 passes but ~620 ms at 4096 (CPython 3.11, 2-vCPU
#: x86-64 VM).
DEFAULT_BACKTRACK_BUDGET = 64

#: One seed color: (opcode value, effective forbidden, live-out flag).
Seed = Tuple[str, bool, bool]


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of one :class:`DataFlowGraph`.

    Attributes
    ----------
    hash:
        Hex SHA-256 of the canonical certificate.  Two graphs receive the
        same hash exactly when they are isomorphic (opcode/forbidden/live_out
        preserving) — or, for incomplete forms, when they are identical.
    permutation:
        ``permutation[original_id] = canonical_position``.  Maps vertex ids
        of the input graph into the canonical id space.
    num_nodes:
        Number of vertices of the input graph.
    complete:
        ``False`` when the backtracking budget was exhausted and the identity
        fallback was used (isomorphs are then not merged).
    """

    hash: str
    permutation: Tuple[int, ...]
    num_nodes: int
    complete: bool = True

    # ------------------------------------------------------------------ #
    # Bit-mask remapping (cut masks use original vertex ids)
    # ------------------------------------------------------------------ #
    def to_canonical_mask(self, mask: int) -> int:
        """Remap a vertex bit mask from graph ids into canonical ids."""
        result = 0
        for node_id in range(self.num_nodes):
            if (mask >> node_id) & 1:
                result |= 1 << self.permutation[node_id]
        return result

    def from_canonical_mask(self, mask: int) -> int:
        """Remap a vertex bit mask from canonical ids back into graph ids."""
        result = 0
        for node_id in range(self.num_nodes):
            if (mask >> self.permutation[node_id]) & 1:
                result |= 1 << node_id
        return result


# --------------------------------------------------------------------------- #
# Seeds
# --------------------------------------------------------------------------- #
def _seed_colors(
    graph: DataFlowGraph, constraints: Optional[Constraints]
) -> List[Seed]:
    """Per-vertex seed colors with constraint-driven forbidding folded in.

    Uses the same :func:`repro.core.context.effective_forbidden` rule that
    :meth:`EnumerationContext.build` applies, so the canonical hash always
    reflects the forbidden set the enumerators actually see.
    """
    constraints = constraints or Constraints()
    return [
        (
            node.opcode.value,
            bool(effective_forbidden(node, constraints)),
            bool(node.live_out),
        )
        for node in graph.nodes()
    ]


# --------------------------------------------------------------------------- #
# Weisfeiler–Leman refinement
# --------------------------------------------------------------------------- #
def _refine(
    colors: List[int],
    preds: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
) -> List[int]:
    """Refine *colors* to a fixed point; the relabeling is canonical.

    Each pass relabels every vertex by ``(own color, sorted predecessor
    colors, sorted successor colors)``; new labels are assigned by sorting the
    distinct signatures, so the resulting integer colors depend only on the
    isomorphism class, never on the input vertex order.
    """
    num_nodes = len(colors)
    num_colors = len(set(colors))
    while True:
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[p] for p in preds[v])),
                tuple(sorted(colors[s] for s in succs[v])),
            )
            for v in range(num_nodes)
        ]
        mapping = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        colors = [mapping[sig] for sig in signatures]
        if len(mapping) == num_colors:
            return colors
        num_colors = len(mapping)


def _first_non_singleton_cell(colors: List[int]) -> Optional[List[int]]:
    """Members of the smallest-colored cell with >= 2 vertices, or ``None``."""
    cells: Dict[int, List[int]] = {}
    for vertex, color in enumerate(colors):
        cells.setdefault(color, []).append(vertex)
    for color in sorted(cells):
        if len(cells[color]) > 1:
            return cells[color]
    return None


class _BudgetExhausted(Exception):
    """Internal: the backtracking search exceeded its refinement budget."""


def _certificate(
    order: List[int],
    seeds: List[Seed],
    edges: List[Tuple[int, int]],
) -> Tuple[Tuple[Seed, ...], Tuple[Tuple[int, int], ...]]:
    """Certificate of the graph under the vertex order (position <- order[pos])."""
    position = {vertex: pos for pos, vertex in enumerate(order)}
    return (
        tuple(seeds[vertex] for vertex in order),
        tuple(sorted((position[src], position[dst]) for src, dst in edges)),
    )


def _search(
    colors: List[int],
    seeds: List[Seed],
    preds: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
    edges: List[Tuple[int, int]],
    budget: List[int],
):
    """Individualization-refinement: the lexicographically smallest certificate.

    *budget* is a single-element mutable counter of remaining refinement
    passes; exhausting it aborts the whole search (the caller falls back to
    the identity form, never to a partial — and therefore permutation
    dependent — result).
    """
    cell = _first_non_singleton_cell(colors)
    if cell is None:
        order = sorted(range(len(colors)), key=colors.__getitem__)
        return _certificate(order, seeds, edges), order
    best = None
    fresh = len(colors)  # larger than every current color
    for vertex in cell:
        if budget[0] <= 0:
            raise _BudgetExhausted()
        budget[0] -= 1
        branched = list(colors)
        branched[vertex] = fresh
        candidate = _search(
            _refine(branched, preds, succs), seeds, preds, succs, edges, budget
        )
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def _hash_certificate(node_seeds: Sequence[Seed], edge_list: Sequence[Tuple[int, int]]) -> str:
    payload = json.dumps(
        {"nodes": [list(seed) for seed in node_seeds],
         "edges": [list(edge) for edge in edge_list]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_form(
    graph: DataFlowGraph,
    constraints: Optional[Constraints] = None,
    backtrack_budget: int = DEFAULT_BACKTRACK_BUDGET,
) -> CanonicalForm:
    """Compute the canonical form of *graph* under *constraints*.

    Isomorphic graphs (same structure, opcodes, effective forbidden flags and
    live-out flags — names and attributes excluded) yield byte-identical
    canonical forms, so ``form.hash`` is a safe memoization key and
    ``form.permutation`` remaps cut bit masks between isomorphic graphs.
    """
    num_nodes = graph.num_nodes
    seeds = _seed_colors(graph, constraints)
    preds = [graph.predecessors(v) for v in range(num_nodes)]
    succs = [graph.successors(v) for v in range(num_nodes)]
    edges = list(graph.edges())

    seed_rank = {seed: rank for rank, seed in enumerate(sorted(set(seeds)))}
    colors = _refine([seed_rank[seed] for seed in seeds], preds, succs)

    try:
        certificate, order = _search(
            colors, seeds, preds, succs, edges, budget=[backtrack_budget]
        )
    except _BudgetExhausted:
        # Identity fallback: hash the graph in its given vertex order.  The
        # fallback certificate space is disjoint from the canonical one (the
        # marker below), so a fallback hash can never collide with a real
        # canonical hash of a different graph.
        identity = list(range(num_nodes))
        node_seeds, edge_list = _certificate(identity, seeds, edges)
        return CanonicalForm(
            hash=_hash_certificate((("identity-fallback", False, False),) + node_seeds, edge_list),
            permutation=tuple(identity),
            num_nodes=num_nodes,
            complete=False,
        )

    permutation = [0] * num_nodes
    for position, vertex in enumerate(order):
        permutation[vertex] = position
    return CanonicalForm(
        hash=_hash_certificate(*certificate),
        permutation=tuple(permutation),
        num_nodes=num_nodes,
        complete=True,
    )


def canonical_hash(
    graph: DataFlowGraph, constraints: Optional[Constraints] = None
) -> str:
    """Shorthand for ``canonical_form(graph, constraints).hash``."""
    return canonical_form(graph, constraints).hash


def permute_graph(
    graph: DataFlowGraph,
    permutation: Sequence[int],
    name: Optional[str] = None,
) -> DataFlowGraph:
    """Relabel *graph* so that old vertex ``v`` becomes ``permutation[v]``.

    Utility for tests and benchmarks: the result is isomorphic to the input
    by construction.  *permutation* must be a permutation of ``range(n)``.
    """
    num_nodes = graph.num_nodes
    if sorted(permutation) != list(range(num_nodes)):
        raise ValueError(
            f"permutation must rearrange range({num_nodes}), got {list(permutation)!r}"
        )
    inverse = [0] * num_nodes
    for old_id, new_id in enumerate(permutation):
        inverse[new_id] = old_id
    result = DataFlowGraph(name=name or graph.name)
    for new_id in range(num_nodes):
        node = graph.node(inverse[new_id])
        result.add_node(
            node.opcode,
            name=node.name,
            forbidden=node.forbidden,
            live_out=node.live_out,
            **node.attributes,
        )
    for src, dst in graph.edges():
        result.add_edge(permutation[src], permutation[dst])
    return result
