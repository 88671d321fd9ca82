"""The cut model: Definitions 1–4 and 6 of the paper, plus Theorem 1 helpers.

A *cut* is a set of vertices of the data-flow graph; its *inputs* are the
vertices outside the cut that feed it, its *outputs* are the cut vertices
with at least one consumer outside.  The enumeration algorithms manipulate
cuts as integer bit masks for speed; :class:`Cut` is the user-facing,
hashable, immutable wrapper built from those masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple

from ..dfg.reachability import ids_from_mask, iterate_mask, mask_from_ids, popcount
from .context import EnumerationContext


@dataclass(frozen=True)
class Cut:
    """An immutable convex cut (candidate custom instruction).

    Equality and hashing consider only the vertex set, so cuts can be stored
    in sets and dictionaries regardless of how they were discovered.
    """

    nodes: FrozenSet[int]
    inputs: FrozenSet[int]
    outputs: FrozenSet[int]
    graph_name: str = ""
    context: Optional[EnumerationContext] = field(
        default=None, compare=False, hash=False, repr=False
    )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_mask(cls, context: EnumerationContext, node_mask: int) -> "Cut":
        """Build a cut (computing its inputs and outputs) from a bit mask."""
        reach = context.reach
        inputs = reach.cut_inputs_mask(node_mask)
        outputs = reach.cut_outputs_mask(node_mask)
        return cls(
            nodes=frozenset(ids_from_mask(node_mask)),
            inputs=frozenset(ids_from_mask(inputs)),
            outputs=frozenset(ids_from_mask(outputs)),
            graph_name=context.graph_name(),
            context=context,
        )

    @classmethod
    def from_nodes(cls, context: EnumerationContext, nodes: Iterable[int]) -> "Cut":
        """Build a cut from an iterable of vertex ids."""
        return cls.from_mask(context, mask_from_ids(nodes))

    # ------------------------------------------------------------------ #
    # Size / basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of operations in the cut."""
        return len(self.nodes)

    @property
    def num_inputs(self) -> int:
        """Number of cut inputs ``|I(S)|``."""
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        """Number of cut outputs ``|O(S)|``."""
        return len(self.outputs)

    def node_mask(self) -> int:
        """The cut as a bit mask."""
        return mask_from_ids(self.nodes)

    def sorted_nodes(self) -> Tuple[int, ...]:
        """Vertex ids in ascending order."""
        return tuple(sorted(self.nodes))

    # ------------------------------------------------------------------ #
    # Structural predicates (need the context)
    # ------------------------------------------------------------------ #
    def _require_context(self, context: Optional[EnumerationContext]) -> EnumerationContext:
        ctx = context or self.context
        if ctx is None:
            raise ValueError("this operation requires an EnumerationContext")
        return ctx

    def is_convex(self, context: Optional[EnumerationContext] = None) -> bool:
        """Definition 2: no path between two cut vertices leaves the cut."""
        ctx = self._require_context(context)
        return ctx.reach.is_convex_mask(self.node_mask())

    def inputs_to_output(
        self, output: int, context: Optional[EnumerationContext] = None
    ) -> FrozenSet[int]:
        """Definition 3: the inputs feeding *output* from inside the cut.

        Computed constructively as the inputs that reach *output* through a
        path whose interior lies entirely inside the cut.
        """
        ctx = self._require_context(context)
        if output not in self.outputs and output not in self.nodes:
            raise ValueError(f"vertex {output} is not part of the cut")
        mask = self.node_mask()
        reach = ctx.reach
        result = set()
        for input_vertex in self.inputs:
            # Walk from the input, only through cut vertices, looking for output.
            frontier = [
                succ
                for succ in ctx.successor_lists[input_vertex]
                if (mask >> succ) & 1
            ]
            seen = set(frontier)
            found = output in seen
            while frontier and not found:
                vertex = frontier.pop()
                if vertex == output:
                    found = True
                    break
                for succ in ctx.successor_lists[vertex]:
                    if (mask >> succ) & 1 and succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
            if found or output in seen:
                result.add(input_vertex)
        return frozenset(result)

    def is_connected(self, context: Optional[EnumerationContext] = None) -> bool:
        """Definition 4: single output, or every pair of outputs shares an input."""
        ctx = self._require_context(context)
        outputs = sorted(self.outputs)
        if len(outputs) <= 1:
            return True
        inputs_per_output = {o: self.inputs_to_output(o, ctx) for o in outputs}
        for i, first in enumerate(outputs):
            for second in outputs[i + 1 :]:
                if not (inputs_per_output[first] & inputs_per_output[second]):
                    return False
        return True

    def depth(self, context: Optional[EnumerationContext] = None) -> int:
        """Longest path (in vertices) through the cut — the latency proxy of [9, 10]."""
        ctx = self._require_context(context)
        mask = self.node_mask()
        order = [v for v in ctx.augmented.graph.topological_order() if (mask >> v) & 1]
        longest = {v: 1 for v in order}
        for v in order:
            for succ in ctx.successor_lists[v]:
                if (mask >> succ) & 1:
                    longest[succ] = max(longest[succ], longest[v] + 1)
        return max(longest.values()) if longest else 0

    def contains(self, node_id: int) -> bool:
        """``True`` if *node_id* belongs to the cut."""
        return node_id in self.nodes

    def overlaps(self, other: "Cut") -> bool:
        """``True`` if the two cuts share at least one vertex."""
        return bool(self.nodes & other.nodes)

    def describe(self, context: Optional[EnumerationContext] = None) -> str:
        """Short human-readable description (opcodes of the cut vertices)."""
        ctx = context or self.context
        if ctx is None:
            ops = ", ".join(str(v) for v in self.sorted_nodes())
        else:
            ops = ", ".join(
                ctx.augmented.graph.node(v).label for v in self.sorted_nodes()
            )
        return (
            f"Cut[{self.num_nodes} ops, {self.num_inputs} in, "
            f"{self.num_outputs} out]({ops})"
        )


# ---------------------------------------------------------------------- #
# Mask-level primitives shared by the enumerators and the validity checks
# ---------------------------------------------------------------------- #
def cut_inputs_mask(context: EnumerationContext, node_mask: int) -> int:
    """``I(S)`` as a mask (Definition 1)."""
    return context.reach.cut_inputs_mask(node_mask)


def cut_outputs_mask(context: EnumerationContext, node_mask: int) -> int:
    """``O(S)`` as a mask (Definition 1)."""
    return context.reach.cut_outputs_mask(node_mask)


def between_mask(context: EnumerationContext, sources_mask: int, target: int) -> int:
    """``B(V, w)`` as a mask (Definition 6)."""
    return context.reach.between_mask(sources_mask, target)


def build_body_mask(context: EnumerationContext, inputs_mask: int, outputs_mask: int) -> int:
    """Theorem 3 construction: ``S = ∪_{o ∈ O} B(I, o) \\ I`` as a mask."""
    body = 0
    reach_between = context.reach.between_mask
    for output in iterate_mask(outputs_mask):
        body |= reach_between(inputs_mask, output)
    return body & ~inputs_mask


def count_mask(mask: int) -> int:
    """Number of vertices in a mask (alias of :func:`repro.dfg.reachability.popcount`)."""
    return popcount(mask)
