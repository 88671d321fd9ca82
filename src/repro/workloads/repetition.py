"""Repetition-heavy synthetic blocks: tiled idioms in renamed copies.

Compiler output is dominated by *tiled* computation — the same
4–8-operation idiom (a multiply-accumulate step, an unpack/mask sequence, a
rotate-xor mixing round) stamped out many times per basic block by loop
unrolling and vectorization, and whole blocks that repeat under new names.
The generic :mod:`repro.workloads.synthetic` generator draws every
operation independently and therefore almost never produces that shape, so
this module provides it deliberately:

* :func:`generate_repetition_block` tiles one fixed idiom ``repetitions``
  times into a single block, chaining consecutive tiles through a
  carried-accumulator edge (like an unrolled reduction loop) so the block is
  connected but every tile's local wiring is identical;
* :func:`repetition_suite` builds a whole :class:`WorkloadSuite` of such
  blocks — several idioms, several copies per idiom with *distinct names*.
  The copies are isomorphic, so :class:`~repro.engine.batch.BatchRunner`'s
  whole-block deduplication enumerates one block per idiom and serves the
  other copies from it.

Blocks are deterministic functions of their parameters (no randomness), so
benchmark runs are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..dfg.graph import DataFlowGraph
from ..dfg.opcodes import Opcode

#: One idiom: a list of (opcode, operand slots).  A slot is either ``"in"``
#: (one of the tile's external operands), ``"acc"`` (the value carried from
#: the previous tile), or a non-negative int (the output of that earlier
#: step of the *same* tile).  The last step's value is carried to the next
#: tile as its ``"acc"`` operand.
Idiom = Tuple[Tuple[Opcode, Tuple[object, ...]], ...]

#: The built-in 4–8-operation idioms, modeled on the kernels the ISE papers
#: profile (dot products, bit-field unpacking, hash/cipher mixing rounds,
#: saturation clamps).
IDIOMS: Dict[str, Idiom] = {
    # acc' = acc + (a * b) — the unrolled dot-product step.
    "mac": (
        (Opcode.MUL, ("in", "in")),
        (Opcode.ADD, (0, "acc")),
    ),
    # Unpack a field and merge it: ((a >> b) & c) | acc.
    "unpack": (
        (Opcode.SHR, ("in", "in")),
        (Opcode.AND, (0, "in")),
        (Opcode.OR, (1, "acc")),
    ),
    # One mixing round: acc' = rol(acc ^ a, b) + (a & c).
    "mix": (
        (Opcode.XOR, ("acc", "in")),
        (Opcode.ROL, (0, "in")),
        (Opcode.AND, ("in", "in")),
        (Opcode.ADD, (1, 2)),
    ),
    # Saturating accumulate: acc' = min(max(acc + a, b), c) with the bound
    # comparisons kept as data (select-style lowering).
    "clamp": (
        (Opcode.ADD, ("acc", "in")),
        (Opcode.MAX, (0, "in")),
        (Opcode.MIN, (1, "in")),
        (Opcode.XOR, (2, "in")),
        (Opcode.SUB, (3, 0)),
    ),
}


@dataclass(frozen=True)
class RepetitionBlockSpec:
    """Parameters of one tiled block (deterministic — no random seed)."""

    idiom: str = "mac"
    repetitions: int = 8
    #: External operands shared by all tiles (loop-invariant values); the
    #: remaining ``"in"`` slots rotate through this pool, so tiles reuse
    #: inputs the way unrolled code reuses coefficients and masks.
    num_external_inputs: int = 4
    name: str = ""

    def block_name(self) -> str:
        return self.name or f"rep_{self.idiom}_x{self.repetitions}"


def generate_repetition_block(spec: RepetitionBlockSpec) -> DataFlowGraph:
    """Tile ``spec.idiom`` ``spec.repetitions`` times into one block.

    Every tile has identical local wiring; consecutive tiles are chained
    through the carried accumulator, and the final accumulator is the
    block's live-out value.
    """
    steps = IDIOMS.get(spec.idiom)
    if steps is None:
        raise ValueError(
            f"unknown idiom {spec.idiom!r}; available: {sorted(IDIOMS)}"
        )
    if spec.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {spec.repetitions}")
    if spec.num_external_inputs < 1:
        raise ValueError(
            f"num_external_inputs must be >= 1, got {spec.num_external_inputs}"
        )
    graph = DataFlowGraph(name=spec.block_name())
    externals = [
        graph.add_node(Opcode.INPUT, name=f"x{i}")
        for i in range(spec.num_external_inputs)
    ]
    acc = graph.add_node(Opcode.INPUT, name="acc0")
    next_external = 0
    for tile in range(spec.repetitions):
        produced: List[int] = []
        for opcode, slots in steps:
            node = graph.add_node(opcode, name=f"t{tile}_{opcode.value}")
            operands: List[int] = []
            for slot in slots:
                if slot == "in":
                    operands.append(externals[next_external % len(externals)])
                    next_external += 1
                elif slot == "acc":
                    operands.append(acc)
                else:
                    operands.append(produced[int(slot)])
            for operand in dict.fromkeys(operands):
                graph.add_edge(operand, node)
            produced.append(node)
        acc = produced[-1]
    graph.node(acc).live_out = True
    return graph


def repetition_suite(
    idioms: Sequence[str] = ("mac", "unpack", "mix"),
    copies_per_idiom: int = 3,
    repetitions: int = 8,
    num_external_inputs: int = 4,
    name: str = "repetition",
) -> "WorkloadSuite":
    """A suite of tiled blocks: *copies_per_idiom* renamed copies per idiom.

    The copies are structurally identical and differ only in name, so
    whole-block deduplication enumerates one copy per idiom.
    """
    from .suite import WorkloadSuite

    suite = WorkloadSuite(name=name)
    for idiom in idioms:
        for copy in range(copies_per_idiom):
            suite.add(
                generate_repetition_block(
                    RepetitionBlockSpec(
                        idiom=idiom,
                        repetitions=repetitions,
                        num_external_inputs=num_external_inputs,
                        name=f"rep_{idiom}_x{repetitions}_c{copy}",
                    )
                )
            )
    return suite
