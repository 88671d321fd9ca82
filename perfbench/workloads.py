"""The four benchmark workloads and the closed-loop ISE pass that runs them.

Every workload runs the program the way a compiler toolchain would: one
``identify_instruction_set_extension`` pass over the workload's basic blocks
(Nin=4, Nout=2, the default ``poly-enum-incremental`` algorithm).  Each pass
gets a fresh :class:`~repro.BatchRunner` (and, for ``corpus_ise``, a fresh
on-disk :class:`~repro.ResultStore`), prepared before the pass's clock starts,
so every pass sees the same cold caches a new compiler invocation would.  The
state of the first pass is built during set-up.

Importing this module imports ``repro``; ``run.py`` does so inside the timed
set-up window.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro import BatchRunner, Constraints, ResultStore
from repro.frontend.corpus import corpus_names, profile_kernel
from repro.ise import BlockProfile, identify_instruction_set_extension
from repro.memo import permute_graph
from repro.workloads import (
    SyntheticBlockSpec,
    all_kernels,
    generate_basic_block,
    inverted_tree_dfg,
    repetition_suite,
    tree_dfg,
)

from .tracing import NULL_RECORDER, ROOT

CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)

#: Base seed of the fixed synthetic block family of ``fig5_pool`` (the paper's
#: year, as in :class:`repro.workloads.SuiteConfig`).
FIG5_FAMILY_SEED = 2007


@dataclass
class PassState:
    """What one pass runs against: built fresh, outside the pass's clock."""

    runner: BatchRunner
    store: Optional[ResultStore] = None
    store_dir: Optional[Path] = None
    warm_pool_s: float = 0.0
    #: Summed peak RSS (kB) of the pool workers, read before they are reaped.
    worker_peak_kb: int = 0


@dataclass
class PassOutcome:
    """One finished pass, reduced to what the checks and metrics need."""

    seconds: float
    speedup: float
    instructions: int
    names: List[str]
    #: Per block, in input order: the delivered cut masks, or ``None`` when
    #: the block errored or produced no result.
    masks: List[Optional[FrozenSet[int]]]
    graphs: list
    #: The raw batch items; kept only for traced passes (layer counters).
    items: list = field(default_factory=list)
    frontend_ops: int = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and how a pass runs on them."""

    name: str
    jobs: int
    uses_store: bool
    #: ``(seed, scale) -> inputs``: kernel names for ``corpus_ise``, block
    #: profiles for the rest.
    make_inputs: Callable[[int, str], list]

    @property
    def uses_frontend(self) -> bool:
        return self.name == "corpus_ise"

    def prepare(self, out_dir: Path) -> PassState:
        """A fresh runner (+ store, + warmed pool) for the next pass."""
        store_dir = store = None
        if self.uses_store:
            store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
            store = ResultStore(store_dir)
        runner = BatchRunner(constraints=CONSTRAINTS, jobs=self.jobs, store=store)
        state = PassState(runner=runner, store=store, store_dir=store_dir)
        if self.jobs > 1:
            start = time.perf_counter()
            runner.warm_pool()
            state.warm_pool_s = time.perf_counter() - start
        return state

    def finish(self, state: PassState) -> None:
        """Release the pass's pool (reaping its workers) and its store."""
        if self.jobs > 1:
            state.worker_peak_kb = sum(
                _peak_rss_kb(child.pid) for child in multiprocessing.active_children()
            )
        state.runner.close()
        if state.store_dir is not None:
            shutil.rmtree(state.store_dir, ignore_errors=True)

    def blocks(self, inputs: list, recorder=NULL_RECORDER) -> List[BlockProfile]:
        """The pass's ISE inputs; runs the frontend for ``corpus_ise``."""
        if not self.uses_frontend:
            return inputs
        profiles: List[BlockProfile] = []
        for kernel in inputs:
            with recorder.span("frontend.translate"):
                profiles.extend(profile_kernel(kernel).block_profiles())
        return profiles

    def run_pass(
        self, inputs: list, state: PassState, recorder=NULL_RECORDER
    ) -> PassOutcome:
        """One timed ISE identification pass (the unit of the closed loop)."""
        items = []

        def collect(item, completed, total):
            items.append(item)

        start = time.perf_counter()
        with recorder.span(ROOT):
            blocks = self.blocks(inputs, recorder)
            with recorder.span("ise.pipeline"):
                result = identify_instruction_set_extension(
                    blocks,
                    constraints=CONSTRAINTS,
                    batch_runner=state.runner,
                    progress=collect,
                )
        seconds = time.perf_counter() - start

        items.sort(key=lambda item: item.index)
        return PassOutcome(
            seconds=seconds,
            speedup=result.application_speedup,
            instructions=len(result.extension.instructions),
            names=[item.graph_name for item in items],
            masks=[
                frozenset(cut.node_mask() for cut in item.result.cuts)
                if item.result is not None and item.error is None
                else None
                for item in items
            ],
            graphs=[item.graph for item in items],
            items=items if recorder.enabled else [],
            frontend_ops=(
                sum(len(p.graph.operation_nodes()) for p in blocks)
                if self.uses_frontend
                else 0
            ),
        )


def _peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a live process, in kB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _corpus_inputs(seed: int, scale: str) -> List[str]:
    names = corpus_names()
    return names if scale == "full" else names[:2]


def _tree_inputs(seed: int, scale: str) -> List[BlockProfile]:
    depths = (4, 5) if scale == "full" else (3,)
    graphs = [tree_dfg(d) for d in depths] + [inverted_tree_dfg(d) for d in depths]
    return [BlockProfile(g) for g in graphs]


def _relabel(graph, rng: random.Random):
    permutation = list(range(graph.num_nodes))
    rng.shuffle(permutation)
    return permute_graph(graph, permutation)


def _fig5_family(scale: str) -> list:
    """The fixed synthetic blocks plus hand kernels of the ``fig5_pool`` mix.

    Sizes climb evenly from 10 to 40 operations.  The block structures are
    fixed: drawing them from the run's seed spread the pass time by ~30%
    between seeds, more than any regression bound could absorb.
    """
    count, low, high = (24, 10, 40) if scale == "full" else (3, 8, 12)
    graphs = []
    for index in range(count):
        size = low + index * (high - low) // (count - 1)
        graphs.append(
            generate_basic_block(
                SyntheticBlockSpec(
                    num_operations=size,
                    num_external_inputs=max(2, min(8, size // 6 + 2)),
                    seed=FIG5_FAMILY_SEED + index,
                    name=f"mix{index:02d}_n{size}",
                )
            )
        )
    kernels = all_kernels()
    return graphs + (kernels if scale == "full" else kernels[:2])


def _fig5_inputs(seed: int, scale: str) -> List[BlockProfile]:
    """The seed draws each block's vertex numbering."""
    rng = random.Random(seed)
    return [BlockProfile(_relabel(g, rng)) for g in _fig5_family(scale)]


def _repetition_inputs(seed: int, scale: str) -> List[BlockProfile]:
    suite = (
        repetition_suite()
        if scale == "full"
        else repetition_suite(copies_per_idiom=2, repetitions=2)
    )
    return [BlockProfile(g) for g in suite]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("corpus_ise", jobs=1, uses_store=True, make_inputs=_corpus_inputs),
        Workload("trees_fig4", jobs=1, uses_store=False, make_inputs=_tree_inputs),
        Workload("fig5_pool", jobs=2, uses_store=False, make_inputs=_fig5_inputs),
        Workload("repetition", jobs=1, uses_store=False, make_inputs=_repetition_inputs),
    )
}


def reference_pass(workload: Workload, inputs: Sequence, out_dir: Path) -> PassOutcome:
    """One untimed pass of *workload* at ``jobs=1`` (the pool's reference)."""
    sequential = dataclasses.replace(workload, jobs=1)
    state = sequential.prepare(out_dir)
    try:
        return sequential.run_pass(list(inputs), state)
    finally:
        sequential.finish(state)
