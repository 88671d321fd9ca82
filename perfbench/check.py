"""Correctness of delivered cuts, judged against the ``exhaustive-pruned`` oracle.

The oracle is the pruned exhaustive search of Atasu/Pozzi et al. — an
independent algorithm that finds every valid convex cut under the I/O
constraints.  A cut the program delivers that the oracle does not know is
wrong; a cut the oracle finds that the program misses lowers completeness
(the paper's algorithm skips cuts outside its technical condition, so
completeness below 1 is expected and tracked, not failed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence

from repro import enumerate_cuts_exhaustive

from .workloads import CONSTRAINTS, PassOutcome


def oracle_masks(graphs: Sequence) -> List[FrozenSet[int]]:
    """Every valid cut mask of each graph, by the oracle."""
    return [
        frozenset(cut.node_mask() for cut in enumerate_cuts_exhaustive(g, CONSTRAINTS).cuts)
        for g in graphs
    ]


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    completeness: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def check(
    passes: Sequence[PassOutcome],
    oracle: Sequence[FrozenSet[int]],
    reference: Optional[PassOutcome] = None,
) -> Verdict:
    """Count the (pass, block) results that are wrong.

    A block fails a pass when it has no result, delivers a cut outside the
    oracle's set, or delivers a cut set other than the first pass's (or the
    sequential *reference*'s).  A pass whose block list or application speedup
    differs from the first pass's (or the reference's) fails every block.
    """
    first = passes[0]
    baselines = [first] if reference is None else [first, reference]
    verdict = Verdict()
    for number, outcome in enumerate(passes):
        verdict.attempted += len(outcome.masks)
        if any(
            outcome.speedup != b.speedup or outcome.names != b.names for b in baselines
        ):
            verdict.failed += len(outcome.masks)
            verdict.problems.append(
                f"pass {number}: blocks or application speedup {outcome.speedup!r} "
                f"differ from the first pass or the jobs=1 reference"
            )
            continue
        for index, masks in enumerate(outcome.masks):
            problem = None
            if masks is None:
                problem = "no result"
            elif masks - oracle[index]:
                problem = f"{len(masks - oracle[index])} cut(s) outside the oracle's set"
            elif any(b.masks[index] != masks for b in baselines):
                problem = "cut set differs from the first pass or the jobs=1 reference"
            if problem is not None:
                verdict.failed += 1
                verdict.problems.append(
                    f"pass {number} block {outcome.names[index]}: {problem}"
                )
    found = sum(len(m) for m in first.masks if m is not None)
    verdict.completeness = found / max(1, sum(len(m) for m in oracle))
    return verdict
