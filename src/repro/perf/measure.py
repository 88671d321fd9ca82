"""Robust timing: min-of-N with warmup, interleaved variant ordering, MAD.

Every pre-harness ``bench_*.py`` hand-rolled its own timing loop; the two
that gated ratios (BENCH-BATCH, BENCH-OBS) independently re-invented
interleaving and min-of-N.  This module is the single implementation:

* **min-of-N** — the minimum of repeated runs is the standard
  micro-benchmark estimator (noise is strictly additive on a quiet machine);
* **warmup** — un-timed leading runs absorb cold caches, worker spawn and
  allocator warm-up;
* **interleaving** — when timing *variants against each other* (enabled vs
  disabled, pooled vs sequential), each repetition runs every variant once,
  in order, so machine drift hits all variants equally instead of whichever
  ran last;
* **MAD** — the median absolute deviation of the samples rides along as the
  noise estimate, and comparisons widen their thresholds by it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from ..obs.report import median_abs_deviation

#: Default timed repetitions and un-timed warmup runs.
DEFAULT_REPEATS = 3
DEFAULT_WARMUP = 1


@dataclass
class TimingResult:
    """Samples of one timed callable, with the robust summaries attached."""

    best: float
    samples: List[float]
    mad: float

    @classmethod
    def from_samples(cls, samples: List[float]) -> "TimingResult":
        if not samples:
            raise ValueError("TimingResult needs at least one sample")
        return cls(best=min(samples), samples=samples, mad=median_abs_deviation(samples))


def time_callable(
    fn: Callable[[], object],
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> TimingResult:
    """Min-of-*repeats* wall time of ``fn()`` after *warmup* un-timed runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return TimingResult.from_samples(samples)


def interleaved_timings(
    variants: Mapping[str, Callable[[], object]],
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, TimingResult]:
    """Time every variant min-of-*repeats*, one round-robin pass per repeat.

    Each repetition runs every variant once in declaration order, so slow
    drift (thermal throttling, a neighbour container waking up) biases no
    single variant.  Warmup rounds run every variant too.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not variants:
        raise ValueError("interleaved_timings() needs at least one variant")
    for _ in range(warmup):
        for fn in variants.values():
            fn()
    samples: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(repeats):
        for name, fn in variants.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: TimingResult.from_samples(values) for name, values in samples.items()}


def paired_overhead(
    numerator: TimingResult, denominator: TimingResult
) -> Tuple[float, float]:
    """``(overhead, mad)``: median of per-round ratios minus one.

    For two variants timed in the *same* interleaved rounds, the median of
    the per-round ratios ``numerator_i / denominator_i`` is robust against
    a lone lucky-fast or unlucky-slow round in either variant — unlike
    ``min(numerator) / min(denominator)``, which a single fast denominator
    sample inflates arbitrarily.  The MAD of the round ratios rides along
    as the noise estimate.
    """
    if len(numerator.samples) != len(denominator.samples):
        raise ValueError("paired_overhead() needs samples from the same rounds")
    ratios = [
        a / max(b, 1e-12)
        for a, b in zip(numerator.samples, denominator.samples)
    ]
    return statistics.median(ratios) - 1.0, median_abs_deviation(ratios)


def ratio_of(
    numerator: TimingResult, denominator: TimingResult
) -> Tuple[float, float]:
    """``(ratio, mad)`` of two timings — e.g. a speedup with its noise.

    The ratio is of the two minima; the attached MAD propagates the larger
    *relative* spread of the operands onto the ratio, which is what a
    noise-aware comparison threshold needs.
    """
    denom = max(denominator.best, 1e-12)
    ratio = numerator.best / denom
    rel_noise = max(
        numerator.mad / max(numerator.best, 1e-12),
        denominator.mad / max(denominator.best, 1e-12),
    )
    return ratio, ratio * rel_noise
