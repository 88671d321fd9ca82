"""BENCH-MEMO — Canonical-form memoization: hit rate and warm-run speedup.

Drives a suite full of duplicated *and permuted* blocks through per-block
recomputation (the uncached baseline) and through the engine without a
store (whole-block dedup), with a cold store and with a warm store; every
path must produce cut sets bit-identical to the baseline (asserted).  The
warm run must observe a 100% hit rate (``gate_min`` on ``warm_hit_rate``)
and beat the baseline by at least 2x (``gate_min`` on ``warm_speedup`` —
the ROADMAP bar).

The measurement body and gates live in the unified harness
(``repro.perf.suites.engine``, benchmark name ``memo``); this script is the
pytest entry point.  Refresh the committed baseline with
``repro bench run memo --write-records``.
"""

from __future__ import annotations


def test_memo_hit_rate_and_warm_speedup(bench_harness):
    bench_harness("memo")
