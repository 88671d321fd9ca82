"""Run one benchmark workload; print its metrics as the last line of stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus_ise --seed 1 --seconds 15 --trace 0

The run is a closed loop from one client: one ISE identification pass over
the workload's blocks, the next once the previous returns, for ``--seconds``.
Each pass is followed, outside its clock, by a reset to the same cold state.
Afterwards, also outside any clock: every delivered cut is checked against
the ``exhaustive-pruned`` oracle and across passes (and, for the pool
workload, against a ``jobs=1`` pass), and set-up is repeated in fresh
interpreters to take its median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs, reports the per-layer
metrics, prints each layer's self time to stderr and writes the spans to
``.bench_out/`` as Chrome trace-event JSON (Perfetto opens it).

Exit status: 0 when every check passes, 1 when a check fails (the result
line is still printed, with ``"correct": false``), 2 when the program's
source is missing.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Set-up samples per run: this run's own plus fresh-interpreter probes.
SETUP_SAMPLES = {"full": 3, "tiny": 2}

#: Passes a run makes even when ``--seconds`` is already spent.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ise_s": "s",
    "cuts_per_s": "cuts/s",
    "peak_rss_mb": "MB",
    "app_speedup": "x",
    "completeness": "fraction",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "frontend.translate_s": "s",
    "frontend.ops_per_s": "ops/s",
    "memo.canon_s": "s",
    "memo.canon_calls": "count",
    "memo.store_get_s": "s",
    "memo.store_put_s": "s",
    "memo.store_hit_rate": "fraction",
    "memo.store_writes": "count",
    "core.context_build_s": "s",
    "core.context_builds": "count",
    "core.search_s": "s",
    "core.cuts": "count",
    "core.duplicates": "count",
    "core.candidates_checked": "count",
    "core.useful_ratio": "fraction",
    "dominators.lt_calls": "count",
    "dominators.lt_s": "s",
    "dominators.lt_calls_per_cut": "calls/cut",
    "memo.insearch_hits": "count",
    "memo.insearch_misses": "count",
    "memo.insearch_hit_rate": "fraction",
    "memo.insearch_evictions": "count",
    "engine.run_s": "s",
    "engine.busy_s": "s",
    "engine.dispatch_s": "s",
    "engine.utilization": "fraction",
    "engine.warm_pool_s": "s",
    "ise.score_s": "s",
    "ise.select_s": "s",
    "ise.instructions": "count",
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("corpus_ise", "trees_fig4", "fig5_pool", "repetition"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time and exit (a set-up probe)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Measure the default configuration: the in-search memo's off switch is
    # read once, at import, by the program and by its forked workers.
    os.environ.pop("REPRO_NO_INSEARCH_MEMO", None)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter (imports included)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--scale", args.scale, "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import tracing
    from perfbench.check import check, oracle_masks
    from perfbench.workloads import WORKLOADS, reference_pass

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.make_inputs(args.seed, args.scale)
    state = workload.prepare(OUT_DIR)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        workload.finish(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = tracing.SpanRecorder()
    passes, traced = [], []
    layer_rows, layer_self_times = [], []  # one per traced pass
    worker_peak_kb = 0
    min_passes = MIN_PASSES + (MIN_PASSES - 1 if args.trace else 0)
    begin = time.perf_counter()
    while True:
        number = len(passes)
        if number:
            state = workload.prepare(OUT_DIR)
        gc.collect()
        trace_this = bool(args.trace) and number % 2 == 1
        try:
            if trace_this:
                recorder.pass_id = number
                with tracing.interposed(recorder, state):
                    outcome = workload.run_pass(inputs, state, recorder)
            else:
                outcome = workload.run_pass(inputs, state)
        finally:
            workload.finish(state)
        if trace_this:
            row, own = tracing.layer_metrics(recorder.spans, number, workload, outcome, state)
            layer_rows.append(row)
            layer_self_times.append(own)
            outcome.items = []  # they hold the pass's contexts and memo tables
        passes.append(outcome)
        traced.append(trace_this)
        worker_peak_kb = max(worker_peak_kb, state.worker_peak_kb)
        spent = time.perf_counter() - begin
        if len(passes) >= min_passes and spent * (1 + 1 / len(passes)) > args.seconds:
            break
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_peak_kb) / 1024

    oracle = oracle_masks(passes[0].graphs)
    reference = reference_pass(workload, inputs, OUT_DIR) if workload.jobs > 1 else None
    verdict = check(passes, oracle, reference)
    probes = 0 if args.trace else SETUP_SAMPLES[args.scale] - 1
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(probes)]

    untraced_s = [p.seconds for p, t in zip(passes, traced) if not t]
    ise_s = statistics.median(untraced_s)
    cuts = sum(len(m) for m in passes[0].masks if m is not None)
    report = [
        f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
        f"blocks={len(passes[0].masks)} passes={len(untraced_s)} untraced"
        + (f" + {sum(traced)} traced" if args.trace else ""),
        "ise_s quartiles: " + " / ".join(f"{q:.4f}" for q in quartiles(untraced_s)),
        "ise_s passes: " + " ".join(f"{s:.3f}" for s in untraced_s),
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples),
    ]
    report += [f"check: {problem}" for problem in verdict.problems[:20]]

    if args.trace:
        values = {
            name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]
        }
        traced_s = statistics.median(p.seconds for p, t in zip(passes, traced) if t)
        values["trace.overhead_s"] = traced_s - ise_s
        units = PER_LAYER_UNITS
        report.append(f"{'layer':<22}{'self s':>10}{'share':>9}   (median of traced passes)")
        for layer in sorted({name for own in layer_self_times for name in own}):
            own = statistics.median(row.get(layer, 0.0) for row in layer_self_times)
            report.append(f"{layer:<22}{own:>10.4f}{own / traced_s:>9.1%}")
        report.append(
            f"coverage {values['trace.coverage']:.1%}, tracing overhead "
            f"{values['trace.overhead_s']:+.4f} s ({traced_s:.4f} traced vs {ise_s:.4f})"
        )
        tracing.write_chrome_trace(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            recorder.spans,
            {"workload": args.workload, "seed": args.seed, "scale": args.scale},
        )
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "ise_s": ise_s,
            "cuts_per_s": cuts / ise_s,
            "peak_rss_mb": peak_rss_mb,
            "app_speedup": passes[0].speedup,
            "completeness": verdict.completeness,
            "ok_frac": verdict.ok_frac,
        }
        units = END_TO_END_UNITS

    for name, value in values.items():
        report.append(f"  {name:<30} {value:>14.6g} {units[name]}")
    print("\n".join(report), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if verdict.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
