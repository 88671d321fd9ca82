"""The repository benchmark: end-to-end ISE identification on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus_ise --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what each one
is meant to judge.
"""
