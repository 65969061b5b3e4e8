"""Ablation: accelerated vs faithful factorization (identical parses).

The greedy parse (one lcp-aware binary search per factor) and the
paper-faithful per-character refinement produce identical parses; this
records the speed difference.

Run with ``pytest benchmarks/bench_ablation_acceleration.py --benchmark-only``; scale with the
``REPRO_BENCH_SCALE`` environment variable.
"""

from conftest import run_and_report


def test_ablation_acceleration(benchmark, results_path):
    """Regenerate ablation acceleration and record its wall-clock cost."""
    table = run_and_report(benchmark, "ablation-acceleration", results_path)
    assert len(table.rows) > 0
