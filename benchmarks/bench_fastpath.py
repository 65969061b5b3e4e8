"""Fast-path throughput benchmark: current pipeline vs the frozen seed.

Measures encode throughput (jump-start index + stream factorization +
parallel pipeline), decode throughput (``PairEncoder.decode_document`` plus
the serving cache) and the serving front (async clients + cache tier vs the
sequential get loop) against frozen re-implementations of the seed revision's hot loops, verifies
byte-identical factor streams and exact round-trips in the same run, and
appends the raw numbers to ``benchmarks/results/fastpath.json`` so the perf
trajectory accumulates machine-readable points.

Run with ``pytest benchmarks/bench_fastpath.py --benchmark-only``; scale with
the ``REPRO_BENCH_SCALE`` environment variable.
"""

from pathlib import Path

from repro.bench.fastpath import fastpath_benchmark

RESULTS_DIR = Path(__file__).parent / "results"


def test_fastpath(benchmark, results_path):
    """Record fast-path speedups and verify parse/round-trip identity."""
    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        fastpath_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "byte-identical to seed: True" in notes
    assert "parallel blobs identical to serial: True" in notes
    assert "round-trip verified against corpus: True" in notes
    assert "served bytes verified against corpus: True" in notes


def test_fastpath_serving(benchmark, results_path):
    """Record the serving-front comparison (sequential loop vs cache tier vs
    concurrent async clients) and verify every served byte."""
    from repro.bench.serving import serving_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        serving_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "served bytes verified against corpus: True" in notes


def test_fastpath_network(benchmark, results_path):
    """Record the socket-serving comparison (local get loop vs 1/8/64
    concurrent RlzClient sessions) and verify every served byte."""
    from repro.bench.network import network_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        network_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "served bytes verified against corpus: True" in notes


def test_fastpath_cluster(benchmark, results_path):
    """Record the cluster-serving comparison (sequential request/response
    loop vs pipelined single connection vs 1/2/4-shard ClusterClient
    fan-out) and verify every served byte.  The pipelined loop must
    measurably beat the sequential loop (target >= 1.5x)."""
    from repro.bench.cluster import cluster_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        cluster_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "served bytes verified against corpus: True" in notes
    assert "pipelined 1-conn speedup over the sequential loop:" in notes


def test_fastpath_chaos(benchmark, results_path):
    """Record the chaos comparison (one delay-faulted shard, hedging off
    vs on) and verify every served byte across all four legs."""
    from repro.bench.chaos import chaos_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        chaos_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "served bytes verified against corpus: True" in notes
    assert "hedging" in notes


def test_fastpath_partition(benchmark, results_path):
    """Record the partitioned-serving comparison (2-replica fleet vs 2- and
    4-way shard-owned partitions: stored footprint + get/get_many/sweep
    throughput) and verify every served byte across all fleets."""
    from repro.bench.partition import partition_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        partition_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "served bytes verified against corpus: True" in notes
    assert "JSON record appended to" in notes


def test_fastpath_search(benchmark, results_path):
    """Record the search-serving comparison (in-memory index vs persistent
    postings vs served SEARCH vs 4-way sharded fan-out), verify every
    ranking hit-for-hit against the local index, and measure the windowed
    snippet decode against whole-document decode."""
    from repro.bench.search import search_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        search_benchmark,
        kwargs={"output_json": json_path},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "sharded ranking identical to local index: True" in notes
    assert "snippet windows verified against corpus: True" in notes
    assert "windowed decode cheaper than full decode: True" in notes
    assert "JSON record appended to" in notes


def test_fastpath_large_dictionary(benchmark, results_path):
    """Verify the native kernel parses for a dictionary above 1 MiB, and that
    it and its pure-Python port produce the seed's streams."""
    from repro.bench.fastpath import large_dictionary_benchmark

    json_path = RESULTS_DIR / "fastpath.json"
    table = benchmark.pedantic(
        large_dictionary_benchmark,
        kwargs={"output_json": json_path, "rounds": 1},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table.print()
    table.save(results_path)
    notes = "\n".join(table.notes)
    assert "native kernel active for the > 1 MiB dictionary: True" in notes
    assert "python port and kernel streams byte-identical to seed: True" in notes
    assert "round-trip verified against corpus: True" in notes
