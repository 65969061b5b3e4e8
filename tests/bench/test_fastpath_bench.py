"""Smoke tests for the fast-path throughput benchmark."""

import json

import pytest

from repro.bench.fastpath import fastpath_benchmark
from repro.bench.harness import EXPERIMENTS


@pytest.fixture(scope="module")
def bench_table(tmp_path_factory, gov_small):
    json_path = tmp_path_factory.mktemp("fastpath") / "fastpath.json"
    table = fastpath_benchmark(
        collection=gov_small,
        serving_repeats=2,
        rounds=1,
        output_json=json_path,
    )
    return table, json_path


def test_benchmark_verifies_parse_and_roundtrip(bench_table):
    table, _ = bench_table
    notes = "\n".join(table.notes)
    assert "byte-identical to seed: True" in notes
    assert "parallel blobs identical to serial: True" in notes
    assert "round-trip verified against corpus: True" in notes
    assert "served bytes verified against corpus: True" in notes


def test_benchmark_rows_cover_both_directions(bench_table):
    table, _ = bench_table
    pipelines = [row[0] for row in table.rows]
    assert "encode/seed" in pipelines
    assert "encode/fast" in pipelines
    assert "encode/python" in pipelines
    assert "decode/seed-serving" in pipelines
    assert "decode/fast-serving" in pipelines


def test_benchmark_json_record(bench_table):
    _, json_path = bench_table
    history = json.loads(json_path.read_text())
    assert isinstance(history, list) and len(history) == 1
    record = history[0]
    assert record["benchmark"] == "fastpath"
    assert record["verified"]["streams_identical"] is True
    assert record["verified"]["roundtrip_ok"] is True
    assert record["encode"]["speedup"] > 0
    assert record["encode"]["python_mb_per_s"] > 0
    assert record["decode"]["speedup"] > 0


def test_benchmark_json_appends(tmp_path, gov_small):
    json_path = tmp_path / "fastpath.json"
    for _ in range(2):
        fastpath_benchmark(
            collection=gov_small, serving_repeats=2, rounds=1, output_json=json_path
        )
    assert len(json.loads(json_path.read_text())) == 2


def test_fastpath_registered_as_experiment():
    assert "fastpath" in EXPERIMENTS
    assert "fastpath-large-dict" in EXPERIMENTS


def test_large_dictionary_benchmark_rejects_gated_sizes():
    """The experiment exists to exercise dictionaries above 1 MiB; sizes at
    or below it must be refused loudly."""
    from repro.bench.fastpath import large_dictionary_benchmark

    with pytest.raises(ValueError, match="1 MiB"):
        large_dictionary_benchmark(dictionary_bytes=1 << 20)
    with pytest.raises(ValueError, match="1 MiB"):
        large_dictionary_benchmark(dictionary_bytes=4096)


def test_large_dictionary_benchmark_rejects_small_collections(gov_small):
    """A caller-supplied collection that cannot yield a >1 MiB dictionary is
    an error, not a silently smaller experiment."""
    from repro.bench.fastpath import large_dictionary_benchmark

    if gov_small.total_size > (1 << 20) + (1 << 18):
        pytest.skip("fixture collection large enough to sample the dictionary")
    with pytest.raises(ValueError, match="too small"):
        large_dictionary_benchmark(
            collection=gov_small, dictionary_bytes=(1 << 20) + (1 << 18)
        )
