"""Smoke test of the end-to-end benchmark at its ``--smoke`` scale.

Runs every workload untraced and one workload traced, and checks that each
metric ``BENCHMARK.json`` names is printed with its unit, that every answer
was right and that no request failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> list:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout.splitlines()


def _printed(lines: list) -> list:
    """``(name, unit)`` of every ``name value unit`` metric line."""
    pairs = []
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            float(fields[1])
            pairs.append((fields[0], fields[2]))
    return pairs


def test_every_workload_prints_every_end_to_end_metric():
    lines = _run("--all")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = [(metric["name"], metric["unit"]) for metric in SPEC["end_to_end"]]
    assert _printed(lines) == expected * len(SPEC["workloads"])
    for workload in SPEC["workloads"]:
        for name, unit in expected:
            entry = result["metrics"][f"{workload['name']}:{name}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0


def test_trace_prints_every_per_layer_metric():
    lines = _run("--workload", "search", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = [(metric["name"], metric["unit"]) for metric in SPEC["per_layer"]]
    assert _printed(lines) == expected
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == dict(expected)
    assert result["metrics"]["bench.build_coverage"]["value"] >= 0.9
    assert result["metrics"]["search.serving.search_p50_ms"]["value"] > 0
