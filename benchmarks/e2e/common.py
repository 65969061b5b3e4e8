"""Inputs and process plumbing shared by the benchmark's entry points.

Every workload serves the same archive, built from the same corpus with the
same settings; the workload seed only drives arrival times, doc-id picks and
query picks.  The corpus is regenerated (deterministically, seed 42) in each
process that needs it rather than shipped between processes.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

CORPUS_SEED = 42
DOCUMENT_BYTES = 18 * 1024
SAMPLE_BYTES = 1024
SCHEME = "ZZ"
BUILD_WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """Corpus size and phase lengths of one benchmark scale."""

    name: str
    documents: int
    dictionary_bytes: int
    cache_capacity: int
    setups: int  # set-ups per run; setup_s is their median
    warmup_s: float  # per server, before its share of the fixed-rate window
    saturation_s: float  # closed-loop phase, split across the servers


# ~5.5 MB of GOV2-like pages; the 256 KiB dictionary is ~4.5% of it and the
# 40-document cache ~13% of the documents.
FULL = Scale("full", 300, 256 * 1024, 40, 3, 1.0, 9.0)
SMOKE = Scale("smoke", 60, 128 * 1024, 16, 1, 0.25, 0.5)


def require_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for benchmark subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def make_corpus(documents: int):
    """The benchmark corpus: ``documents`` GOV2-like pages, seed 42."""
    from repro import generate_gov_collection

    return generate_gov_collection(
        num_documents=documents,
        target_document_size=DOCUMENT_BYTES,
        seed=CORPUS_SEED,
    )


def corpus_digest(collection) -> str:
    """SHA-256 over every (doc id, content) pair, in collection order."""
    digest = hashlib.sha256()
    for document in collection:
        digest.update(document.doc_id.to_bytes(8, "little"))
        digest.update(len(document.content).to_bytes(8, "little"))
        digest.update(document.content)
    return digest.hexdigest()


def archive_config(scale: Scale):
    """The build configuration every workload's archive uses."""
    from repro import ArchiveConfig, DictionarySpec, EncodingSpec, ParallelSpec
    from repro.api import SearchSpec

    return ArchiveConfig(
        dictionary=DictionarySpec(size=scale.dictionary_bytes, sample_size=SAMPLE_BYTES),
        encoding=EncodingSpec(scheme=SCHEME),
        parallel=ParallelSpec(workers=BUILD_WORKERS),
        search=SearchSpec(enabled=True),
    )


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
