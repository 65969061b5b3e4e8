"""Fast-path throughput benchmark: current pipeline vs the frozen seed.

This experiment anchors the perf trajectory of the repository: it measures
encode and decode throughput of the current fast path against a *frozen*
re-implementation of the seed revision's hot loops (kept verbatim in this
module so later optimisation PRs keep comparing against the same baseline),
verifies that both produce byte-identical factor streams and round-trip the
corpus exactly, and records everything to a JSON file so successive PRs can
chart the trajectory.

Measured pipelines:

* ``encode/seed``      — per-factor ``searchsorted`` over the full key
  array, lazily built key levels, ``Factor`` objects materialised per
  factor (the seed's ``factorize`` + ``encode``);
* ``encode/fast``      — the match engine with stream-based factorization
  (``factorize_streams`` + ``encode_streams``): the native factorize
  kernel when it loads, else the Python engine;
* ``encode/python``    — the same with the kernel forced off: the kernel's
  pure-Python port (one lcp-aware bisect per factor);
* ``encode/parallel``  — the same fast path fanned out over a
  :class:`repro.core.ParallelCompressor` pool;
* ``decode/seed``      — the seed's per-factor ``bytearray`` append loop;
* ``decode/fast``      — :meth:`repro.core.PairEncoder.decode_document` on
  each stored blob (the native kernel for the paper's schemes, else the
  Python decoder);
* ``decode/serving``   — the same decode behind the store's LRU
  decoded-document cache on a repeated-access log.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..core import (
    DictionaryConfig,
    PairEncoder,
    ParallelCompressor,
    RlzDictionary,
    RlzFactorizer,
    build_dictionary,
    native,
)
from ..corpus.document import DocumentCollection
from .corpora import gov_collection
from .reporting import ResultTable
from .scale import BenchScale, current_scale

__all__ = [
    "fastpath_benchmark",
    "large_dictionary_benchmark",
    "seed_decode_pairs",
    "SeedFactorizer",
]


# ----------------------------------------------------------------------
# Frozen seed implementations (do not optimise — they ARE the baseline)
# ----------------------------------------------------------------------
_KEY_WIDTH = 8


class SeedMatcher:
    """The seed revision's accelerated ``longest_match``, frozen.

    Reuses the already-built suffix array of a :class:`SuffixArray` but runs
    the seed's search loops: a ``searchsorted`` over the full level-0 key
    array for the first step of every factor (no jump-start index), lazily
    materialised key levels, dataclass-free but numpy-scalar interval
    refinement, exactly as the seed shipped them.
    """

    _SCAN_THRESHOLD = 16
    _MAX_LEVELS = 4
    _GATHER_MAX = 4096

    def __init__(self, suffix_array) -> None:
        self._text = suffix_array.text
        self._n = len(self._text)
        self._sa = suffix_array.array
        text_array = np.frombuffer(self._text, dtype=np.uint8)
        self._padded = np.concatenate(
            [text_array, np.zeros((self._MAX_LEVELS + 1) * _KEY_WIDTH, dtype=np.uint8)]
        )
        self._level_keys = {}

    def _keys_at(self, positions, offset):
        padded = self._padded
        base = positions + offset
        keys = np.zeros(len(positions), dtype=np.uint64)
        for j in range(_KEY_WIDTH):
            keys = (keys << np.uint64(8)) | padded[base + j].astype(np.uint64)
        return keys

    def _get_level_keys(self, level):
        keys = self._level_keys.get(level)
        if keys is None:
            keys = self._keys_at(self._sa, level * _KEY_WIDTH)
            self._level_keys[level] = keys
        return keys

    def _byte_at(self, rank, offset):
        pos = int(self._sa[rank]) + offset
        if pos >= self._n:
            return -1
        return self._text[pos]

    def _lower_bound(self, lo, hi, offset, byte):
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._byte_at(mid, offset) < byte:
                lo = mid + 1
            else:
                hi = mid - 1
        return lo

    def _upper_bound(self, lo, hi, offset, byte):
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._byte_at(mid, offset) <= byte:
                lo = mid + 1
            else:
                hi = mid - 1
        return hi

    def _extend_match(self, text_pos, query, query_pos, limit):
        text = self._text
        limit = min(limit, self._n - text_pos)
        matched = 0
        chunk = 32
        while matched < limit:
            step = min(chunk, limit - matched)
            if (
                text[text_pos + matched : text_pos + matched + step]
                == query[query_pos + matched : query_pos + matched + step]
            ):
                matched += step
                chunk *= 2
                continue
            while (
                matched < limit
                and text[text_pos + matched] == query[query_pos + matched]
            ):
                matched += 1
            break
        return matched

    def _scan_interval(self, lb, rb, query, start, matched, max_len):
        sa = self._sa
        best_position = int(sa[lb])
        best_length = matched
        for rank in range(lb, rb + 1):
            position = int(sa[rank])
            length = matched + self._extend_match(
                position + matched, query, start + matched, max_len - matched
            )
            if length > best_length:
                best_length = length
                best_position = position
                if best_length == max_len:
                    break
        return best_position, best_length

    def _refine(self, lb, rb, offset, byte):
        new_lb = self._lower_bound(lb, rb, offset, byte)
        if new_lb > rb:
            return None
        pos = int(self._sa[new_lb]) + offset
        if pos >= self._n or self._text[pos] != byte:
            return None
        return new_lb, self._upper_bound(new_lb, rb, offset, byte)

    def _longest_match_refine(self, query, start, max_len, lb, rb, matched):
        sa = self._sa
        while matched < max_len:
            if rb - lb + 1 <= self._SCAN_THRESHOLD:
                return self._scan_interval(lb, rb, query, start, matched, max_len)
            bounds = self._refine(lb, rb, matched, query[start + matched])
            if bounds is None:
                break
            lb, rb = bounds
            matched += 1
        if matched == 0:
            return (0, 0)
        return (int(sa[lb]), matched)

    def longest_match(self, query, start=0, limit=None):
        n_query = len(query)
        max_len = n_query - start
        if limit is not None:
            max_len = min(max_len, limit)
        if max_len <= 0 or self._n == 0:
            return (0, 0)
        sa = self._sa
        matched = 0
        lb, rb = 0, self._n - 1
        while max_len - matched >= _KEY_WIDTH:
            if b"\x00" in query[start + matched : start + matched + _KEY_WIDTH]:
                return self._longest_match_refine(query, start, max_len, lb, rb, matched)
            level, within = divmod(matched, _KEY_WIDTH)
            interval_size = rb - lb + 1
            if within == 0 and level < self._MAX_LEVELS:
                keys = self._get_level_keys(level)[lb : rb + 1]
            elif interval_size <= self._GATHER_MAX:
                keys = self._keys_at(sa[lb : rb + 1], matched)
            else:
                bounds = self._refine(lb, rb, matched, query[start + matched])
                if bounds is None:
                    return (int(sa[lb]), matched) if matched else (0, 0)
                lb, rb = bounds
                matched += 1
                continue
            query_key = np.uint64(
                int.from_bytes(query[start + matched : start + matched + _KEY_WIDTH], "big")
            )
            left = int(keys.searchsorted(query_key, side="left"))
            right = int(keys.searchsorted(query_key, side="right")) - 1
            if left > right:
                return self._longest_match_refine(query, start, max_len, lb, rb, matched)
            candidate = int(sa[lb + left])
            if (
                self._text[candidate + matched : candidate + matched + _KEY_WIDTH]
                != query[start + matched : start + matched + _KEY_WIDTH]
            ):
                return self._longest_match_refine(query, start, max_len, lb, rb, matched)
            lb, rb = lb + left, lb + right
            matched += _KEY_WIDTH
            if rb - lb + 1 <= self._SCAN_THRESHOLD:
                return self._scan_interval(lb, rb, query, start, matched, max_len)
        return self._longest_match_refine(query, start, max_len, lb, rb, matched)


class SeedFactorizer:
    """The seed's object-based ``Encode`` loop over :class:`SeedMatcher`."""

    def __init__(self, dictionary: RlzDictionary) -> None:
        self._matcher = SeedMatcher(dictionary.suffix_array)

    def factorize_streams(self, text: bytes) -> Tuple[List[int], List[int]]:
        """Seed parse as streams (for stream-equality checks)."""
        positions: List[int] = []
        lengths: List[int] = []
        cursor = 0
        n = len(text)
        while cursor < n:
            match_position, match_length = self._matcher.longest_match(text, cursor)
            if match_length == 0:
                positions.append(text[cursor])
                lengths.append(0)
                cursor += 1
            else:
                positions.append(match_position)
                lengths.append(match_length)
                cursor += match_length
        return positions, lengths

    def encode(self, text: bytes, encoder: PairEncoder) -> bytes:
        """The seed pipeline: ``Factor`` objects, then stream extraction."""
        from ..core.factor import Factor, Factorization

        factors = []
        cursor = 0
        n = len(text)
        while cursor < n:
            match_position, match_length = self._matcher.longest_match(text, cursor)
            if match_length == 0:
                factors.append(Factor.literal(text[cursor]))
                cursor += 1
            else:
                factors.append(Factor.copy(match_position, match_length))
                cursor += match_length
        return encoder.encode(Factorization(factors))


def seed_decode_pairs(positions, lengths, dictionary) -> bytes:
    """The seed revision's decode loop: per-factor ``bytearray`` growth."""
    data = dictionary.data
    limit = len(data)
    out = bytearray()
    for position, length in zip(positions, lengths):
        if length == 0:
            if not 0 <= position <= 255:
                raise ValueError(f"literal byte out of range: {position}")
            out.append(position)
        else:
            end = position + length
            if position < 0 or end > limit:
                raise ValueError(
                    f"factor ({position}, {length}) is outside the dictionary "
                    f"(size {limit})"
                )
            out += data[position:end]
    return bytes(out)


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
def _throughput(total_bytes: int, elapsed: float) -> float:
    return total_bytes / elapsed / 1e6 if elapsed > 0 else 0.0


def _best_of(rounds: int, run) -> float:
    """Wall-clock of the fastest of ``rounds`` runs (defuses scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def fastpath_benchmark(
    collection: Optional[DocumentCollection] = None,
    scale: Optional[BenchScale] = None,
    dictionary_label: str = "1.0",
    scheme: str = "ZZ",
    workers: Optional[int] = None,
    serving_repeats: int = 5,
    cache_size: int = 256,
    rounds: int = 2,
    output_json: Optional[str | Path] = None,
) -> ResultTable:
    """Measure fast-path encode/decode throughput against the frozen seed.

    Encode compares the seed pipeline with the stream pipeline (the greedy
    parse) on a full corpus pass.  Decode is reported two ways: a single sequential
    pass over every document (``decode/…-pass`` rows) and a *serving*
    workload — a shuffled query log touching each document
    ``serving_repeats`` times, seed decoding every request, the fast side
    running the store's serving semantics (an LRU of decoded documents with
    the same hit/evict behaviour as ``RlzStore``'s cache, misses decoded
    from their blobs by :meth:`PairEncoder.decode_document`; disk I/O is
    excluded from both sides).  The seed side decodes pre-parsed factor
    streams, the fast side whole blobs, stream parsing included.  The
    serving comparison is the headline decode speedup: it is the workload
    the store cache serves, and the served bytes are verified against the
    corpus.

    Every timed pipeline is verified in the same run: factor streams must be
    byte-identical to the seed's, and every decoded document must round-trip
    to the original corpus.  When ``output_json`` is given the raw numbers
    are appended to that JSON file so the perf trajectory accumulates
    machine-readable points.
    """
    import random as random_module

    scale = scale or current_scale()
    collection = collection if collection is not None else gov_collection(scale)
    documents = [document.content for document in collection]
    total_bytes = sum(len(document) for document in documents)

    config = DictionaryConfig(
        size=scale.dictionary_sizes[dictionary_label],
        sample_size=scale.default_sample_size,
    )
    dictionary = build_dictionary(collection, config)
    encoder = PairEncoder(scheme)

    # ------------------------------------------------------------------
    # Encode: frozen seed pipeline vs fast path vs parallel pipeline
    # ------------------------------------------------------------------
    seed_factorizer = SeedFactorizer(dictionary)
    seed_blobs: List[bytes] = []

    def run_seed_encode() -> None:
        seed_blobs.clear()
        seed_blobs.extend(
            seed_factorizer.encode(document, encoder) for document in documents
        )

    seed_factorizer.encode(documents[0], encoder)  # warm the lazy key levels
    seed_encode_elapsed = _best_of(rounds, run_seed_encode)

    fast_factorizer = RlzFactorizer(dictionary)
    fast_blobs: List[bytes] = []

    def run_fast_encode() -> None:
        fast_blobs.clear()
        fast_blobs.extend(
            encoder.encode_streams(*fast_factorizer.factorize_streams(document))
            for document in documents
        )

    fast_factorizer.factorize_streams(documents[0])  # warm the engine
    fast_encode_elapsed = _best_of(rounds, run_fast_encode)

    # The same pass on the pure-Python port (the native kernel forced off).
    engine_blobs = list(fast_blobs)
    with native.python_match_engine():
        python_encode_elapsed = _best_of(rounds, run_fast_encode)

    streams_identical = seed_blobs == engine_blobs == fast_blobs

    pool_workers = workers if workers is not None else (os.cpu_count() or 1)
    pipeline = ParallelCompressor(dictionary, scheme=scheme, workers=pool_workers)
    parallel_blobs: List[bytes] = []

    def run_parallel_encode() -> None:
        parallel_blobs.clear()
        parallel_blobs.extend(pipeline.encode_documents(documents))

    parallel_encode_elapsed = _best_of(rounds, run_parallel_encode)
    parallel_identical = parallel_blobs == fast_blobs

    # ------------------------------------------------------------------
    # Decode, single pass: frozen seed loop vs PairEncoder.decode_document
    # ------------------------------------------------------------------
    streams = [encoder.decode_streams(blob) for blob in fast_blobs]

    seed_decoded: List[bytes] = []

    def run_seed_decode() -> None:
        seed_decoded.clear()
        seed_decoded.extend(
            seed_decode_pairs(positions, lengths, dictionary)
            for positions, lengths in streams
        )

    seed_decode_pairs(*streams[0], dictionary)  # symmetric warm-up
    seed_decode_elapsed = _best_of(rounds, run_seed_decode)

    fast_decoded: List[bytes] = []

    def run_fast_decode() -> None:
        fast_decoded.clear()
        fast_decoded.extend(
            encoder.decode_document(blob, dictionary) for blob in fast_blobs
        )

    encoder.decode_document(fast_blobs[0], dictionary)  # symmetric warm-up
    fast_decode_elapsed = _best_of(rounds, run_fast_decode)

    roundtrip_ok = fast_decoded == documents and seed_decoded == documents

    # ------------------------------------------------------------------
    # Decode, serving workload: shuffled repeated-access query log.
    # Both sides serve the identical log from in-memory streams (disk I/O
    # excluded from both): seed decodes every request; the fast side runs
    # the store's serving semantics — an LRU of decoded documents
    # (move-to-end on hit, evict-oldest on overflow, exactly as
    # ``RlzStore._cache_lookup``/``_cache_store`` do) with misses
    # decoded from their blobs.  Served bytes are verified below.
    # ------------------------------------------------------------------
    from collections import OrderedDict

    access_log = list(range(len(documents))) * serving_repeats
    random_module.Random(0).shuffle(access_log)
    serving_bytes = total_bytes * serving_repeats

    seed_served: List[bytes] = []

    def run_seed_serving() -> None:
        seed_served.clear()
        seed_served.extend(
            seed_decode_pairs(*streams[index], dictionary) for index in access_log
        )

    seed_serving_elapsed = _best_of(rounds, run_seed_serving)

    fast_served: List[bytes] = []

    def run_fast_serving() -> None:
        fast_served.clear()
        cache: "OrderedDict[int, bytes]" = OrderedDict()
        for index in access_log:
            document = cache.get(index)
            if document is None:
                document = encoder.decode_document(fast_blobs[index], dictionary)
                cache[index] = document
                if len(cache) > cache_size:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(index)
            fast_served.append(document)

    fast_serving_elapsed = _best_of(rounds, run_fast_serving)
    serving_ok = (
        fast_served == seed_served
        and all(fast_served[i] == documents[index] for i, index in enumerate(access_log))
    )

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    encode_speedup = (
        seed_encode_elapsed / fast_encode_elapsed if fast_encode_elapsed else 0.0
    )
    parallel_speedup = (
        seed_encode_elapsed / parallel_encode_elapsed if parallel_encode_elapsed else 0.0
    )
    single_pass_speedup = (
        seed_decode_elapsed / fast_decode_elapsed if fast_decode_elapsed else 0.0
    )
    serving_speedup = (
        seed_serving_elapsed / fast_serving_elapsed if fast_serving_elapsed else 0.0
    )

    table = ResultTable(
        title="Fast path: encode/decode throughput vs the frozen seed",
        headers=["Pipeline", "Seconds", "MB/s", "Speedup vs seed"],
    )
    table.add_row("encode/seed", seed_encode_elapsed, _throughput(total_bytes, seed_encode_elapsed), 1.0)
    table.add_row("encode/fast", fast_encode_elapsed, _throughput(total_bytes, fast_encode_elapsed), encode_speedup)
    table.add_row(
        "encode/python",
        python_encode_elapsed,
        _throughput(total_bytes, python_encode_elapsed),
        seed_encode_elapsed / python_encode_elapsed if python_encode_elapsed else 0.0,
    )
    table.add_row(
        f"encode/parallel-{pipeline.workers}",
        parallel_encode_elapsed,
        _throughput(total_bytes, parallel_encode_elapsed),
        parallel_speedup,
    )
    table.add_row("decode/seed-pass", seed_decode_elapsed, _throughput(total_bytes, seed_decode_elapsed), 1.0)
    table.add_row(
        "decode/fast-pass",
        fast_decode_elapsed,
        _throughput(total_bytes, fast_decode_elapsed),
        single_pass_speedup,
    )
    table.add_row(
        "decode/seed-serving",
        seed_serving_elapsed,
        _throughput(serving_bytes, seed_serving_elapsed),
        1.0,
    )
    table.add_row(
        "decode/fast-serving",
        fast_serving_elapsed,
        _throughput(serving_bytes, fast_serving_elapsed),
        serving_speedup,
    )
    table.add_note(f"factor streams byte-identical to seed: {streams_identical}")
    table.add_note(f"encode/fast match engine: {native.factorizer_name()}")
    table.add_note(f"parallel blobs identical to serial: {parallel_identical}")
    table.add_note(f"round-trip verified against corpus: {roundtrip_ok}")
    table.add_note(f"served bytes verified against corpus: {serving_ok}")
    table.add_note(
        "headline decode speedup is the serving workload (query log, "
        f"x{serving_repeats} repeated access, store-semantics LRU of {cache_size} "
        "+ PairEncoder.decode_document, disk I/O excluded from both sides)"
    )
    table.add_note(
        f"collection: {collection.name}, {total_bytes:,} bytes, "
        f"{len(documents)} documents, dictionary {len(dictionary):,} bytes"
    )

    if output_json is not None:
        record = {
            "benchmark": "fastpath",
            "scale": scale.name,
            "collection": collection.name,
            "total_bytes": total_bytes,
            "documents": len(documents),
            "dictionary_bytes": len(dictionary),
            "scheme": scheme,
            "rounds": rounds,
            "encode": {
                "seed_seconds": seed_encode_elapsed,
                "fast_seconds": fast_encode_elapsed,
                "fast_engine": native.factorizer_name(),
                "python_seconds": python_encode_elapsed,
                "parallel_seconds": parallel_encode_elapsed,
                "parallel_workers": pipeline.workers,
                "seed_mb_per_s": _throughput(total_bytes, seed_encode_elapsed),
                "fast_mb_per_s": _throughput(total_bytes, fast_encode_elapsed),
                "python_mb_per_s": _throughput(total_bytes, python_encode_elapsed),
                "speedup": encode_speedup,
            },
            "decode": {
                "seed_pass_seconds": seed_decode_elapsed,
                "fast_pass_seconds": fast_decode_elapsed,
                "single_pass_speedup": single_pass_speedup,
                "seed_serving_seconds": seed_serving_elapsed,
                "fast_serving_seconds": fast_serving_elapsed,
                "serving_repeats": serving_repeats,
                "cache_size": cache_size,
                "seed_serving_mb_per_s": _throughput(serving_bytes, seed_serving_elapsed),
                "fast_serving_mb_per_s": _throughput(serving_bytes, fast_serving_elapsed),
                "speedup": serving_speedup,
            },
            "verified": {
                "streams_identical": streams_identical,
                "parallel_identical": parallel_identical,
                "roundtrip_ok": roundtrip_ok,
                "serving_ok": serving_ok,
            },
        }
        path = _append_json_record(output_json, record)
        table.add_note(f"JSON record appended to {path}")

    return table


def _append_json_record(output_json: str | Path, record: dict) -> Path:
    """Append ``record`` to the (list-valued) JSON history at ``output_json``."""
    path = Path(output_json)
    path.parent.mkdir(parents=True, exist_ok=True)
    history: List[dict] = []
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
            history = existing if isinstance(existing, list) else [existing]
        except json.JSONDecodeError:
            history = []
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    return path


def large_dictionary_benchmark(
    collection: Optional[DocumentCollection] = None,
    dictionary_bytes: int = (1 << 20) + (1 << 18),
    query_bytes: int = (1 << 20) + (1 << 18),
    scheme: str = "ZZ",
    rounds: int = 2,
    output_json: Optional[str | Path] = None,
) -> ResultTable:
    """Encode against a multi-MB dictionary: the greedy parse vs the seed.

    The multi-MB dictionaries the paper's RLZ design targets are where a
    match engine's per-dictionary state would show.  The greedy parse has
    none beyond the suffix array, so this experiment builds a dictionary
    *above* 1 MiB (default 1.25 MiB), checks that the native factorize
    kernel parses for it, and measures the kernel and its pure-Python port
    against the frozen :class:`SeedFactorizer` on the same documents,
    asserting that both produce the seed's factor streams byte for byte in
    the same run.

    Records are appended to the same JSON history as
    :func:`fastpath_benchmark` with ``"benchmark": "fastpath-large-dict"``;
    the frozen seed implementations in this module are untouched, so numbers
    remain comparable across PRs.
    """
    from ..corpus import generate_gov_collection

    if dictionary_bytes <= 1 << 20:
        raise ValueError(
            "large_dictionary_benchmark exists to exercise dictionaries above "
            f"1 MiB; got {dictionary_bytes} bytes"
        )
    if collection is None:
        # A dedicated collection ~2.5x the dictionary so uniform sampling has
        # something to sample (cached corpora at small scales are too small).
        document_size = 18 * 1024
        num_documents = max(8, (dictionary_bytes * 5 // 2) // document_size)
        collection = generate_gov_collection(
            num_documents=num_documents,
            target_document_size=document_size,
            seed=13,
        )
    documents: List[bytes] = []
    total = 0
    for document in collection:
        documents.append(document.content)
        total += len(document.content)
        if total >= query_bytes:
            break
    config = DictionaryConfig(size=dictionary_bytes, sample_size=1024)
    dictionary = build_dictionary(collection, config)
    if len(dictionary) <= 1 << 20:
        raise ValueError(
            f"collection too small: sampled dictionary is {len(dictionary)} bytes"
        )
    encoder = PairEncoder(scheme)

    seed_factorizer = SeedFactorizer(dictionary)
    seed_streams: List[Tuple[List[int], List[int]]] = []

    def run_seed() -> None:
        seed_streams.clear()
        seed_streams.extend(
            seed_factorizer.factorize_streams(document) for document in documents
        )

    seed_factorizer.factorize_streams(documents[0])  # warm the lazy key levels
    seed_elapsed = _best_of(rounds, run_seed)

    fast_factorizer = RlzFactorizer(dictionary)
    fast_streams: List[Tuple[List[int], List[int]]] = []

    def run_fast() -> None:
        fast_streams.clear()
        fast_streams.extend(
            fast_factorizer.factorize_streams(document) for document in documents
        )

    fast_factorizer.factorize_streams(documents[0])  # load the kernel
    fast_engine = dictionary.suffix_array.acceleration_stats()["engine"]
    kernel_active = fast_engine == "native"
    fast_elapsed = _best_of(rounds, run_fast)
    kernel_streams = list(fast_streams)
    # The same pass on the pure-Python port (the kernel forced off).
    with native.python_match_engine():
        python_elapsed = _best_of(rounds, run_fast)
    streams_identical = seed_streams == kernel_streams == fast_streams
    blobs = [
        encoder.encode_streams(positions, lengths) for positions, lengths in fast_streams
    ]
    decoded = [encoder.decode_document(blob, dictionary) for blob in blobs]
    roundtrip_ok = decoded == documents
    speedup = seed_elapsed / fast_elapsed if fast_elapsed else 0.0

    table = ResultTable(
        title="Large-dictionary encode: the greedy parse vs the frozen seed",
        headers=["Pipeline", "Seconds", "MB/s", "Speedup vs seed"],
    )
    table.add_row("encode/seed", seed_elapsed, _throughput(total, seed_elapsed), 1.0)
    table.add_row("encode/fast", fast_elapsed, _throughput(total, fast_elapsed), speedup)
    table.add_row(
        "encode/python",
        python_elapsed,
        _throughput(total, python_elapsed),
        seed_elapsed / python_elapsed if python_elapsed else 0.0,
    )
    table.add_note(f"dictionary: {len(dictionary):,} bytes (> 1 MiB)")
    table.add_note(f"native kernel active for the > 1 MiB dictionary: {kernel_active}")
    table.add_note(
        "python port and kernel streams byte-identical to seed: "
        f"{streams_identical}"
    )
    table.add_note(f"round-trip verified against corpus: {roundtrip_ok}")
    table.add_note(
        f"queries: {len(documents)} documents, {total:,} bytes, scheme {scheme}"
    )

    if output_json is not None:
        record = {
            "benchmark": "fastpath-large-dict",
            "collection": collection.name,
            "total_bytes": total,
            "documents": len(documents),
            "dictionary_bytes": len(dictionary),
            "scheme": scheme,
            "rounds": rounds,
            "encode": {
                "seed_seconds": seed_elapsed,
                "fast_seconds": fast_elapsed,
                "python_seconds": python_elapsed,
                "seed_mb_per_s": _throughput(total, seed_elapsed),
                "fast_mb_per_s": _throughput(total, fast_elapsed),
                "python_mb_per_s": _throughput(total, python_elapsed),
                "fast_engine": fast_engine,
                "speedup": speedup,
            },
            "verified": {
                "kernel_active": kernel_active,
                "streams_identical": streams_identical,
                "roundtrip_ok": roundtrip_ok,
            },
        }
        path = _append_json_record(output_json, record)
        table.add_note(f"JSON record appended to {path}")

    return table
