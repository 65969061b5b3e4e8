"""Per-layer metrics of a traced run, named after the ``repro`` modules.

Serving spans come from three places on one clock: the client process
(``client.get`` / ``client.search``: round trips), the server (front, store,
cache, codec and postings layers) and the server's counters (STATS deltas
over the traced window).  Build spans come from the traced build worker.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence

from spans import Span, link_by_key, percentile, self_times

FRONT = "api.async_front.get"
FACADE = "api.archive.get"
STORE_GET = "storage.rlz_store.get"
WINDOW = "storage.rlz_store.get_window"
STREAMS = "core.encoder.decode_streams"
PAIRS = "core.decoder.decode_pairs"
CACHE_GET = "storage.cache.get"
SEARCH = "search.serving.search"
OPEN = "search.serving.open"


def _durations(spans: Iterable[Span]) -> List[float]:
    return [span[3] - span[2] for span in spans]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _first_unmatched(candidates, taken, lower: float, upper: float):
    """Earliest span in ``candidates`` (start-ordered) inside [lower, upper]
    that no request has claimed yet."""
    for span in candidates:
        if span[0] not in taken and lower <= span[2] and span[3] <= upper:
            taken.add(span[0])
            return span
    return None


def serve_overheads(
    client_spans: Sequence[Span], server_spans: Sequence[Span]
) -> List[float]:
    """For each client round trip, its time outside the server's layer spans.

    A GET is matched to the earliest unclaimed front span for the same doc
    id inside its round trip; a SEARCH to the postings span for its query
    plus one snippet window per returned doc id.  Round trips with no
    matching server span are skipped.
    """
    by_key: Dict[tuple, List[Span]] = defaultdict(list)
    for span in sorted(server_spans, key=lambda s: s[2]):
        if span[1] in (FRONT, SEARCH, WINDOW):
            by_key[(span[1], span[5])].append(span)
    taken: set = set()
    overheads: List[float] = []
    for span in sorted(client_spans, key=lambda s: s[2]):
        _, name, start, end, _, key, hits = span
        if name == "client.get":
            served = _first_unmatched(by_key[(FRONT, key)], taken, start, end)
            if served is not None:
                overheads.append((end - start) - (served[3] - served[2]))
        elif name == "client.search":
            scored = _first_unmatched(by_key[(SEARCH, key)], taken, start, end)
            if scored is None:
                continue
            busy = scored[3] - scored[2]
            for doc_id in hits or ():
                window = _first_unmatched(by_key[(WINDOW, doc_id)], taken, scored[3], end)
                if window is not None:
                    busy += window[3] - window[2]
            overheads.append((end - start) - busy)
    return overheads


def serving_layers(
    client_spans: Sequence[Span],
    server_spans: Sequence[Span],
    window_start: float,
    stats_before: Mapping[str, float],
    stats_after: Mapping[str, float],
    blob_lengths: Mapping[int, int],
) -> Dict[str, float]:
    """Per-layer serving metrics over the traced window."""
    opened = [span for span in server_spans if span[1] == OPEN]
    spans = link_by_key(
        [span for span in server_spans if span[2] >= window_start], FRONT, FACADE
    )
    selfs = self_times(spans)
    named: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        named[span[1]].append(span)
        if span[4] is not None:
            children[span[4]].append(span)

    def delta(key: str) -> float:
        return stats_after.get(key, 0.0) - stats_before.get(key, 0.0)

    overheads = serve_overheads(
        [span for span in client_spans if span[2] >= window_start], spans
    )
    queue = [selfs[span[0]] for span in named[FRONT]]
    misses = [
        span
        for span in named[STORE_GET]
        if any(child[1] == STREAMS for child in children[span[0]])
    ]
    window_pairs = sum(
        child[6]
        for span in named[WINDOW]
        for child in children[span[0]]
        if child[1] == PAIRS
    )
    hits, lookups = delta("cache_hits"), delta("cache_hits") + delta("cache_misses")
    server_busy = sum(_durations(named[FRONT] + named[SEARCH] + named[WINDOW]))
    facade_glue = sum(selfs[span[0]] for span in named[FACADE])
    return {
        "bench.server_coverage": 1.0 - _ratio(facade_glue, server_busy),
        "serve.overhead_p50_ms": percentile(overheads, 0.50) * 1e3,
        "serve.overhead_p99_ms": percentile(overheads, 0.99) * 1e3,
        "serve.busy_rejections": delta("server_busy_rejections"),
        "serve.deadline_rejections": delta("server_deadline_rejections"),
        "api.async_front.queue_p50_ms": percentile(queue, 0.50) * 1e3,
        "api.async_front.queue_p99_ms": percentile(queue, 0.99) * 1e3,
        "api.async_front.coalesced": delta("async_coalesced"),
        "storage.cache.hit_ratio": _ratio(hits, lookups),
        "storage.cache.get_p50_us": percentile(_durations(named[CACHE_GET]), 0.50) * 1e6,
        "storage.rlz_store.read_p50_us": percentile(
            [selfs[span[0]] for span in misses], 0.50
        )
        * 1e6,
        "storage.rlz_store.bytes_read_per_miss": _ratio(
            sum(blob_lengths[span[5]] for span in misses), len(misses)
        ),
        "storage.rlz_store.window_p50_us": percentile(_durations(named[WINDOW]), 0.50)
        * 1e6,
        "storage.rlz_store.window_efficiency": _ratio(
            sum(span[6] for span in named[WINDOW]), window_pairs
        ),
        "core.encoder.decode_streams_p50_us": percentile(_durations(named[STREAMS]), 0.50)
        * 1e6,
        "core.decoder.decode_pairs_p50_us": percentile(_durations(named[PAIRS]), 0.50)
        * 1e6,
        "core.decoder.factors_per_doc": _ratio(
            sum(span[6] for span in named[STREAMS]), len(named[STREAMS])
        ),
        "search.serving.search_p50_ms": percentile(_durations(named[SEARCH]), 0.50) * 1e3,
        "search.serving.search_p99_ms": percentile(_durations(named[SEARCH]), 0.99) * 1e3,
        "search.serving.open_s": sum(_durations(opened)),
    }


def build_layers(
    build_spans: Sequence[Span], sample: Mapping[str, float], corpus_bytes: int
) -> Dict[str, float]:
    """Per-stage build metrics from one traced ``RlzArchive.build``."""
    selfs = self_times(build_spans)
    stage: Dict[str, float] = defaultdict(float)
    for span in build_spans:
        stage[span[1]] += selfs[span[0]]
    total = sum(_durations(s for s in build_spans if s[1] == "api.archive.build"))
    encode_s = stage["core.parallel.encode_documents"]
    glue = stage["api.archive.build"]
    return {
        "bench.build_coverage": 1.0 - _ratio(glue, total),
        "api.archive.build_mb_s": _ratio(corpus_bytes / 1e6, total),
        "core.dictionary.sample_s": stage["core.dictionary.build_dictionary"],
        "suffix.sa_build_s": stage["suffix.suffix_array"],
        "suffix.prepare_s": stage["suffix.prepare"],
        "core.parallel.encode_s": encode_s,
        "core.parallel.encode_mb_s": _ratio(corpus_bytes / 1e6, encode_s),
        "storage.container.write_s": stage["storage.container.write"],
        "search.serving.postings_write_s": stage["search.serving.write_postings"],
        "api.archive.build_glue_s": glue,
        "core.factorizer.factorize_share": sample["factorize_share"],
        "core.encoder.encode_share": sample["encode_share"],
        "core.factorizer.avg_factor_len": sample["avg_factor_len"],
        "core.factorizer.literal_pct": sample["literal_pct"],
    }
