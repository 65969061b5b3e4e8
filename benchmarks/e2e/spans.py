"""Span recording and per-layer accounting for traced benchmark runs.

The wrappers are installed from the benchmark's own files around public
functions of :mod:`repro`; nothing under ``src/`` knows it is being traced.
A span is ``(id, name, start, end, parent, key, info)``:

* ``start``/``end`` come from ``time.monotonic()``, which is the system-wide
  ``CLOCK_MONOTONIC`` on Linux, so spans from the client, the server and the
  build-worker processes share one time axis;
* ``parent`` is the enclosing span *in the same thread*, kept on a
  thread-local stack.  ``run_in_executor`` drops context, so a decode that
  runs on an executor thread is a root in its thread; :func:`link_by_key`
  re-attaches it to the async span with the same request key that covers it;
* ``key`` is the request key (doc id or query) read from the call's
  arguments, and ``info`` a summary of its result (bytes decoded, factors
  in a stream, the doc ids a search returned).

Spans stay in memory and are written as JSON lines when the process ends.
A layer's self time is its span's duration minus the time its children
cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "link_by_key",
    "load_spans",
    "percentile",
    "self_times",
    "install_build_wrappers",
    "install_server_wrappers",
    "install_client_wrappers",
]

# (id, name, start, end, parent, key, info)
Span = Tuple[int, str, float, float, Optional[int], object, object]


class Tracer:
    """Collects spans from wrapped functions in this process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_sync(self, function, name, key, info):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            spans.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    key(args) if key else None,
                    info(result) if info else None,
                )
            )
            return result

        return wrapper

    def _wrap_async(self, function, name, key, info):
        # Coroutines interleave on one thread, so async spans never touch
        # the thread-local stack: they are roots, linked to their executor
        # children by request key.
        spans, ids = self.spans, self._ids

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            start = time.monotonic()
            result = await function(*args, **kwargs)
            spans.append(
                (
                    span_id,
                    name,
                    start,
                    time.monotonic(),
                    None,
                    key(args) if key else None,
                    info(result) if info else None,
                )
            )
            return result

        return wrapper

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        key: Optional[Callable[[tuple], object]] = None,
        info: Optional[Callable[[object], object]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``owner`` is a class (plain, class and async methods and properties
        are handled) or a module (functions looked up through it).  Only
        successful calls are recorded; a call that raises leaves no span.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(raw, property):
            wrapped = property(self._wrap_sync(raw.fget, name, key, info))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap_sync(raw.__func__, name, key, info))
        elif inspect.iscoroutinefunction(raw):
            wrapped = self._wrap_async(raw, name, key, info)
        else:
            wrapped = self._wrap_sync(raw, name, key, info)
        setattr(owner, attribute, wrapped)

    def dump(self, path) -> None:
        """Write every recorded span to ``path`` as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def _second(args: tuple):
    return args[1]


def install_build_wrappers(tracer: Tracer) -> None:
    """Spans around each build stage of ``RlzArchive.build``."""
    import repro.core.compressor as compressor
    import repro.search.serving as serving
    from repro.api import RlzArchive
    from repro.core.dictionary import RlzDictionary
    from repro.core.parallel import ParallelCompressor
    from repro.storage import RlzStore
    from repro.suffix import SuffixArray

    tracer.wrap(RlzArchive, "build", "api.archive.build")
    tracer.wrap(compressor, "build_dictionary", "core.dictionary.build_dictionary")
    tracer.wrap(RlzDictionary, "suffix_array", "suffix.suffix_array")
    tracer.wrap(SuffixArray, "prepare", "suffix.prepare")
    tracer.wrap(ParallelCompressor, "encode_documents", "core.parallel.encode_documents")
    tracer.wrap(RlzStore, "write", "storage.container.write")
    # RlzArchive.build imports write_postings at call time, so patching the
    # package attribute is what the build sees.
    tracer.wrap(serving, "write_postings", "search.serving.write_postings")


def install_server_wrappers(tracer: Tracer) -> None:
    """Spans around the serving path of ``repro serve`` (GET and SEARCH)."""
    import repro.storage.rlz_store as rlz_store
    from repro.api import AsyncRlzArchive, RlzArchive
    from repro.core import PairEncoder
    from repro.search.serving import PostingsStore
    from repro.storage import LruCache

    tracer.wrap(AsyncRlzArchive, "get", "api.async_front.get", key=_second)
    tracer.wrap(RlzArchive, "get", "api.archive.get", key=_second)
    tracer.wrap(rlz_store.RlzStore, "get", "storage.rlz_store.get", key=_second)
    tracer.wrap(
        rlz_store.RlzStore,
        "get_window",
        "storage.rlz_store.get_window",
        key=_second,
        info=len,
    )
    tracer.wrap(
        PairEncoder,
        "decode_streams",
        "core.encoder.decode_streams",
        info=lambda streams: len(streams[1]),
    )
    # rlz_store imported decode_pairs at module load; patch it where the
    # store looks it up.
    tracer.wrap(rlz_store, "decode_pairs", "core.decoder.decode_pairs", info=len)
    tracer.wrap(LruCache, "get", "storage.cache.get", key=_second)
    tracer.wrap(LruCache, "put", "storage.cache.put", key=_second)
    tracer.wrap(PostingsStore, "open", "search.serving.open")
    tracer.wrap(PostingsStore, "search", "search.serving.search", key=_second)


def install_client_wrappers(tracer: Tracer) -> None:
    """Spans around the client calls the load generator makes."""
    from repro.serve import AsyncRlzClient

    tracer.wrap(AsyncRlzClient, "get", "client.get", key=_second)
    tracer.wrap(
        AsyncRlzClient,
        "search",
        "client.search",
        key=_second,
        info=lambda hits: [hit.doc_id for hit in hits],
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load_spans(path) -> List[Span]:
    """Read a JSON-lines span dump."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def link_by_key(spans: Sequence[Span], parent_name: str, child_name: str) -> List[Span]:
    """Attach root ``child_name`` spans to the ``parent_name`` span with the
    same key whose interval covers them (the executor hop drops the thread
    stack).  Each parent takes at most one child; unmatched children stay
    roots.
    """
    open_parents: Dict[object, List[Span]] = {}
    for span in sorted(spans, key=lambda s: s[2]):
        if span[1] == parent_name:
            open_parents.setdefault(span[5], []).append(span)
    taken = set()
    linked: List[Span] = []
    for span in spans:
        if span[1] == child_name and span[4] is None:
            for candidate in open_parents.get(span[5], ()):
                if (
                    candidate[0] not in taken
                    and candidate[2] <= span[2]
                    and span[3] <= candidate[3]
                ):
                    taken.add(candidate[0])
                    span = span[:4] + (candidate[0],) + span[5:]
                    break
        linked.append(span)
    return linked


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's.

    Children of one parent run one after another in the parent's thread
    (or, for a key-linked executor child, inside the parent's interval),
    so their durations add up to the time they cover.
    """
    spans = list(spans)
    result = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent is not None and parent in result:
            result[parent] -= span[3] - span[2]
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by nearest rank; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
