"""Search *serving*: persistent posting lists next to compressed archives.

The in-memory :class:`repro.search.InvertedIndex` exists to generate
query-log access patterns; this package turns search into a first-class
serving workload.  :func:`build_postings` tokenises a collection at build
time and writes a :class:`PostingsStore` — an on-disk inverted index
(varint-delta posting lists, doc-length table, CRC-checked sections,
atomic tmp+fsync+replace writes like the RPRC2 container) that rides as a
sidecar file next to the ``.rlz`` container it indexes.  Servers load the
sidecar read-only into flat posting arrays and answer the ``SEARCH``
opcode with term-at-a-time BM25 ranking (numpy, bit-equal to the
in-memory index) against it; cluster clients fan a query out to
every shard, exchange global collection statistics so per-shard scores
are *exactly* what one big index would compute, and merge the per-shard
top-k into one globally ordered result.
"""

from .postings import (
    GlobalStats,
    PostingsStore,
    ScoredDoc,
    build_postings,
    index_sidecar_path,
    write_postings,
)

__all__ = [
    "GlobalStats",
    "PostingsStore",
    "ScoredDoc",
    "build_postings",
    "index_sidecar_path",
    "write_postings",
]
