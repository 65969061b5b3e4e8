"""Service facade: one coherent API for building and serving archives.

This package is the serving-first face of the library (the build pipeline
under :mod:`repro.core` / :mod:`repro.storage` remains fully supported
underneath):

* :class:`ArchiveConfig` (+ :class:`DictionarySpec`, :class:`EncodingSpec`,
  :class:`ParallelSpec`, :class:`CacheSpec`) — declarative configuration,
  replacing per-call knob-threading;
* :class:`RlzArchive` — ``build``/``open`` entry points and
  ``get``/``get_many``/``iter_documents`` serving with per-request stats;
* :class:`AsyncRlzArchive` — the asyncio front: thread-pool decode
  offload, coalesced duplicate requests, ``async get/get_many/gather``.

Cache tiers (:class:`repro.storage.CacheTier` and friends) plug in through
``ArchiveConfig.cache``; see :mod:`repro.storage.cache` for the tier
implementations and the cross-process memory model.
"""

from .archive import ArchiveStats, RequestStats, RlzArchive
from .async_front import AsyncRlzArchive
from .config import (
    ArchiveConfig,
    CacheSpec,
    DictionarySpec,
    EncodingSpec,
    ParallelSpec,
    PartitionSpec,
    SearchSpec,
    ServeSpec,
)
from .view import ArchiveView, AsyncArchiveView

__all__ = [
    "ArchiveConfig",
    "ArchiveStats",
    "ArchiveView",
    "AsyncArchiveView",
    "AsyncRlzArchive",
    "CacheSpec",
    "DictionarySpec",
    "EncodingSpec",
    "ParallelSpec",
    "PartitionSpec",
    "RequestStats",
    "RlzArchive",
    "SearchSpec",
    "ServeSpec",
]
