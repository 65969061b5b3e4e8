"""Partitioned builds: one collection in, N per-shard stores out.

``repro partition`` (and :func:`build_partitioned_archives` behind it)
splits a collection across N RPRC2 containers by consistent hash: each
shard's container holds *only* the documents whose arc of doc-id space it
owns under the :class:`~repro.serve.cluster.ShardMap` recorded in its
partition manifest.  This retires the cluster layer's "every replica has
everything" assumption — a partitioned fleet stores each document once.

Placement hashes logical *ring ids* (``"shard0"`` … ``"shardN-1"`` by
default), not transport addresses: the manifest's shard labels stay
stable when a shard moves hosts, and serving labels of the form
``ringid@host:port`` graft the transport on without remapping a single
document (see :meth:`ShardMap.ring_id`).

Dictionary policy follows :class:`~repro.api.config.PartitionSpec`:

``shared_dictionary=True`` (default)
    One dictionary is sampled from the *whole* collection, the whole
    collection is compressed once, and the encoded blobs are dealt out to
    shards.  Every shard embeds the same dictionary, so a document's
    encoded bytes are identical to a full-replica build — and rebalances
    can copy blobs between shards verbatim.
``shared_dictionary=False``
    Each shard samples its own dictionary from its own documents —
    smaller build memory, shard-local tuning, but shards can no longer
    exchange encoded blobs (rebalances re-encode; an empty shard borrows
    the first non-empty shard's dictionary so it can still decode staged
    documents later).

:func:`write_spare_shard` writes the empty container a rebalance
*recipient* starts from: same dictionary, scheme and global doc order as
the fleet, zero documents, and a manifest naming a ring id that is not in
the map yet — a *joining* shard that owns nothing until an INSTALL_MAP
adds it to the ring.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..api.archive import DocumentSource, _as_collection
from ..api.config import ArchiveConfig, PartitionSpec
from ..core.compressor import (
    CompressedCollection,
    DictionaryConfig,
    RlzCompressor,
)
from ..corpus.document import DocumentCollection
from ..errors import ConfigurationError, StorageError
from ..storage.container import read_container_header, write_container
from ..storage.document_map import DocumentMap
from ..search.serving import index_sidecar_path, write_postings
from ..storage.partition import PartitionManifest, read_manifest
from ..storage.rlz_store import RlzStore
from .cluster import ShardMap

__all__ = ["build_partitioned_archives", "write_spare_shard"]


def _compressor_for(
    config: ArchiveConfig, collection: DocumentCollection
) -> RlzCompressor:
    """The compressor RlzArchive.build would use for this collection."""
    spec = config.dictionary
    return RlzCompressor(
        dictionary_config=DictionaryConfig(
            size=spec.sized_for(collection.total_size),
            sample_size=spec.sample_size,
            policy=spec.policy,
            prefix_fraction=spec.prefix_fraction,
            seed=spec.seed,
        ),
        scheme=config.encoding.scheme,
        sa_algorithm=spec.sa_algorithm,
        accelerated=spec.accelerated,
        workers=config.parallel.workers,
        start_method=config.parallel.start_method,
        share_memory=config.parallel.share_memory,
    )


def build_partitioned_archives(
    collection_or_docs: DocumentSource,
    config: Optional[ArchiveConfig] = None,
    directory: Path | str = ".",
    labels: Optional[Sequence[str]] = None,
) -> Dict[str, Path]:
    """Build one store per shard and return ``{label: container_path}``.

    ``labels`` defaults to ``shard0`` … ``shardN-1`` with
    ``N = config.partition.shards``; pass explicit labels (bare ring ids
    or ``ringid@host:port``) to control naming.  Each container lands at
    ``directory/<ring_id>.rlz`` and holds exactly the documents whose
    consistent-hash arc its ring id owns — nothing else.
    """
    config = config or ArchiveConfig()
    spec: PartitionSpec = config.partition
    collection = _as_collection(collection_or_docs)
    if labels is None:
        labels = [f"shard{index}" for index in range(spec.shards)]
    elif not labels:
        raise ConfigurationError("a partitioned build needs at least one shard")
    ring = ShardMap(list(labels), virtual_nodes=spec.virtual_nodes, epoch=spec.epoch)
    ring_ids = [ShardMap.ring_id(label) for label in labels]

    doc_order = [document.doc_id for document in collection]
    owned: Dict[str, List] = {ring_id: [] for ring_id in ring_ids}
    for document in collection:
        owned[ShardMap.ring_id(ring.primary(document.doc_id))].append(document)

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    shard_compressed: Dict[str, CompressedCollection] = {}
    if spec.shared_dictionary:
        # One dictionary, one encode pass; blobs are dealt out per shard
        # and stay byte-identical to a full-replica build.
        compressed = _compressor_for(config, collection).compress(collection)
        by_id = {document.doc_id: document for document in compressed.documents}
        for ring_id in ring_ids:
            shard_compressed[ring_id] = CompressedCollection(
                dictionary=compressed.dictionary,
                scheme_name=compressed.scheme_name,
                documents=[by_id[doc.doc_id] for doc in owned[ring_id]],
                collection_name=compressed.collection_name,
            )
    else:
        for ring_id in ring_ids:
            documents = owned[ring_id]
            if not documents:
                continue
            sub = DocumentCollection(
                documents, name=f"{collection.name}/{ring_id}"
            )
            shard_compressed[ring_id] = _compressor_for(config, sub).compress(sub)
        donor = next(
            (shard_compressed[r] for r in ring_ids if r in shard_compressed), None
        )
        if donor is None:
            raise ConfigurationError(
                "cannot build per-shard dictionaries: every shard is empty"
            )
        for ring_id in ring_ids:
            # An empty shard still needs *a* dictionary to decode staged
            # documents after a future rebalance: borrow one.
            if ring_id not in shard_compressed:
                shard_compressed[ring_id] = CompressedCollection(
                    dictionary=donor.dictionary,
                    scheme_name=donor.scheme_name,
                    documents=[],
                    collection_name=f"{collection.name}/{ring_id}",
                )

    paths: Dict[str, Path] = {}
    for label, ring_id in zip(labels, ring_ids):
        manifest = PartitionManifest(
            epoch=spec.epoch,
            shard=label,
            shards=tuple(labels),
            virtual_nodes=spec.virtual_nodes,
            doc_order=tuple(doc_order),
        )
        path = directory / f"{ring_id}.rlz"
        RlzStore.write(
            shard_compressed[ring_id],
            path,
            extra_metadata={"partition": manifest.to_metadata()},
        )
        if config.search.enabled:
            # Each shard indexes exactly the documents it owns: the
            # SEARCH fan-out unions per-shard results, so one document
            # indexed twice would be scored (and returned) twice.
            write_postings(
                (
                    (document.doc_id, document.content)
                    for document in owned[ring_id]
                ),
                index_sidecar_path(path),
            )
        paths[label] = path
    return paths


def write_spare_shard(
    source_path: Path | str, path: Path | str, label: str
) -> Path:
    """Write the empty container a rebalance recipient starts from.

    Clones the fleet's dictionary, scheme and global doc order from an
    existing shard container at ``source_path``, holds zero documents,
    and records ``label`` as a *joining* ring id: it is not in the copied
    shard map, so the new server owns nothing (and refuses every doc id)
    until ``repro rebalance`` streams its arc over and installs the epoch
    that adds it to the ring.
    """
    source_path = Path(source_path)
    path = Path(path)
    manifest = read_manifest(source_path)
    if manifest is None:
        raise StorageError(f"{source_path} is not a partitioned shard container")
    header = read_container_header(source_path)
    if header.store_type != "rlz":
        raise StorageError(
            f"cannot clone a {header.store_type!r} container as a spare shard"
        )
    joining = PartitionManifest(
        epoch=manifest.epoch,
        shard=label,
        shards=manifest.shards,
        virtual_nodes=manifest.virtual_nodes,
        doc_order=manifest.doc_order,
    )
    metadata = dict(header.metadata)
    metadata["original_size"] = 0
    metadata["partition"] = joining.to_metadata()
    write_container(
        path,
        header.store_type,
        metadata,
        DocumentMap(),
        header.dictionary,
        b"",
    )
    return path
