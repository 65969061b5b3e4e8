"""RLZ dictionary construction (Section 3.3 of the paper).

The dictionary is a byte string built by sampling the collection; the
factorizer indexes it with a suffix array and every document is parsed
against it.  The paper's technique is deliberately simple: treat the
collection as one long string and take fixed-length samples at evenly
spaced intervals.  This module implements that policy plus two variants
used elsewhere in the paper and in the ablation benchmarks:

* :func:`sample_uniform` — evenly spaced fixed-size samples (the paper's
  method, Section 3.3);
* :func:`sample_prefix` — sample only from a prefix of the collection
  (the dynamic-update simulation of Section 3.6 / Table 10);
* :func:`sample_random_documents` — whole-document random sampling, the
  naive alternative mentioned in Section 3.1.

The resulting :class:`RlzDictionary` owns the sampled bytes and lazily
builds the suffix array over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..corpus.document import DocumentCollection
from ..errors import DictionaryError
from ..suffix import SuffixArray

__all__ = [
    "DictionaryConfig",
    "RlzDictionary",
    "build_dictionary",
    "sample_prefix",
    "sample_random_documents",
    "sample_uniform",
]


@dataclass(frozen=True)
class DictionaryConfig:
    """Parameters of dictionary sampling.

    Attributes
    ----------
    size:
        Target dictionary size in bytes (the paper's 0.5/1/2 GB scaled down).
    sample_size:
        Length of each sample in bytes (the paper's 0.5-5 KB "sample period").
    policy:
        ``"uniform"`` (paper default), ``"prefix"`` or ``"random_documents"``.
    prefix_fraction:
        For the ``"prefix"`` policy, the fraction of the collection that is
        visible to the sampler (Table 10 uses 100% down to 1%).
    seed:
        Seed for the ``"random_documents"`` policy.
    """

    size: int
    sample_size: int = 1024
    policy: str = "uniform"
    prefix_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise DictionaryError("dictionary size must be positive")
        if self.sample_size <= 0:
            raise DictionaryError("sample size must be positive")
        if self.policy not in ("uniform", "prefix", "random_documents"):
            raise DictionaryError(f"unknown sampling policy: {self.policy!r}")
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise DictionaryError("prefix_fraction must be in (0, 1]")


class RlzDictionary:
    """A sampled dictionary plus its (lazily built) suffix array."""

    def __init__(
        self,
        data: bytes,
        config: Optional[DictionaryConfig] = None,
        sa_algorithm: str = "doubling",
        accelerated: bool = True,
    ) -> None:
        if not data:
            raise DictionaryError("dictionary must not be empty")
        self._data = bytes(data)
        self._config = config
        self._sa_algorithm = sa_algorithm
        self._accelerated = accelerated
        self._suffix_array: Optional[SuffixArray] = None

    @classmethod
    def from_prebuilt(
        cls,
        data: bytes,
        suffix_array: SuffixArray,
        config: Optional[DictionaryConfig] = None,
        sa_algorithm: str = "doubling",
        accelerated: bool = True,
    ) -> "RlzDictionary":
        """A dictionary wrapping an already-built :class:`SuffixArray`.

        Used by the shared-memory worker path: the suffix array was built
        once in the parent and reconstructed from shared arrays with
        :meth:`SuffixArray.from_precomputed`; the lazy build here would
        otherwise re-run the whole construction per worker.
        """
        dictionary = cls(
            data,
            config=config,
            sa_algorithm=sa_algorithm,
            accelerated=accelerated,
        )
        dictionary._suffix_array = suffix_array
        return dictionary

    @property
    def data(self) -> bytes:
        """The raw dictionary bytes."""
        return self._data

    @property
    def config(self) -> Optional[DictionaryConfig]:
        """The sampling configuration used to build this dictionary (if any)."""
        return self._config

    @property
    def sa_algorithm(self) -> str:
        """Suffix-array construction algorithm used for the lazy build."""
        return self._sa_algorithm

    @property
    def accelerated(self) -> bool:
        """Whether documents are parsed by the greedy parse (else the
        per-character reference)."""
        return self._accelerated

    def __len__(self) -> int:
        return len(self._data)

    @property
    def suffix_array(self) -> SuffixArray:
        """Suffix array over the dictionary (built on first access)."""
        if self._suffix_array is None:
            self._suffix_array = SuffixArray(
                self._data,
                algorithm=self._sa_algorithm,
                accelerated=self._accelerated,
            )
        return self._suffix_array

    def extended(self, extra: bytes) -> "RlzDictionary":
        """A new dictionary with ``extra`` bytes appended (Section 3.6).

        Appending keeps every existing offset valid, so previously encoded
        documents do not need to be re-encoded; only the suffix array must
        be rebuilt (which happens lazily on the new object).
        """
        if not extra:
            return self
        return RlzDictionary(
            self._data + bytes(extra),
            config=self._config,
            sa_algorithm=self._sa_algorithm,
            accelerated=self._accelerated,
        )


# ----------------------------------------------------------------------
# Sampling policies
# ----------------------------------------------------------------------
def sample_uniform(text: bytes, dictionary_size: int, sample_size: int) -> bytes:
    """Evenly spaced fixed-length samples across ``text`` (paper Section 3.3).

    For a collection string of length ``n`` and a target dictionary of
    ``m = dictionary_size`` bytes built from samples of ``s = sample_size``
    bytes, ``m / s`` samples are taken at offsets ``0, n/(m/s), 2n/(m/s)...``.
    When the requested dictionary is at least as large as the text, the text
    itself is returned.
    """
    n = len(text)
    if n == 0:
        raise DictionaryError("cannot sample an empty collection")
    if dictionary_size >= n:
        return bytes(text)
    num_samples = max(1, dictionary_size // sample_size)
    stride = n / num_samples
    pieces = []
    for index in range(num_samples):
        start = int(index * stride)
        end = min(n, start + sample_size)
        pieces.append(text[start:end])
    return b"".join(pieces)[:dictionary_size]


def sample_prefix(
    text: bytes,
    dictionary_size: int,
    sample_size: int,
    prefix_fraction: float,
) -> bytes:
    """Uniform sampling restricted to a prefix of the collection.

    This simulates the dynamic-update scenario of Section 3.6: the dictionary
    was built when only ``prefix_fraction`` of the collection existed, and is
    then used to compress the full collection (Table 10).
    """
    if not 0.0 < prefix_fraction <= 1.0:
        raise DictionaryError("prefix_fraction must be in (0, 1]")
    cutoff = max(1, int(len(text) * prefix_fraction))
    return sample_uniform(text[:cutoff], dictionary_size, sample_size)


def sample_random_documents(
    collection: DocumentCollection, dictionary_size: int, seed: int = 0
) -> bytes:
    """Concatenate randomly chosen whole documents up to ``dictionary_size``.

    This is the "concatenate a (random) sample of documents" formulation of
    Section 3.1; the uniform-interval policy generally covers the collection
    more evenly and is the paper's recommended method.
    """
    if len(collection) == 0:
        raise DictionaryError("cannot sample an empty collection")
    rng = random.Random(seed)
    order = list(range(len(collection)))
    rng.shuffle(order)
    pieces = []
    total = 0
    for index in order:
        content = collection[index].content
        pieces.append(content)
        total += len(content)
        if total >= dictionary_size:
            break
    return b"".join(pieces)[:dictionary_size]


def build_dictionary(
    collection: DocumentCollection,
    config: DictionaryConfig,
    sa_algorithm: str = "doubling",
    accelerated: bool = True,
) -> RlzDictionary:
    """Build an :class:`RlzDictionary` from ``collection`` per ``config``."""
    text = collection.concatenate()
    if config.policy == "uniform":
        data = sample_uniform(text, config.size, config.sample_size)
    elif config.policy == "prefix":
        data = sample_prefix(text, config.size, config.sample_size, config.prefix_fraction)
    else:  # random_documents
        data = sample_random_documents(collection, config.size, seed=config.seed)
    return RlzDictionary(
        data,
        config=config,
        sa_algorithm=sa_algorithm,
        accelerated=accelerated,
    )
