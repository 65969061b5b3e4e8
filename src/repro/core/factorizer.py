"""Relative Lempel-Ziv factorization (the ``Encode``/``Factor`` algorithms).

This module is a faithful implementation of Figure 1 of the paper: documents
are parsed greedily into factors, where each factor is the longest prefix of
the remaining text that occurs in the dictionary (found by refining an
interval of the dictionary's suffix array), or a single literal character
when the first character does not occur in the dictionary at all.

Decoding (Figure 2) is in :mod:`repro.core.decoder`.

Performance note: the literal pseudo-code performs one binary-search
refinement per matched character.  By default the parse instead runs the
greedy parse of :class:`repro.suffix.SuffixArray` — one lcp-aware binary
search per factor, in the native factorize kernel or its pure-Python port.
The parse produced is identical (ties resolve to the leftmost suffix-array
rank, where the refinement ends), and the ablation benchmark
(``bench_ablation_acceleration``) verifies this while measuring the speed
difference.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from ..errors import FactorizationError
from .dictionary import RlzDictionary
from .factor import Factor, Factorization

__all__ = ["RlzFactorizer"]


class RlzFactorizer:
    """Parse documents into RLZ factors relative to a fixed dictionary."""

    def __init__(self, dictionary: RlzDictionary) -> None:
        self._dictionary = dictionary
        # Touch the suffix array eagerly so the construction cost is paid at
        # factorizer-creation time rather than inside the first document.
        self._suffix_array = dictionary.suffix_array

    @property
    def dictionary(self) -> RlzDictionary:
        """The dictionary this factorizer parses against."""
        return self._dictionary

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def factorize(self, text: bytes) -> Factorization:
        """Compute the RLZ factorization of ``text`` (the paper's ``Encode``).

        The document is parsed greedily left to right.  Because the library
        factorizes each document separately (the compressor calls this once
        per document), the paper's "stop at a document boundary" rule is
        implicit: a factor can never span two documents.
        """
        if not isinstance(text, (bytes, bytearray)):
            raise FactorizationError("factorize expects a bytes-like document")
        return Factorization(list(self.iter_factors(bytes(text))))

    def iter_factors(self, text: bytes) -> Iterator[Factor]:
        """Yield factors of ``text`` one at a time (streaming form of ``Encode``).

        Runs on :meth:`repro.suffix.SuffixArray.match_stream`, the same
        parse as :meth:`factorize_streams`.
        """
        for position, length in self._suffix_array.match_stream(text):
            if length == 0:
                # The character does not occur in the dictionary: the pair
                # carries the byte value itself.
                yield Factor.literal(position)
            else:
                yield Factor.copy(position, length)

    def factorize_streams(self, text: bytes) -> Tuple[List[int], List[int]]:
        """The parse of ``text`` as parallel (positions, lengths) streams.

        This is the hot-path form of :meth:`factorize`: it produces exactly
        the streams the pair encoders consume without materialising a
        :class:`Factor` object per factor.  ``factorize(text)`` and
        ``factorize_streams(text)`` always describe the identical parse.
        """
        if not isinstance(text, (bytes, bytearray)):
            raise FactorizationError("factorize expects a bytes-like document")
        return self._suffix_array.factorize_stream(bytes(text))

    def factorize_many(
        self,
        documents: Iterable[bytes],
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        share_memory: Optional[bool] = None,
    ) -> List[Factorization]:
        """Factorize an iterable of documents, in order.

        With ``workers`` greater than 1 the documents are parsed by a
        :class:`repro.core.parallel.ParallelCompressor` pool sharing this
        factorizer's dictionary; the result is identical to the serial path.
        ``start_method`` and ``share_memory`` configure the pool exactly as
        on :class:`ParallelCompressor` (shared-memory dictionary attachment
        for ``spawn`` workers).
        """
        documents = list(documents)
        if workers is not None and workers != 1 and len(documents) > 1:
            from .parallel import ParallelCompressor

            pipeline = ParallelCompressor(
                self._dictionary,
                workers=workers,
                start_method=start_method,
                share_memory=share_memory,
            )
            return [
                Factorization(
                    [
                        Factor(position=position, length=length)
                        for position, length in zip(positions, lengths)
                    ]
                )
                for positions, lengths in pipeline.factorize_documents(documents)
            ]
        return [self.factorize(document) for document in documents]
