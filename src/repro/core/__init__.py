"""The paper's primary contribution: relative Lempel-Ziv compression.

Public API overview:

* :class:`RlzDictionary` / :func:`build_dictionary` — dictionary sampling
  (Section 3.3);
* :class:`RlzFactorizer` — the Encode/Factor algorithms of Figure 1;
* :class:`PairEncoder` — the ZZ/ZV/UZ/UV factor-stream encodings of
  Section 3.4;
* :func:`decode_factors` / :func:`decode_pairs` — Figure 2 decoding;
* :class:`RlzCompressor` / :class:`CompressedCollection` — the end-to-end
  ``rlz`` system of Section 3.1;
* :class:`FactorStatistics`, :class:`DictionaryUsage`,
  :func:`length_histogram` — the diagnostics behind Tables 2-3 and Figure 3;
* :func:`simulate_prefix_dictionaries`, :class:`AppendOnlyUpdater` — the
  dynamic-update story of Section 3.6 / Table 10.
"""

from .compressor import (
    CompressedCollection,
    CompressedDocument,
    CompressionReport,
    RlzCompressor,
)
from .decoder import decode_factors, decode_pairs
from .dictionary import (
    DictionaryConfig,
    RlzDictionary,
    build_dictionary,
    sample_prefix,
    sample_random_documents,
    sample_uniform,
)
from .encoder import PAPER_SCHEMES, PairCodingScheme, PairEncoder
from .factor import Factor, Factorization
from .factorizer import RlzFactorizer
from .parallel import ParallelCompressor
from .pruning import PruningReport, iterative_resample, prune_dictionary
from .stats import DictionaryUsage, FactorStatistics, length_histogram
from .update import AppendOnlyUpdater, PrefixDictionaryResult, simulate_prefix_dictionaries

__all__ = [
    "AppendOnlyUpdater",
    "CompressedCollection",
    "CompressedDocument",
    "CompressionReport",
    "DictionaryConfig",
    "DictionaryUsage",
    "Factor",
    "FactorStatistics",
    "Factorization",
    "PAPER_SCHEMES",
    "PairCodingScheme",
    "PairEncoder",
    "ParallelCompressor",
    "PrefixDictionaryResult",
    "PruningReport",
    "RlzCompressor",
    "RlzDictionary",
    "RlzFactorizer",
    "build_dictionary",
    "decode_factors",
    "decode_pairs",
    "iterative_resample",
    "length_histogram",
    "prune_dictionary",
    "sample_prefix",
    "sample_random_documents",
    "sample_uniform",
    "simulate_prefix_dictionaries",
]
