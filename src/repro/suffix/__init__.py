"""Suffix array substrate: construction algorithms and search facade.

The RLZ factorization (Section 3.2 of the paper) is driven entirely by
pattern matching over the suffix array of the dictionary.  This package
provides:

* :func:`repro.suffix.sais.sais` — linear-time SA-IS construction
  (pure-Python reference implementation);
* :func:`repro.suffix.doubling.suffix_array_doubling` — numpy-vectorised
  prefix-doubling construction (the default for large dictionaries);
* :class:`repro.suffix.suffix_array.SuffixArray` — the facade used by the
  factorizer, exposing interval refinement, longest-match search and the
  whole-document greedy parse (the native factorize kernel, or its
  pure-Python port :func:`repro.suffix.suffix_array.greedy_parse`);
* verification helpers in :mod:`repro.suffix.verify`.
"""

from .doubling import suffix_array_doubling
from .sais import sais
from .suffix_array import SuffixArray, SuffixInterval
from .verify import is_valid_suffix_array, naive_suffix_array

__all__ = [
    "SuffixArray",
    "SuffixInterval",
    "is_valid_suffix_array",
    "naive_suffix_array",
    "sais",
    "suffix_array_doubling",
]
