"""High-level suffix array facade used by the RLZ factorizer.

:class:`SuffixArray` wraps a byte string (typically the RLZ dictionary) and
its suffix array, and exposes the two operations the paper's algorithms in
Figure 1 rely on:

* :meth:`SuffixArray.refine` — the ``Refine`` function: given an interval
  ``[lb, rb]`` of suffixes whose first ``offset`` characters match the
  pattern so far, narrow it to the sub-interval whose next character equals
  a given byte.
* :meth:`SuffixArray.longest_match` — the inner loop of ``Factor``: the
  longest prefix of a query that occurs anywhere in the indexed text,
  returned as a (position, length) pair.

There are two match paths, and they produce the identical greedy parse:

* the *reference* path follows the paper's pseudo-code: one binary-search
  refinement per matched character.  :meth:`SuffixArray.longest_match`
  always takes it, and so do whole-document parses with
  ``accelerated=False``.  It is the test oracle;
* the *greedy parse* (whole-document parses, the default): one lcp-aware
  binary search over the suffix array per factor, resuming each comparison
  at the prefix the bisection has already certified, then a lower bound
  over the match for its leftmost rank (the reference tie-break).  It is
  written twice, with one contract: the native factorize kernel
  (``repro/core/rlz_factorize.c``, loaded by :mod:`repro.core.native`),
  one C call per document with the GIL released, and its pure-Python port
  :func:`greedy_parse`, which runs where the kernel cannot be built.
  Neither builds any state beyond the int64 suffix array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .doubling import suffix_array_doubling
from .sais import sais

__all__ = ["SuffixArray", "SuffixInterval", "greedy_parse"]


def _factorize_kernel():
    """The native factorize kernel, or ``None`` (loaded on first use)."""
    from ..core import native  # deferred: repro.core imports this package

    return native.factorize_kernel()


def _factorizer_name() -> str:
    """:func:`repro.core.native.factorizer_name`, never loading the kernel."""
    from ..core import native

    return native.factorizer_name(load=False)


def _common_prefix(
    text: bytes, start: int, query: bytes, cursor: int, known: int, limit: int
) -> int:
    """Length of the common prefix of ``text[start:]`` and ``query[cursor:]``.

    Capped at ``limit``; the first ``known`` bytes are already known to
    match.  Compares growing slices; the XOR of a differing pair, read as
    big-endian integers, locates its first differing byte.
    """
    step = 8
    while known < limit:
        stop = known + step if known + step < limit else limit
        a = text[start + known : start + stop]
        b = query[cursor + known : cursor + stop]
        if a != b:
            x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            return stop - ((x.bit_length() + 7) >> 3)
        known = stop
        step <<= 1
    return known


def greedy_parse(
    text: bytes, suffix_array: np.ndarray, query: bytes
) -> Tuple[List[int], List[int]]:
    """Greedy RLZ parse of ``query`` against ``text``: a port of the kernel.

    The pure-Python twin of ``parse`` in ``repro/core/rlz_factorize.c``,
    with the same contract: ``(positions, lengths)`` lists, a copy factor
    as ``(position, length)`` and a literal as ``(byte_value, 0)``, and
    ``suffix_array`` the int64 suffix array of ``text``.  Each factor is one
    lcp-aware bisect over the whole array for the insertion point of the
    rest of the query; the longer neighbour lcp ``L`` is the match (0 gives
    a literal), and its position the leftmost rank whose suffix starts
    with those ``L`` bytes.
    """
    sa = memoryview(suffix_array)  # indexing yields plain ints
    n = len(text)
    qlen = len(query)
    positions: List[int] = []
    lengths: List[int] = []
    cursor = 0
    while cursor < qlen:
        m = qlen - cursor
        # ---- lcp-aware bisect for the insertion point ------------------
        lo, hi, llcp, rlcp = 0, n, 0, 0
        # (rank, lcp) of the ranks passed because their suffix sorts before
        # the query: the lower bound below starts after the last one that
        # falls short of the match.
        passed = []
        while lo < hi:
            mid = (lo + hi) >> 1
            p = sa[mid]
            limit = n - p if n - p < m else m
            f = llcp if llcp < rlcp else rlcp
            # Most steps differ at the first unknown byte: test it alone
            # before comparing slices.
            if f < limit and text[p + f] == query[cursor + f]:
                f = _common_prefix(text, p, query, cursor, f + 1, limit)
            if f == limit:
                before = limit < m  # a proper prefix of the query
            else:
                before = text[p + f] < query[cursor + f]
            if before:
                passed.append((mid, f))
                lo = mid + 1
                llcp = f
            else:
                hi = mid
                rlcp = f
        # llcp and rlcp are now the exact lcps of the two neighbours.
        length = llcp if llcp > rlcp else rlcp
        if length == 0:
            positions.append(query[cursor])
            lengths.append(0)
            cursor += 1
            continue
        # ---- leftmost rank whose suffix starts with the match ----------
        low = low_lcp = 0
        while passed:
            rank, lcp = passed.pop()
            if lcp < length:
                low, low_lcp = rank + 1, lcp
                break
        high = lo - 1 if llcp >= rlcp else lo  # reaches `length`
        while low < high:
            mid = (low + high) >> 1
            p = sa[mid]
            limit = n - p if n - p < length else length
            f = _common_prefix(text, p, query, cursor, low_lcp, limit)
            if f == length:
                high = mid
            else:
                low = mid + 1
                low_lcp = f
        positions.append(sa[low])
        lengths.append(length)
        cursor += length
    return positions, lengths


@dataclass(frozen=True)
class SuffixInterval:
    """An inclusive suffix-array interval ``[lb, rb]``.

    ``is_empty`` is true when the interval contains no suffixes
    (``lb > rb``), mirroring the paper's "no longer a valid interval" check.
    """

    lb: int
    rb: int

    @property
    def is_empty(self) -> bool:
        return self.lb > self.rb

    @property
    def size(self) -> int:
        return 0 if self.is_empty else self.rb - self.lb + 1


_EMPTY_INTERVAL = SuffixInterval(0, -1)


class SuffixArray:
    """Suffix array over a byte string with interval-refinement search.

    Parameters
    ----------
    text:
        The text to index (the RLZ dictionary in normal use).
    algorithm:
        ``"doubling"`` (default) uses the numpy prefix-doubling construction;
        ``"sais"`` uses the pure-Python linear-time SA-IS construction.
    accelerated:
        Parse whole documents with the greedy parse (default) instead of
        the paper's literal per-character algorithm.  The parse is
        identical either way.  The greedy parse runs in the native
        factorize kernel when it loads, else in :func:`greedy_parse`.
    """

    #: Interval sizes at or below this threshold are scanned candidate by
    #: candidate instead of refined further; with a handful of candidates the
    #: direct scan is both simpler and faster.  (Measured optimum with the
    #: first-byte prefilter in ``_scan_interval``; the chosen switch-over
    #: point never changes the parse, only which code path computes it.)
    _SCAN_THRESHOLD = 4

    def __init__(
        self,
        text: bytes,
        algorithm: str = "doubling",
        accelerated: bool = True,
    ) -> None:
        if not isinstance(text, (bytes, bytearray)):
            raise TypeError("SuffixArray requires a bytes-like text")
        self._text = bytes(text)
        self._n = len(self._text)
        if algorithm == "doubling":
            self._sa = suffix_array_doubling(self._text)
        elif algorithm == "sais":
            self._sa = np.asarray(sais(self._text), dtype=np.int64)
        else:
            raise ValueError(f"unknown suffix array algorithm: {algorithm!r}")
        self._algorithm = algorithm
        self._accelerated = bool(accelerated)

    @classmethod
    def from_precomputed(
        cls,
        text: bytes,
        suffix_array: np.ndarray,
        *,
        algorithm: str = "precomputed",
        accelerated: bool = True,
    ) -> "SuffixArray":
        """Wrap an already-built suffix array without running construction.

        This is the attach path for shared-memory workers: the parent builds
        the suffix array once, publishes it, and every worker wraps it here
        instead of re-running the O(n log n) construction.  The array is
        *borrowed*, not copied — it may be a read-only view over a
        shared-memory buffer and must stay alive as long as this object.

        ``suffix_array`` is trusted to be the suffix array of ``text``; its
        length and value range are checked.
        """
        if not isinstance(text, (bytes, bytearray)):
            raise TypeError("SuffixArray requires a bytes-like text")
        self = cls.__new__(cls)
        self._text = bytes(text)
        self._n = len(self._text)
        # The parse reads the array in place: contiguous int64, converted
        # here once (a no-op for the parent's shared-memory segment).
        sa = np.ascontiguousarray(suffix_array, dtype=np.int64)
        if len(sa) != self._n:
            raise ValueError(
                f"suffix array has {len(sa)} entries for a text of {self._n} bytes"
            )
        if self._n and (int(sa.min()) < 0 or int(sa.max()) >= self._n):
            # The kernel indexes the text with these values unchecked.
            raise ValueError(f"suffix array values outside [0, {self._n})")
        self._sa = sa
        self._algorithm = algorithm
        self._accelerated = bool(accelerated)
        return self

    def shared_state(self) -> Dict[str, np.ndarray]:
        """The numpy arrays a worker needs to attach without rebuilding.

        That is the suffix array alone, under ``"sa"``: both the native
        kernel and :func:`greedy_parse` parse over it directly.  The
        parallel pipeline copies it into a ``multiprocessing.shared_memory``
        segment, and :meth:`from_precomputed` wraps it on the other side.
        """
        return {"sa": self._sa}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def text(self) -> bytes:
        """The indexed text."""
        return self._text

    @property
    def algorithm(self) -> str:
        """Name of the construction algorithm that built this array."""
        return self._algorithm

    @property
    def accelerated(self) -> bool:
        """Whether whole-document parses run the greedy parse."""
        return self._accelerated

    def _kernel(self):
        """The native factorize kernel when it parses for this array."""
        return _factorize_kernel() if self._accelerated else None

    @property
    def array(self) -> np.ndarray:
        """The underlying suffix array as an int64 numpy array."""
        return self._sa

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> int:
        return int(self._sa[index])

    def suffix(self, rank: int, limit: Optional[int] = None) -> bytes:
        """Return the suffix with the given rank, optionally truncated."""
        start = int(self._sa[rank])
        if limit is None:
            return self._text[start:]
        return self._text[start : start + limit]

    # ------------------------------------------------------------------
    # Interval refinement (the paper's ``Refine``)
    # ------------------------------------------------------------------
    def full_interval(self) -> SuffixInterval:
        """The interval covering every suffix (the initial ``[1, len(d)]``)."""
        return SuffixInterval(0, self._n - 1) if self._n else _EMPTY_INTERVAL

    def refine(self, interval: SuffixInterval, offset: int, byte: int) -> SuffixInterval:
        """Narrow ``interval`` to suffixes whose ``offset``-th byte equals ``byte``.

        This is the ``Refine(lb, rb, j - i, x[j])`` operation from Figure 1
        of the paper: all suffixes in ``interval`` are assumed to share their
        first ``offset`` bytes with the pattern; the returned interval
        contains exactly those whose next byte equals ``byte``.  An empty
        interval is returned when no suffix matches.
        """
        if interval.is_empty:
            return _EMPTY_INTERVAL
        bounds = self._refine_bounds(interval.lb, interval.rb, offset, byte)
        if bounds is None:
            return _EMPTY_INTERVAL
        return SuffixInterval(bounds[0], bounds[1])

    def _refine_bounds(
        self, lb: int, rb: int, offset: int, byte: int
    ) -> Optional[Tuple[int, int]]:
        """:meth:`refine` on plain bounds; ``None`` marks an empty result."""
        new_lb = self._lower_bound(lb, rb, offset, byte)
        if new_lb > rb:
            return None
        pos = int(self._sa[new_lb]) + offset
        if pos >= self._n or self._text[pos] != byte:
            return None
        return new_lb, self._upper_bound(new_lb, rb, offset, byte)

    def _byte_at(self, rank: int, offset: int) -> int:
        """Byte at ``offset`` within the suffix of the given rank, or -1 past the end."""
        pos = int(self._sa[rank]) + offset
        if pos >= self._n:
            return -1
        return self._text[pos]

    def _lower_bound(self, lo: int, hi: int, offset: int, byte: int) -> int:
        """Smallest rank in ``[lo, hi]`` whose byte at ``offset`` is >= ``byte``."""
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._byte_at(mid, offset) < byte:
                lo = mid + 1
            else:
                hi = mid - 1
        return lo

    def _upper_bound(self, lo: int, hi: int, offset: int, byte: int) -> int:
        """Largest rank in ``[lo, hi]`` whose byte at ``offset`` is <= ``byte``."""
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._byte_at(mid, offset) <= byte:
                lo = mid + 1
            else:
                hi = mid - 1
        return hi

    def prepare(self) -> None:
        """Load the native factorize kernel now (e.g. before forking workers).

        The parallel encode pipeline calls this in the parent process so
        forked workers inherit the kernel mapped.  It is the only state the
        parse needs beyond the suffix array, which construction already
        produced; :func:`greedy_parse` needs nothing at all.
        """
        self._kernel()

    def acceleration_stats(self) -> Dict[str, object]:
        """Which engine parses for this array, and the bytes it parses over.

        ``engine`` is ``"native"`` (the factorize kernel is loaded),
        ``"python"`` (:func:`greedy_parse`, for want of the kernel, or the
        per-character reference with ``accelerated=False``) or
        ``"unloaded"`` (no parse has asked for the kernel yet).  Asking
        never compiles or maps the kernel.  ``suffix_array_nbytes`` is the
        int64 suffix array, the only structure either engine reads besides
        the text.
        """
        return {
            "engine": _factorizer_name() if self._accelerated else "python",
            "suffix_array_nbytes": int(self._sa.nbytes),
            "text_bytes": self._n,
        }

    def _scan_interval(
        self,
        sa: memoryview,
        lb: int,
        rb: int,
        query: bytes,
        start: int,
        matched: int,
        max_len: int,
    ) -> Tuple[int, int]:
        """Pick the longest match among the candidates of a small interval.

        All suffixes in ``[lb, rb]`` share their first ``matched`` bytes with
        ``query[start:]``; the scan extends each candidate and returns the
        best ``(position, length)``.
        """
        best_position = sa[lb]
        best_length = matched
        if matched >= max_len:
            return best_position, best_length
        text = self._text
        n = self._n
        next_byte = query[start + matched]
        for rank in range(lb, rb + 1):
            position = sa[rank]
            # Candidates that already diverge on the next byte can never beat
            # ``best_length`` (they extend by zero); skipping them avoids the
            # slice comparisons for most of the interval.
            probe = position + matched
            if probe >= n or text[probe] != next_byte:
                continue
            limit = n - position if n - position < max_len else max_len
            length = _common_prefix(text, position, query, start, matched + 1, limit)
            if length > best_length:
                best_length = length
                best_position = position
                if best_length == max_len:
                    break
        return best_position, best_length

    # ------------------------------------------------------------------
    # Longest-match search (the paper's ``Factor`` inner loop)
    # ------------------------------------------------------------------
    def longest_match(
        self, query: bytes, start: int = 0, limit: Optional[int] = None
    ) -> Tuple[int, int]:
        """Longest prefix of ``query[start:]`` that occurs in the indexed text.

        Always the per-character refinement of the paper's ``Factor`` loop
        (the reference path), whatever ``accelerated`` says: it is the
        oracle the greedy parse is tested against.

        Parameters
        ----------
        query:
            The document being factorized.
        start:
            Position in ``query`` where matching begins (the factorizer's
            current cursor ``i``); ``0 <= start <= len(query)``.
        limit:
            Optional hard cap on the match length (used to stop factors at
            document boundaries, as the paper's ``Factor`` does).

        Returns
        -------
        tuple[int, int]
            ``(position, length)`` where ``position`` is a starting offset in
            the indexed text and ``length`` the number of matching bytes.
            ``length`` is 0 when not even the first byte occurs in the text;
            ``position`` is then meaningless (callers emit a literal factor).

        Raises
        ------
        ValueError
            If ``start`` lies outside ``[0, len(query)]``.
        """
        n_query = len(query)
        if not 0 <= start <= n_query:
            raise ValueError(f"start {start} outside the query [0, {n_query}]")
        max_len = n_query - start
        if limit is not None:
            max_len = min(max_len, limit)
        if max_len <= 0 or self._n == 0:
            return (0, 0)
        return self._longest_match_refine(query, start, max_len)

    def _longest_match_refine(
        self, query: bytes, start: int, max_len: int
    ) -> Tuple[int, int]:
        """Per-character interval refinement — the paper's Factor loop.

        The bounds are carried as plain integers and the binary searches
        index a memoryview of the suffix array, so the loop allocates
        nothing per character.
        """
        sa = memoryview(self._sa)  # indexing yields plain ints
        text = self._text
        n = self._n
        scan_threshold = self._SCAN_THRESHOLD
        lb, rb, matched = 0, n - 1, 0
        while matched < max_len:
            if rb - lb + 1 <= scan_threshold:
                # Few candidates left: scanning them directly generalises the
                # ``lb = rb`` shortcut in the paper's Factor function.
                return self._scan_interval(sa, lb, rb, query, start, matched, max_len)
            byte = query[start + matched]
            # Inline lower bound over [lb, rb] at offset ``matched``.
            low, high = lb, rb
            while low <= high:
                mid = (low + high) >> 1
                pos = sa[mid] + matched
                if (text[pos] if pos < n else -1) < byte:
                    low = mid + 1
                else:
                    high = mid - 1
            if low > rb:
                break
            pos = sa[low] + matched
            if pos >= n or text[pos] != byte:
                break
            new_lb = low
            # Inline upper bound over [new_lb, rb].
            low, high = new_lb, rb
            while low <= high:
                mid = (low + high) >> 1
                pos = sa[mid] + matched
                if (text[pos] if pos < n else -1) <= byte:
                    low = mid + 1
                else:
                    high = mid - 1
            lb, rb = new_lb, high
            matched += 1
        if matched == 0:
            return (0, 0)
        return (sa[lb], matched)

    # ------------------------------------------------------------------
    # Whole-document factorization
    # ------------------------------------------------------------------
    def factorize_stream(self, query: bytes) -> Tuple[list, list]:
        """Greedy RLZ parse of ``query`` as (positions, lengths) streams.

        Literal factors are ``(byte_value, 0)`` pairs, copy factors
        ``(position, length)``.  One native kernel call when the kernel is
        loaded, else one :func:`greedy_parse` call; with
        ``accelerated=False``, one :meth:`longest_match` per factor.
        """
        if not isinstance(query, (bytes, bytearray)):
            raise TypeError("the query must be bytes-like")
        query = bytes(query)
        if self._accelerated:
            parse = self._kernel() or greedy_parse
            return parse(self._text, self._sa, query)
        positions: list = []
        lengths: list = []
        cursor = 0
        while cursor < len(query):
            position, length = self.longest_match(query, cursor)
            if length == 0:
                positions.append(query[cursor])
                lengths.append(0)
                cursor += 1
            else:
                positions.append(position)
                lengths.append(length)
                cursor += length
        return positions, lengths

    def match_stream(self, query: bytes) -> Iterator[Tuple[int, int]]:
        """Yield the greedy parse of ``query`` one factor at a time.

        Produces ``(position, length)`` copies and ``(byte_value, 0)``
        literals — the parse of calling :meth:`longest_match` at every
        cursor — from the streams of :meth:`factorize_stream`.
        """
        yield from zip(*self.factorize_stream(query))

    # ------------------------------------------------------------------
    # Pattern queries (used by tests and the dictionary statistics)
    # ------------------------------------------------------------------
    def find_all(self, pattern: bytes) -> Iterator[int]:
        """Yield every starting position of ``pattern`` in the indexed text."""
        if not pattern:
            return
        interval = self.full_interval()
        for offset, byte in enumerate(pattern):
            interval = self.refine(interval, offset, byte)
            if interval.is_empty:
                return
        for rank in range(interval.lb, interval.rb + 1):
            yield int(self._sa[rank])

    def count(self, pattern: bytes) -> int:
        """Number of occurrences of ``pattern`` in the indexed text."""
        if not pattern:
            return 0
        interval = self.full_interval()
        for offset, byte in enumerate(pattern):
            interval = self.refine(interval, offset, byte)
            if interval.is_empty:
                return 0
        return interval.size

    # ------------------------------------------------------------------
    # LCP array (used by dictionary statistics and tests)
    # ------------------------------------------------------------------
    def lcp_array(self) -> np.ndarray:
        """Longest-common-prefix array via Kasai's algorithm.

        ``lcp[i]`` is the length of the longest common prefix of the suffixes
        of ranks ``i - 1`` and ``i`` (``lcp[0]`` is 0 by convention).
        """
        n = self._n
        lcp = np.zeros(n, dtype=np.int64)
        if n == 0:
            return lcp
        rank = np.empty(n, dtype=np.int64)
        rank[self._sa] = np.arange(n, dtype=np.int64)
        text = self._text
        h = 0
        for i in range(n):
            r = rank[i]
            if r > 0:
                j = int(self._sa[r - 1])
                while i + h < n and j + h < n and text[i + h] == text[j + h]:
                    h += 1
                lcp[r] = h
                if h > 0:
                    h -= 1
            else:
                h = 0
        return lcp
