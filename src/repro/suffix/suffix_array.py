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

* the *reference* path (``accelerated=False``) follows the paper's
  pseudo-code: one binary-search refinement per matched character.  It is
  the test oracle;
* the *match engine* (default).  Whole-document parses
  (:meth:`SuffixArray.factorize_stream`, :meth:`SuffixArray.match_stream`)
  run in the native factorize kernel (``repro/core/rlz_factorize.c``,
  loaded by :mod:`repro.core.native`) when it is available: one C call per
  document over the contiguous int64 suffix array, with the GIL released.
  Otherwise, and for :meth:`SuffixArray.longest_match`, the Python engine
  resolves each factor with one lcp-aware binary search over 64-bit
  big-endian suffix keys.  A *jump-start index* maps the first
  8-byte key of every suffix to its suffix-array interval, so the search
  starts inside that interval in O(1).  Windows the keys cannot serve
  (shorter than 8 bytes, containing a zero byte, or absent from the index)
  take the reference refinement, sped up by a 256-entry first-byte
  interval table and a 4-byte jump index.

The jump-start index has two representations, chosen by text size alone.
Texts of at most ``_SMALL_TEXT_MAX`` bytes get Python hash dicts, the
fastest probe at roughly a hundred bytes per distinct key.  Larger texts get
the :class:`repro.suffix.jump_index.CompactJumpIndex`: flat numpy arrays
at ~10 bytes per distinct key, the only representation that fits the
multi-MB dictionaries the paper targets.  Neither changes the parse.  The
Python engine's keys and indexes are built lazily, on its first use, so a
process whose parses all run in the kernel never builds them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .doubling import suffix_array_doubling
from .jump_index import CompactJumpIndex
from .sais import sais

__all__ = ["SuffixArray", "SuffixInterval"]

_KEY_WIDTH = 8  # bytes folded into one uint64 key per comparison step


def _factorize_kernel():
    """The native factorize kernel, or ``None`` (loaded on first use)."""
    from ..core import native  # deferred: repro.core imports this package

    return native.factorize_kernel()


def _factorizer_name() -> str:
    """:func:`repro.core.native.factorizer_name`, never loading the kernel."""
    from ..core import native

    return native.factorizer_name(load=False)


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


def _interval_dict(keys: np.ndarray) -> Dict[int, Tuple[int, int]]:
    """Map every distinct value of the sorted ``keys`` to its ``(lb, rb)`` run."""
    n = len(keys)
    boundaries = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n])) - 1
    return {
        key: (lb, rb)
        for key, lb, rb in zip(keys[starts].tolist(), starts.tolist(), ends.tolist())
    }


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
        Use the match engine (default) instead of the paper's literal
        per-character algorithm.  The parse is identical either way.  The
        engine is the native factorize kernel when it loads, else the
        Python engine, whose jump-start index is a hash dict for texts of
        at most ``_SMALL_TEXT_MAX`` bytes and the compact numpy index above
        that.
    """

    #: Interval sizes at or below this threshold are scanned candidate by
    #: candidate instead of refined further; with a handful of candidates the
    #: direct scan is both simpler and faster.  (Measured optimum with the
    #: first-byte prefilter in ``_scan_interval``; the chosen switch-over
    #: point never changes the parse, only which code path computes it.)
    _SCAN_THRESHOLD = 4

    #: Texts at most this long get the hash-dict jump indexes (fastest
    #: probe, ~120 B per distinct key); longer texts get the compact numpy
    #: index (~10 B per distinct key).
    _SMALL_TEXT_MAX = 1 << 20

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
        self._reset_acceleration_state()

    def _reset_acceleration_state(self) -> None:
        """Initialise the lazy acceleration state (built on first search)."""
        self._position_keys: Optional[np.ndarray] = None
        self._level0_keys: Optional[np.ndarray] = None
        self._jump_index = None
        self._jump4_index = None
        self._jump_index_kind: Optional[str] = None
        self._byte_intervals: Optional[list] = None
        # array('Q')/array('q') copies of the per-position keys and the
        # suffix array: the engine's scalar reads index these.
        self._pk_scalar: Optional[array] = None
        self._sa_scalar: Optional[array] = None

    @classmethod
    def from_precomputed(
        cls,
        text: bytes,
        suffix_array: np.ndarray,
        *,
        algorithm: str = "precomputed",
        accelerated: bool = True,
        position_keys: Optional[np.ndarray] = None,
        level0_keys: Optional[np.ndarray] = None,
    ) -> "SuffixArray":
        """Wrap an already-built suffix array without running construction.

        This is the attach path for shared-memory workers: the parent builds
        the suffix array (and optionally the per-position key array and the
        level-0 keys) once, publishes the raw arrays, and every worker wraps
        them here instead of re-running the O(n log n) construction.  The
        arrays are *borrowed*, not copied — they may be read-only views over
        a shared-memory buffer and must stay alive as long as this object.

        ``suffix_array`` is trusted to be the suffix array of ``text``;
        ``position_keys``/``level0_keys`` are trusted to be the arrays
        :meth:`shared_state` exports (lengths are validated, contents are
        not).  Remaining acceleration state (byte table, jump index, scalar
        arrays) is derived lazily as usual — those passes are vectorized and
        cheap next to construction.
        """
        if not isinstance(text, (bytes, bytearray)):
            raise TypeError("SuffixArray requires a bytes-like text")
        self = cls.__new__(cls)
        self._text = bytes(text)
        self._n = len(self._text)
        # The kernel reads the array in place: contiguous int64, converted
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
        self._reset_acceleration_state()
        if position_keys is not None:
            position_keys = np.asarray(position_keys, dtype=np.uint64)
            if len(position_keys) != self._n:
                raise ValueError(
                    f"position_keys has {len(position_keys)} entries, expected {self._n}"
                )
            self._position_keys = position_keys
        if level0_keys is not None:
            level0 = np.asarray(level0_keys, dtype=np.uint64)
            if len(level0) != self._n:
                raise ValueError(
                    f"level0_keys has {len(level0)} entries for {self._n} suffixes"
                )
            self._level0_keys = level0
        return self

    def shared_state(self) -> Dict[str, np.ndarray]:
        """The numpy arrays a worker needs to attach without rebuilding.

        With the native kernel that is the suffix array alone: the kernel
        parses over it directly.  Otherwise (when acceleration is enabled)
        this builds *only* the Python engine's exportable arrays — the
        per-position key array and the level-0 keys — and returns them
        with the suffix array, exactly the arrays :meth:`from_precomputed`
        accepts.  A parent that publishes for ``spawn`` workers but never
        factorizes itself therefore skips the jump index and the scalar
        arrays; the full build, if it happens later, reuses these arrays.
        The parallel pipeline copies the result into
        ``multiprocessing.shared_memory`` segments.
        """
        state: Dict[str, np.ndarray] = {"sa": self._sa}
        if self._accelerated and self._kernel() is None:
            self._ensure_shared_arrays()
            if self._position_keys is not None:
                state["position_keys"] = self._position_keys
            if self._level0_keys is not None:
                state["level0_keys"] = self._level0_keys
        return state

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
        """Whether the match engine is enabled."""
        return self._accelerated

    def _kernel(self):
        """The native factorize kernel when it parses for this array."""
        return _factorize_kernel() if self._accelerated else None

    @property
    def jump_index_kind(self) -> Optional[str]:
        """Representation actually built: ``"dict"``, ``"compact"`` or ``None``.

        ``None`` before the first accelerated search (the index is lazy),
        for an empty text and with ``accelerated=False``.  Benchmarks
        assert on this to prove which index serves a large dictionary.
        """
        return self._jump_index_kind

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

    def _suffix_positions(self):
        """Suffix positions: the engine's ``array('q')`` when built, else numpy.

        The binary-search and candidate-scan loops are all scalar, and
        indexing an ``array('q')`` yields plain ints several times faster
        than scalar indexing of a numpy array.
        """
        return self._sa_scalar if self._sa_scalar is not None else self._sa

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

    # ------------------------------------------------------------------
    # Acceleration state (8-byte suffix keys, jump indexes, byte table)
    # ------------------------------------------------------------------
    def _ensure_shared_arrays(self) -> None:
        """Build just the per-position keys and level-0 keys.

        This is the exportable subset :meth:`shared_state` publishes — one
        vectorized shift-or pass plus one gather, no dicts or byte tables.
        Arrays injected by :meth:`from_precomputed` are kept as-is;
        :meth:`_ensure_keys` layers the rest of the acceleration state on
        top of whatever exists here.
        """
        n = self._n
        if self._position_keys is None:
            # Big-endian key of the 8 bytes at every text position, zero
            # padded past the end: eight shift-or passes over the padded
            # text.  The padding byte (0) sorts below every real byte, so
            # the keys of suffixes sharing a prefix stay sorted.
            padded = np.zeros(n + _KEY_WIDTH, dtype=np.uint8)
            padded[:n] = np.frombuffer(self._text, dtype=np.uint8)
            position_keys = np.zeros(n, dtype=np.uint64)
            for j in range(_KEY_WIDTH):
                position_keys = (position_keys << np.uint64(8)) | padded[
                    j : j + n
                ].astype(np.uint64)
            self._position_keys = position_keys
        if self._level0_keys is None:
            self._level0_keys = self._position_keys[self._sa]

    def _ensure_keys(self) -> None:
        """Build the whole acceleration state once, on the first search.

        On top of :meth:`_ensure_shared_arrays`: the first-byte interval
        table, the 8- and 4-byte jump-start indexes (falling out of the run
        boundaries of the sorted level-0 keys) and the engine's scalar
        arrays.
        """
        if self._byte_intervals is not None:
            return
        n = self._n
        self._ensure_shared_arrays()
        level0 = self._level0_keys
        # Jump-start indexes: the first 8-byte key of every suffix -> its
        # suffix-array interval, plus a 4-byte variant that jump-starts the
        # short factors the 8-byte index cannot serve.  Hash dicts probe
        # fastest but cost ~120 B per distinct key, so they serve small
        # texts; the compact numpy index (~10 B per key) serves the rest.
        if n and n <= self._SMALL_TEXT_MAX:
            self._jump_index = _interval_dict(level0)
            self._jump4_index = _interval_dict(level0 >> np.uint64(32))
            self._jump_index_kind = "dict"
        elif n:
            self._jump_index = CompactJumpIndex(level0)
            self._jump4_index = CompactJumpIndex(level0, shift=32)
            self._jump_index_kind = "compact"
        self._pk_scalar = array("Q", self._position_keys.tobytes())
        self._sa_scalar = array("q", self._sa.astype(np.int64, copy=False).tobytes())
        # First-byte interval table: refine(full, 0, b) for every byte value.
        # Built last: it marks the state complete.
        first_bytes = (level0 >> np.uint64(56)).astype(np.uint8)
        values = np.arange(256)
        lows = np.searchsorted(first_bytes, values, side="left")
        highs = np.searchsorted(first_bytes, values, side="right")
        self._byte_intervals = [
            (int(low), int(high) - 1) if high > low else None
            for low, high in zip(lows, highs)
        ]

    def prepare(self) -> None:
        """Build all acceleration state now (e.g. before forking workers).

        The parallel encode pipeline calls this in the parent process so the
        state is built once and shared copy-on-write with every forked
        worker.  With the native kernel that state is the loaded kernel and
        the contiguous int64 suffix array, which construction already
        produced; the Python engine needs its keys, jump-start index and
        scalar arrays.
        """
        if self._accelerated and self._kernel() is None:
            self._ensure_keys()

    def acceleration_stats(self) -> Dict[str, object]:
        """Size accounting for the acceleration state.

        Returns the ``engine`` that runs this array's document parses, the
        jump-index kind and entry counts plus byte totals: exact ``nbytes``
        for the numpy and ``array`` structures, an estimate for the
        dict-based index (measured ~100-150 B per distinct key, reported at
        120).  The large-dictionary benchmark records these so the memory
        model in PERFORMANCE.md stays tied to measured numbers.

        ``engine`` is ``"native"`` (the factorize kernel is loaded),
        ``"python"`` (the Python engine: no kernel, or ``accelerated=False``,
        the per-character reference) or ``"unloaded"`` (no parse has asked
        for the kernel yet).  Asking never compiles or maps the kernel.
        Only the Python engine's state is built first; otherwise its sizes
        read what an earlier Python parse left (usually 0).
        """
        engine = _factorizer_name() if self._accelerated else "python"
        if self._accelerated and engine == "python":
            self._ensure_keys()
        jump_entries = 0
        jump_nbytes = 0
        for index in (self._jump_index, self._jump4_index):
            if index is None:
                continue
            jump_entries += len(index)
            if isinstance(index, CompactJumpIndex):
                jump_nbytes += index.nbytes
            else:
                jump_nbytes += len(index) * 120  # measured dict overhead/key
        numpy_nbytes = sum(
            int(keys.nbytes)
            for keys in (self._position_keys, self._level0_keys)
            if keys is not None
        )
        scalar_nbytes = 0
        for scalar in (self._pk_scalar, self._sa_scalar):
            if scalar is not None:
                scalar_nbytes += len(scalar) * scalar.itemsize
        return {
            "engine": engine,
            "jump_index_kind": self._jump_index_kind,
            "jump_entries": jump_entries,
            "jump_nbytes": jump_nbytes,
            "numpy_nbytes": numpy_nbytes,
            "scalar_nbytes": scalar_nbytes,
            "text_bytes": self._n,
        }

    def probe_cache_info(self) -> Dict[str, int]:
        """Probe-layer counters of the compact jump index.

        All-zero when the dict-based index (small texts) or no jump index
        is active (the native engine builds none) — those paths have no
        probe cache to account for.
        """
        if isinstance(self._jump_index, CompactJumpIndex):
            return self._jump_index.probe_cache_info()
        return {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
            "batch_hits": 0,
            "batch_misses": 0,
        }

    def _extend_match(self, text_pos: int, query: bytes, query_pos: int, limit: int) -> int:
        """Length of the common prefix of ``text[text_pos:]`` and ``query[query_pos:]``.

        Capped at ``limit``.  When the per-position keys are built, the
        comparison runs 8 bytes per step: the XOR of the two 64-bit keys
        locates the first differing byte directly (``limit`` already caps
        the result at the end of the text, so the zero padding folded into
        keys near the end can never overstate the match).  Otherwise falls
        back to geometrically growing slice comparisons with bisection.
        """
        text = self._text
        limit = min(limit, self._n - text_pos)
        matched = 0
        position_keys = self._pk_scalar
        if position_keys is not None:
            from_bytes = int.from_bytes
            while limit - matched >= _KEY_WIDTH:
                query_chunk = query[query_pos + matched : query_pos + matched + _KEY_WIDTH]
                if len(query_chunk) < _KEY_WIDTH:
                    break
                xor = from_bytes(query_chunk, "big") ^ position_keys[text_pos + matched]
                if xor == 0:
                    matched += _KEY_WIDTH
                    continue
                common = (64 - xor.bit_length()) >> 3
                remaining = limit - matched
                return matched + (common if common < remaining else remaining)
            while (
                matched < limit
                and text[text_pos + matched] == query[query_pos + matched]
            ):
                matched += 1
            return matched
        chunk = 16
        while matched < limit:
            step = min(chunk, limit - matched)
            if (
                text[text_pos + matched : text_pos + matched + step]
                == query[query_pos + matched : query_pos + matched + step]
            ):
                matched += step
                chunk *= 2
                continue
            # The mismatch lies inside this chunk: bisect it.
            while step > 1:
                half = step >> 1
                if (
                    text[text_pos + matched : text_pos + matched + half]
                    == query[query_pos + matched : query_pos + matched + half]
                ):
                    matched += half
                    step -= half
                else:
                    step = half
            break
        return matched

    def _scan_interval(
        self,
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
        sa = self._suffix_positions()
        best_position = int(sa[lb])
        best_length = matched
        if matched >= max_len:
            return best_position, best_length
        text = self._text
        n = self._n
        extend = self._extend_match
        next_byte = query[start + matched]
        query_offset = start + matched
        budget = max_len - matched
        for rank in range(lb, rb + 1):
            position = int(sa[rank])
            # Candidates that already diverge on the next byte can never beat
            # ``best_length`` (they extend by zero); skipping them avoids the
            # comparisons of ``_extend_match`` for most of the interval.
            probe = position + matched
            if probe >= n or text[probe] != next_byte:
                continue
            length = matched + extend(probe, query, query_offset, budget)
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
        if self._accelerated:
            self._ensure_keys()
            if max_len >= _KEY_WIDTH:
                # Build the query keys for just the window this call may
                # touch.  Streaming callers should prefer match_stream,
                # which builds them once per document.
                qk = self._query_keys(query, start, start + max_len)
                return self._match_factor(query, start, max_len, qk, start)
        return self._longest_match_refine(query, start, max_len, 0, self._n - 1, 0)

    def _longest_match_refine(
        self,
        query: bytes,
        start: int,
        max_len: int,
        lb: int,
        rb: int,
        matched: int,
    ) -> Tuple[int, int]:
        """Per-character interval refinement — the paper's Factor loop.

        The bounds are carried as plain integers and the binary searches run
        over the engine's scalar suffix array (when built), so the loop
        allocates nothing per character.
        """
        sa = self._suffix_positions()
        text = self._text
        n = self._n
        scan_threshold = self._SCAN_THRESHOLD
        byte_intervals = self._byte_intervals
        while matched < max_len:
            if rb - lb + 1 <= scan_threshold:
                # Few candidates left: scanning them directly generalises the
                # ``lb = rb`` shortcut in the paper's Factor function.
                return self._scan_interval(lb, rb, query, start, matched, max_len)
            byte = query[start + matched]
            if matched == 0 and lb == 0 and rb == n - 1 and byte_intervals is not None:
                jump4 = self._jump4_index
                if jump4 is not None and max_len >= 4:
                    window4 = query[start : start + 4]
                    # Short-factor jump start: hash the first 4 bytes to the
                    # interval four refinements would reach.  The index is
                    # consulted only for a *full-width, zero-free* window: a
                    # sub-width window's big-endian value is indistinguishable
                    # from the zero-padded key of a suffix near the end of the
                    # text, and a zero byte in the window is ambiguous against
                    # that same padding.  (``max_len >= 4`` already implies
                    # four query bytes exist, but the length guard keeps the
                    # invariant local.)  The candidate verification below
                    # additionally rejects any padding artefact outright.
                    if len(window4) == 4 and b"\x00" not in window4:
                        hit4 = jump4.get(int.from_bytes(window4, "big"))
                        if hit4 is not None:
                            candidate = sa[hit4[0]]
                            if text[candidate : candidate + 4] == window4:
                                lb, rb = hit4
                                matched = 4
                                continue
                # Full interval at offset 0: the precomputed first-byte table
                # is exactly refine(full, 0, byte).
                hit = byte_intervals[byte]
                if hit is None:
                    break
                lb, rb = hit
                matched = 1
                continue
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
        return (int(sa[lb]), matched)

    # ------------------------------------------------------------------
    # Whole-document factorization: the match engine
    # ------------------------------------------------------------------
    #: Query offsets probed per ``CompactJumpIndex.get_batch`` call when
    #: the adaptive streamer is in the short-stride regime.
    _BATCH_PROBE_BLOCK = 2048

    #: EWMA factor stride at or below which batch probing wins.  A batched
    #: probe costs ~150 ns against ~1.5 us for a scalar memoryview probe,
    #: but batching probes *every* offset while a factor of length L skips
    #: L - 1 of them — so it only pays off in the short-factor regime.
    _BATCH_STRIDE_CUTOFF = 8.0

    def factorize_stream(self, query: bytes) -> Tuple[list, list]:
        """Greedy RLZ parse of ``query`` as (positions, lengths) streams.

        :meth:`match_stream` collected into two lists: literal factors as
        ``(byte_value, 0)`` pairs, copy factors as ``(position, length)``.
        One native kernel call when the kernel is loaded.
        """
        kernel = self._kernel()
        if kernel is not None:
            if not isinstance(query, (bytes, bytearray)):
                raise TypeError("the query must be bytes-like")
            return kernel(self._text, self._sa, bytes(query))
        positions: list = []
        lengths: list = []
        append_position = positions.append
        append_length = lengths.append
        for position, length in self.match_stream(query):
            append_position(position)
            append_length(length)
        return positions, lengths

    @staticmethod
    def _query_keys(query: bytes, start: int = 0, stop: Optional[int] = None) -> array:
        """Big-endian 8-byte keys of every position of ``query[start:stop]``.

        One vectorized shift-or pass over the zero-padded window, returned
        as an ``array('Q')`` indexed by ``position - start``.  The zero
        padding past ``stop`` mirrors the padding of the text-side keys;
        the engine's compare limits guarantee it never influences a result.
        """
        if stop is None:
            stop = len(query)
        span = stop - start
        padded = np.zeros(span + _KEY_WIDTH, dtype=np.uint8)
        if span:
            padded[:span] = np.frombuffer(
                query, dtype=np.uint8, count=span, offset=start
            )
        keys = np.zeros(span, dtype=np.uint64)
        for j in range(_KEY_WIDTH):
            keys = (keys << np.uint64(8)) | padded[j : j + span].astype(np.uint64)
        return array("Q", keys.tobytes())

    def match_stream(self, query: bytes) -> Iterator[Tuple[int, int]]:
        """Yield the greedy parse of ``query`` one factor at a time.

        Produces ``(position, length)`` copies and ``(byte_value, 0)``
        literals — the parse of calling :meth:`longest_match` at every
        cursor — as a generator, so streaming consumers (``iter_factors``)
        do not materialize both streams.

        With the native kernel the whole parse is one kernel call, and the
        factors are yielded from its result.  In the Python engine the
        per-document query keys are built once in a vectorized pass;
        each factor is then resolved by a single lcp-aware binary search
        over its jump-start interval (:meth:`_match_factor`).  When the
        jump index is compact and recent factors are short — the
        literal-heavy regime where probe cost dominates the parse —
        upcoming offsets are probed in vectorized ``get_batch`` blocks
        instead of one scalar probe per factor; the EWMA of recent factor
        strides switches the mode.
        """
        if not isinstance(query, (bytes, bytearray)):
            raise TypeError("the query must be bytes-like")
        query = bytes(query)
        kernel = self._kernel()
        if kernel is not None:
            yield from zip(*kernel(self._text, self._sa, query))
            return
        query_length = len(query)
        if not self._accelerated or self._n == 0:
            # Reference path: one per-character longest_match per factor.
            cursor = 0
            while cursor < query_length:
                position, length = self.longest_match(query, cursor)
                if length == 0:
                    yield (query[cursor], 0)
                    cursor += 1
                else:
                    yield (position, length)
                    cursor += length
            return
        if query_length == 0:
            return
        self._ensure_keys()
        qk = self._query_keys(query)
        match_factor = self._match_factor
        jump_index = self._jump_index
        batch_get = (
            jump_index.get_batch
            if isinstance(jump_index, CompactJumpIndex)
            else None
        )
        qk_np: Optional[np.ndarray] = None
        batch_lbs: Optional[array] = None
        batch_rbs: Optional[array] = None
        batch_base = batch_stop = 0
        block = self._BATCH_PROBE_BLOCK
        cutoff = self._BATCH_STRIDE_CUTOFF
        stride_ewma = 4.0 * cutoff  # start in the scalar-probe regime
        # First offset without a full 8-byte window: never worth probing.
        last_probe = query_length - _KEY_WIDTH + 1
        cursor = 0
        while cursor < query_length:
            jump_hit = None
            jump_checked = False
            if batch_get is not None and cursor < last_probe:
                if batch_lbs is not None and batch_base <= cursor < batch_stop:
                    lb = batch_lbs[cursor - batch_base]
                    jump_checked = True
                    if lb >= 0:
                        jump_hit = (lb, batch_rbs[cursor - batch_base])
                elif stride_ewma <= cutoff:
                    stop = cursor + block
                    if stop > last_probe:
                        stop = last_probe
                    if qk_np is None:
                        qk_np = np.frombuffer(qk, dtype=np.uint64)
                    lbs, rbs = batch_get(qk_np[cursor:stop])
                    batch_lbs = array("q", lbs.tobytes())
                    batch_rbs = array("q", rbs.tobytes())
                    batch_base, batch_stop = cursor, stop
                    lb = batch_lbs[0]
                    jump_checked = True
                    if lb >= 0:
                        jump_hit = (lb, batch_rbs[0])
            position, length = match_factor(
                query, cursor, query_length - cursor, qk, 0, jump_hit, jump_checked
            )
            if length == 0:
                yield (query[cursor], 0)
                cursor += 1
                stride_ewma += 0.125 * (1.0 - stride_ewma)
            else:
                yield (position, length)
                cursor += length
                stride_ewma += 0.125 * (length - stride_ewma)

    def _match_factor(
        self,
        query: bytes,
        cursor: int,
        max_len: int,
        qk: array,
        qk_off: int,
        jump_hit: Optional[Tuple[int, int]] = None,
        jump_checked: bool = False,
    ) -> Tuple[int, int]:
        """Resolve one greedy factor with a single lcp-aware binary search.

        The jump-start interval ``[lb, rb]`` already holds every suffix
        sharing the first 8 query bytes, in sorted order — so the longest
        match is achieved at a neighbour of the query's insertion point,
        and the classic llcp/rlcp bookkeeping (each comparison resumes at
        the bytes the bisection has already certified) finds it in one
        O(log interval + factor length / 8) descent instead of one level
        per 8 bytes.  The leftmost rank achieving the maximum — the reference
        path's tie-break — is recovered by galloping left over the run of
        ranks with the same lcp.

        ``qk`` holds the query keys (``array('Q')``, indexed by
        ``position - qk_off``).  ``jump_checked``/``jump_hit`` let
        :meth:`match_stream` hand in a batched probe result; otherwise the
        index is probed here.  Cold cases — short tails, zero bytes in the
        window, jump misses — are delegated to the per-character
        refinement over the full interval, so the parse stays
        byte-identical by construction.
        """
        n = self._n
        if max_len < _KEY_WIDTH:
            return self._longest_match_refine(query, cursor, max_len, 0, n - 1, 0)
        qbase = cursor - qk_off
        qk0 = qk[qbase]
        if (qk0 - 0x0101010101010101) & ~qk0 & 0x8080808080808080:
            # A zero byte in the window is ambiguous against key padding;
            # the per-character path has no such ambiguity.
            return self._longest_match_refine(query, cursor, max_len, 0, n - 1, 0)
        if not jump_checked:
            jump_hit = self._jump_index.get(qk0)
        if jump_hit is None:
            # The full 8 bytes occur nowhere: per-character refinement over
            # the full interval finds the shorter best match.
            return self._longest_match_refine(query, cursor, max_len, 0, n - 1, 0)
        pk = self._pk_scalar
        sa_arr = self._sa_scalar
        lb = jump_hit[0]
        if pk[sa_arr[lb]] != qk0:
            # Zero-padding artefact near the end of the text.
            return self._longest_match_refine(query, cursor, max_len, 0, n - 1, 0)
        rb = jump_hit[1]
        budget = max_len
        # ---- lcp-aware bisect for the query's insertion point ----------
        lo = lb
        hi = rb + 1
        llcp = rlcp = _KEY_WIDTH
        while lo < hi:
            mid = (lo + hi) >> 1
            f = llcp if llcp < rlcp else rlcp
            p = sa_arr[mid]
            limit = n - p
            if budget < limit:
                limit = budget
            cmp = 0
            while limit - f >= _KEY_WIDTH:
                a = qk[qbase + f]
                b = pk[p + f]
                if a == b:
                    f += _KEY_WIDTH
                    continue
                f += (64 - (a ^ b).bit_length()) >> 3
                cmp = 1 if b > a else -1
                break
            else:
                t = limit - f
                if t > 0:
                    sb = (8 - t) << 3
                    xq = qk[qbase + f] >> sb
                    xp = pk[p + f] >> sb
                    if xq != xp:
                        f += t - (((xq ^ xp).bit_length() + 7) >> 3)
                        cmp = 1 if xp > xq else -1
            if cmp == 0:
                # Ran to the limit: the shorter side sorts first.
                f = limit
                cmp = -1 if limit < budget else 1
            if cmp < 0:
                lo = mid + 1
                llcp = f
            else:
                hi = mid
                rlcp = f
        ip = lo
        # ---- exact lcp of the two neighbours (resumed, inline) ---------
        left_lcp = 0
        if ip > lb:
            p = sa_arr[ip - 1]
            f = llcp
            limit = n - p
            if budget < limit:
                limit = budget
            while limit - f >= _KEY_WIDTH:
                a = qk[qbase + f]
                b = pk[p + f]
                if a == b:
                    f += _KEY_WIDTH
                    continue
                f += (64 - (a ^ b).bit_length()) >> 3
                break
            else:
                t = limit - f
                if t > 0:
                    sb = (8 - t) << 3
                    x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                    if x:
                        f += t - ((x.bit_length() + 7) >> 3)
                    else:
                        f = limit
                else:
                    f = limit
            left_lcp = f
        right_lcp = 0
        if ip <= rb:
            p = sa_arr[ip]
            f = rlcp
            limit = n - p
            if budget < limit:
                limit = budget
            while limit - f >= _KEY_WIDTH:
                a = qk[qbase + f]
                b = pk[p + f]
                if a == b:
                    f += _KEY_WIDTH
                    continue
                f += (64 - (a ^ b).bit_length()) >> 3
                break
            else:
                t = limit - f
                if t > 0:
                    sb = (8 - t) << 3
                    x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                    if x:
                        f += t - ((x.bit_length() + 7) >> 3)
                    else:
                        f = limit
                else:
                    f = limit
            right_lcp = f
        # ---- leftmost rank achieving the maximum -----------------------
        if left_lcp >= right_lcp:
            length = left_lcp
            if length == _KEY_WIDTH:
                # Every rank in the interval shares exactly these 8 bytes:
                # the leftmost is lb itself.
                return (sa_arr[lb], _KEY_WIDTH)
            # Gallop left from ip - 1: the run of ranks with lcp >= length
            # ends at ip - 1 and is typically short.
            lo2 = ip - 1
            step = 1
            while True:
                probe = (ip - 1) - step
                if probe < lb:
                    low_bound = lb - 1
                    break
                p = sa_arr[probe]
                f = _KEY_WIDTH
                limit = n - p
                if length < limit:
                    limit = length
                while limit - f >= _KEY_WIDTH:
                    a = qk[qbase + f]
                    b = pk[p + f]
                    if a == b:
                        f += _KEY_WIDTH
                        continue
                    f += (64 - (a ^ b).bit_length()) >> 3
                    break
                else:
                    t = limit - f
                    if t > 0:
                        sb = (8 - t) << 3
                        x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                        if x:
                            f += t - ((x.bit_length() + 7) >> 3)
                        else:
                            f = limit
                    else:
                        f = limit
                if f >= length and limit == length:
                    lo2 = probe
                    step <<= 1
                else:
                    low_bound = probe
                    break
            # Bisect (low_bound, lo2] for the edge of the lcp-run; lo2 is
            # the leftmost rank already verified to achieve the maximum.
            while low_bound + 1 < lo2:
                mid = (low_bound + lo2 + 1) >> 1
                p = sa_arr[mid]
                f = _KEY_WIDTH
                limit = n - p
                if length < limit:
                    limit = length
                while limit - f >= _KEY_WIDTH:
                    a = qk[qbase + f]
                    b = pk[p + f]
                    if a == b:
                        f += _KEY_WIDTH
                        continue
                    f += (64 - (a ^ b).bit_length()) >> 3
                    break
                else:
                    t = limit - f
                    if t > 0:
                        sb = (8 - t) << 3
                        x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                        if x:
                            f += t - ((x.bit_length() + 7) >> 3)
                        else:
                            f = limit
                    else:
                        f = limit
                if f >= length and limit == length:
                    lo2 = mid
                else:
                    low_bound = mid
            return (sa_arr[lo2], length)
        length = right_lcp
        if length == _KEY_WIDTH:
            return (sa_arr[lb], _KEY_WIDTH)
        return (sa_arr[ip], length)

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
