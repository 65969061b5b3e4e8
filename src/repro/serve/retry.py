"""Retry policy primitives shared by the serving clients.

Three small pieces the fault-tolerance layer is built from:

* :class:`Deadline` — a monotonic-clock budget for one logical call.
  Retries, backoff sleeps and socket waits all draw from the same
  budget, and :meth:`Deadline.wire_ms` is what a request
  frame carries so the *server* can drop the work once it expires.
* :class:`RetryBudget` — a token bucket capping how many retries a
  client issues per unit time.  Per-request retry counters multiply
  under load (every request retries, so a brownout doubles or triples
  the offered load exactly when the server can least afford it); a
  shared budget makes total retry volume proportional to the refill
  rate instead of to the request rate.  When the bucket is empty the
  original error surfaces immediately — no amplification.
* :func:`full_jitter` / :func:`hinted_backoff` — the backoff sleeps.
  Full jitter (``uniform(0, delay)``) decorrelates a thundering herd of
  reconnecting clients; the hinted variant spreads sleeps around a
  server-suggested retry-after instead of guessing.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from ..errors import ConfigurationError, DeadlineExceededError

__all__ = ["Deadline", "RetryBudget", "full_jitter", "hinted_backoff"]


class Deadline:
    """A monotonic deadline for one logical call (dial + retries included).

    ``Deadline(seconds)`` starts the clock now; every layer that sleeps
    or blocks on the call's behalf asks :meth:`remaining` first, so the
    budget is end-to-end rather than per-attempt.
    """

    __slots__ = ("_at",)

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic) -> None:
        if seconds <= 0:
            raise DeadlineExceededError(f"deadline of {seconds}s is already spent")
        self._at = clock() + seconds

    @classmethod
    def from_ms(cls, deadline_ms: Optional[float]) -> Optional["Deadline"]:
        """A deadline from a millisecond budget; ``None``/0 means none."""
        if not deadline_ms:
            return None
        return cls(deadline_ms / 1000.0)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def wire_ms(self) -> int:
        """The millisecond budget a request frame carries right now.

        At least 1 — a frame is only sent while the deadline is live, and
        0 means "no deadline" on the wire.
        """
        return max(1, int(self.remaining() * 1000))

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(f"{what} deadline exceeded")


class RetryBudget:
    """Token bucket bounding a client's total retry volume.

    Each retry (connection re-dial, R_BUSY backoff, failed-exchange
    replay) spends one token; tokens refill at ``refill_rate`` per
    second up to ``capacity``.  :meth:`spend` answers whether the retry
    may proceed — a ``False`` means the caller should surface its
    current error instead of retrying.  Thread-safe, so one budget can
    be shared by every client of a cluster (that is the point: the cap
    is on the *fleet's* retry pressure, not per socket).
    """

    def __init__(
        self,
        capacity: float = 64.0,
        refill_rate: float = 16.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("retry budget capacity must be positive")
        if refill_rate < 0:
            raise ConfigurationError("retry budget refill_rate must be non-negative")
        self._capacity = float(capacity)
        self._refill_rate = float(refill_rate)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()
        self._lock = threading.Lock()
        #: Retries granted / denied since construction (observability).
        self.spent = 0
        self.denied = 0

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def refill_rate(self) -> float:
        return self._refill_rate

    def tokens(self) -> float:
        """Tokens available right now."""
        with self._lock:
            self._refill()
            return self._tokens

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        self._stamp = now
        if elapsed > 0 and self._refill_rate:
            self._tokens = min(self._capacity, self._tokens + elapsed * self._refill_rate)

    def spend(self, tokens: float = 1.0) -> bool:
        """Try to pay for one retry; ``False`` = budget exhausted, don't."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.spent += 1
                return True
            self.denied += 1
            return False


def full_jitter(delay: float, rng: Optional[random.Random] = None) -> float:
    """A full-jitter backoff sleep: ``uniform(0, delay)``.

    Simultaneous reconnects after a server restart all compute the same
    exponential delay; sleeping a uniform fraction of it spreads the
    herd across the whole window instead of synchronizing the retries.
    """
    return (rng or random).uniform(0.0, max(0.0, delay))


def hinted_backoff(
    retry_after: float, fallback: float, rng: Optional[random.Random] = None
) -> float:
    """The sleep before retrying after R_BUSY, given a server hint.

    The hint is jittered (``uniform(0.5, 1.5) x hint``) so hinted clients
    do not return in lockstep, but it only ever *lengthens* the sleep
    relative to the client's own full-jittered exponential delay: a
    lightly loaded server's hint is its queue-drain estimate, which can
    be a millisecond — retrying that fast would burn the whole retry
    allowance before a saturated gate has admitted anyone.  Taking the
    max keeps the blind schedule's escalation as the floor and lets the
    server stretch it when its queue says to stay away longer.
    """
    r = rng or random
    blind = full_jitter(fallback, r)
    if retry_after <= 0:
        return blind
    return max(blind, retry_after * r.uniform(0.5, 1.5))
