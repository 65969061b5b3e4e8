"""Load from one asyncio thread over one multiplexed connection.

Latency is measured open-loop: arrival times are drawn from a Poisson
process before a window starts and each request is launched at its
scheduled instant whether or not earlier ones have finished, so a stalled
server cannot slow the load down.  Latency runs from the *scheduled*
arrival, which charges a stall to every request queued behind it, and the
generator's own lateness (scheduling lag) is recorded per request so a
window the generator could not keep up with is marked instead of blamed on
the server.

Throughput is measured closed-loop: a fixed number of callers each send
their next request as soon as the last one is answered.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional

from spans import percentile

#: A window whose scheduling lag p99 exceeds this measured the generator,
#: not the server.
GENERATOR_LAG_LIMIT_MS = 5.0


@dataclass
class Window:
    """What one open-loop window at a fixed offered rate measured."""

    offered_rps: float
    seconds: float
    attempted: int = 0
    failed: int = 0  # errors, refusals and requests cut off unanswered
    wrong: int = 0  # answers that differ from the corpus or local ranking
    latencies: List[float] = field(default_factory=list)  # s, successes
    lags: List[float] = field(default_factory=list)  # s
    achieved_rps: float = 0.0
    first_error: Optional[str] = None

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies, 0.50) * 1e3

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies, 0.99) * 1e3

    @property
    def lag_p99_ms(self) -> float:
        return percentile(self.lags, 0.99) * 1e3

    @property
    def generator_bound(self) -> bool:
        return self.lag_p99_ms > GENERATOR_LAG_LIMIT_MS

    @property
    def achieved_ratio(self) -> float:
        return self.achieved_rps / self.offered_rps


async def open_loop(
    request: Callable[[object], Awaitable[bool]],
    pick: Callable[[random.Random], object],
    rate: float,
    seconds: float,
    rng: random.Random,
    drain_s: float,
    expected_failures: tuple,
) -> Window:
    """Offer Poisson arrivals at ``rate`` for ``seconds``.

    ``request(arg)`` performs one request and returns whether its answer
    was right; ``pick(rng)`` draws each arrival's argument.  Requests
    still unanswered ``drain_s`` after the last arrival are cancelled and
    count as failed.  Exceptions in ``expected_failures`` count as failed;
    anything else propagates.
    """
    arrivals: List[float] = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        arrivals.append(clock)
        clock += rng.expovariate(rate)
    chosen = [pick(rng) for _ in arrivals]
    window = Window(offered_rps=rate, seconds=seconds, attempted=len(arrivals))
    done_at: List[float] = []
    loop = asyncio.get_running_loop()
    start = time.monotonic() + 0.005

    async def one(index: int, due: float) -> None:
        window.lags.append(time.monotonic() - due)
        try:
            right = await request(chosen[index])
        except expected_failures as exc:
            window.failed += 1
            if window.first_error is None:
                window.first_error = f"{type(exc).__name__}: {exc}"
            return
        finished = time.monotonic()
        if not right:
            window.wrong += 1
            return
        done_at.append(finished)
        window.latencies.append(finished - due)

    tasks = []
    for index, offset in enumerate(arrivals):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, due)))
    if tasks:
        cutoff = start + seconds + drain_s - time.monotonic()
        _, pending = await asyncio.wait(tasks, timeout=max(0.0, cutoff))
        for task in pending:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        window.failed += len(pending)
    if done_at:
        window.achieved_rps = len(done_at) / max(max(done_at) - start, seconds)
    return window


@dataclass
class Saturation:
    """What one closed-loop saturation phase measured."""

    seconds: float
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    completed: int = 0  # right answers that finished inside the phase
    first_error: Optional[str] = None


async def closed_loop(
    request: Callable[[object], Awaitable[bool]],
    pick: Callable[[random.Random], object],
    concurrency: int,
    seconds: float,
    rng: random.Random,
    expected_failures: tuple,
) -> Saturation:
    """Keep ``concurrency`` requests in flight for ``seconds``.

    Each caller sends its next request as soon as the previous one is
    answered, so the server always has the same amount of work queued and
    the completion rate is its saturated throughput, with a backlog that
    cannot grow.  Requests in flight at the end are awaited and checked but
    not counted as completed.
    """
    result = Saturation(seconds)
    end = time.monotonic() + seconds

    async def caller() -> None:
        while time.monotonic() < end:
            result.attempted += 1
            try:
                right = await request(pick(rng))
            except expected_failures as exc:
                result.failed += 1
                if result.first_error is None:
                    result.first_error = f"{type(exc).__name__}: {exc}"
                continue
            if not right:
                result.wrong += 1
            elif time.monotonic() <= end:
                result.completed += 1

    await asyncio.gather(*(caller() for _ in range(concurrency)))
    return result
