"""The sans-IO client core, without sockets.

Both drivers (:class:`RlzClient` over pooled sockets, :class:`AsyncRlzClient`
over one multiplexed connection) build every request from the same specs,
classify every reply with :func:`check_reply` and take every retry
decision from a :class:`RetryState`.  These tests pin each of those
decisions on bytes and clocks alone.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ServerBusyError,
    StorageError,
    WrongShardError,
)
from repro.serve import Opcode, protocol
from repro.serve.client import (
    DOC_IDS,
    HEALTH,
    PING,
    SHARD_MAP,
    STATS,
    BusyReply,
    RetryState,
    check_reply,
    get_many_request,
    get_request,
    ingest_request,
    install_map_request,
    search_request,
    search_stats_request,
)
from repro.serve.retry import Deadline, RetryBudget

# ----------------------------------------------------------------------
# Request specs: one per call, shared by both drivers
# ----------------------------------------------------------------------
_STATS = (3, 40, {"rlz": 2})
SPECS = {
    "get": (get_request(7), Opcode.GET, protocol.pack_doc_id(7), Opcode.R_DOC),
    "get_many": (
        get_many_request([4, 4, 9]),
        Opcode.GET_MANY,
        protocol.pack_doc_ids([4, 4, 9]),
        Opcode.R_DOCS,
    ),
    "doc_ids": (DOC_IDS, Opcode.DOC_IDS, b"", Opcode.R_DOC_IDS),
    "stats": (STATS, Opcode.STATS, b"", Opcode.R_STATS),
    "health": (HEALTH, Opcode.HEALTH, b"", Opcode.R_HEALTH),
    "ping": (PING, Opcode.PING, b"", Opcode.R_PONG),
    "search": (
        search_request("rlz web", 5, 80, _STATS),
        Opcode.SEARCH,
        protocol.pack_search("rlz web", top_k=5, snippet_chars=80, global_stats=_STATS),
        Opcode.R_SEARCH,
    ),
    "search_stats": (
        search_stats_request("rlz web"),
        Opcode.SEARCH,
        protocol.pack_search("rlz web", stats_only=True),
        Opcode.R_SEARCH,
    ),
    "shard_map": (SHARD_MAP, Opcode.SHARD_MAP, b"", Opcode.R_SHARD_MAP),
    "ingest": (
        ingest_request([(1, b"one")]),
        Opcode.INGEST,
        protocol.pack_chunk([(1, b"one")]),
        Opcode.R_DOC_IDS,
    ),
    "install_shard_map": (
        install_map_request(2, ["shard0", "shard1"], 16),
        Opcode.INSTALL_MAP,
        protocol.pack_shard_map(2, ["shard0", "shard1"], 16),
        Opcode.R_SHARD_MAP,
    ),
}

#: A reply payload for each spec and what its parser must make of it.
REPLIES = {
    "get": (b"document bytes", b"document bytes"),
    "get_many": (protocol.pack_documents([b"a", b"a", b"b"]), [b"a", b"a", b"b"]),
    "doc_ids": (protocol.pack_doc_ids([9, 4]), [9, 4]),
    "stats": (protocol.pack_stats({"server_requests": 3.0}), {"server_requests": 3.0}),
    "health": (protocol.pack_health({"gov": {"ready": 1}}), {"gov": {"ready": 1}}),
    "ping": (b"", b""),
    "search": (
        protocol.pack_search_results([protocol.SearchHit(4, 1.5, b"web", 10)]),
        [protocol.SearchHit(4, 1.5, b"web", 10)],
    ),
    "search_stats": (protocol.pack_search_stats(*_STATS), _STATS),
    "shard_map": (protocol.pack_shard_map(1, ["a:1"], 8), (1, ["a:1"], 8)),
    "ingest": (protocol.pack_doc_ids([1]), [1]),
    "install_shard_map": (
        protocol.pack_shard_map(2, ["shard0", "shard1"], 16),
        (2, ["shard0", "shard1"], 16),
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_request_spec_encodes_and_parses(name):
    request, opcode, payload, expect = SPECS[name]
    assert request.opcode == opcode
    assert (request.payload, request.expect) == (payload, expect)
    body, parsed = REPLIES[name]
    assert request.parse(body) == parsed


def test_get_many_spec_rejects_a_short_reply():
    with pytest.raises(ProtocolError, match="asked for 3 documents, got 2"):
        get_many_request([1, 2, 3]).parse(protocol.pack_documents([b"a", b"b"]))


# ----------------------------------------------------------------------
# The reply classifier: one case per branch
# ----------------------------------------------------------------------
def test_reserved_id_error_raises_the_connection_level_error():
    body = protocol.pack_error_for(ProtocolError("oversized frame"))
    with pytest.raises(ProtocolError, match="oversized frame"):
        check_reply(Opcode.R_ERROR, 0, body, (5,), Opcode.R_DOC)


@pytest.mark.parametrize("sent", [(5,), {6: 0, 7: 1}], ids=["exchange", "pipeline"])
def test_reply_nobody_asked_for_breaks_correlation(sent):
    with pytest.raises(ProtocolError, match="correlation"):
        check_reply(Opcode.R_DOC, 9, b"x", sent, Opcode.R_DOC)


@pytest.mark.parametrize("sent", [(5,), {4: 0, 5: 1}], ids=["exchange", "pipeline"])
def test_expected_reply_returns_its_payload(sent):
    assert check_reply(Opcode.R_DOC, 5, b"document", sent, Opcode.R_DOC) == b"document"


def test_r_timeout_is_a_deadline_error():
    with pytest.raises(DeadlineExceededError, match="expired in the queue"):
        check_reply(Opcode.R_TIMEOUT, 5, b"expired in the queue", (5,), Opcode.R_DOC)


def test_r_busy_carries_the_retry_after_hint():
    with pytest.raises(BusyReply) as caught:
        check_reply(Opcode.R_BUSY, 5, protocol.pack_busy(250, 3), (5,), Opcode.R_DOC)
    assert caught.value.retry_after == pytest.approx(0.25)
    assert isinstance(caught.value, ServerBusyError)


def test_r_wrong_shard_carries_the_servers_epoch():
    body = protocol.pack_wrong_shard(7, 42)
    with pytest.raises(WrongShardError, match="document 42") as caught:
        check_reply(Opcode.R_WRONG_SHARD, 5, body, (5,), Opcode.R_DOC)
    assert caught.value.epoch == 7


def test_r_error_reraises_the_transported_error():
    body = protocol.pack_error_for(StorageError("no document 12"))
    with pytest.raises(StorageError, match="no document 12"):
        check_reply(Opcode.R_ERROR, 5, body, (5,), Opcode.R_DOC)


def test_unexpected_opcode_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="expected r_doc, got r_pong"):
        check_reply(Opcode.R_PONG, 5, b"", (5,), Opcode.R_DOC)


# ----------------------------------------------------------------------
# The retry state: one case per decision
# ----------------------------------------------------------------------
def _state(retries=2, busy_retries=2, budget=None, deadline=None, delay=0.01):
    budget = budget if budget is not None else RetryBudget()
    return RetryState(retries, busy_retries, delay, budget, deadline)


def test_busy_within_busy_retries_sleeps_on_the_hint_and_spends_the_budget():
    budget = RetryBudget(capacity=8, refill_rate=0.0)
    state = _state(busy_retries=2, budget=budget)
    for _ in range(2):
        # The hint is jittered to 0.5-1.5x and only ever lengthens the
        # client's own (tiny) backoff.
        assert 0.1 <= state.on_busy(BusyReply(0.2)) <= 0.3
    assert budget.spent == 2


def test_busy_past_busy_retries_raises():
    state = _state(busy_retries=1)
    state.on_busy(BusyReply(0.0))
    with pytest.raises(ServerBusyError, match="still busy after 1 retries"):
        state.on_busy(BusyReply(0.0))


def test_busy_with_the_budget_exhausted_raises():
    state = _state(busy_retries=50, budget=RetryBudget(capacity=1, refill_rate=0.0))
    state.on_busy(BusyReply(0.0))
    with pytest.raises(ServerBusyError, match="retry budget is exhausted"):
        state.on_busy(BusyReply(0.0))


def test_connection_error_with_the_budget_exhausted_reraises_it():
    state = _state(retries=5, budget=RetryBudget(capacity=1, refill_rate=0.0))
    state.on_connection_error(ConnectionError("reset"))
    error = ConnectionError("reset again")
    with pytest.raises(ConnectionError) as caught:
        state.on_connection_error(error)
    assert caught.value is error


def test_connection_retry_on_the_last_attempt_reraises():
    state = _state(retries=2, delay=0.01)
    assert 0.0 <= state.on_connection_error(ConnectionError("first")) <= 0.01
    # Full jitter over a doubled delay.
    assert 0.0 <= state.on_connection_error(ConnectionError("second")) <= 0.02
    last = ConnectionError("third")
    with pytest.raises(ConnectionError) as caught:
        state.on_connection_error(last)
    assert caught.value is last


def test_deadline_expiring_mid_backoff_raises():
    # A 1 s hint sleeps at least 0.5 s: past a 50 ms deadline.
    state = _state(deadline=Deadline(0.05))
    with pytest.raises(DeadlineExceededError, match="backoff"):
        state.on_busy(BusyReply(1.0))


def test_spent_deadline_stops_the_retry_and_the_next_send():
    state = _state(deadline=Deadline(0.01))
    time.sleep(0.02)
    with pytest.raises(DeadlineExceededError):
        state.on_connection_error(ConnectionError("reset"))
    with pytest.raises(DeadlineExceededError):
        state.wire_ms()
    with pytest.raises(DeadlineExceededError):
        state.wait(30.0)


def test_socket_waits_are_cut_to_the_deadline():
    assert _state().wait(30.0) == 30.0
    assert _state().wire_ms() == 0  # no deadline rides on the wire
    state = _state(deadline=Deadline(5.0))
    assert 4.0 < state.wait(30.0) <= 5.0
    assert 4000 < state.wire_ms() <= 5000


def test_a_timeout_is_a_deadline_error_only_once_the_deadline_is_spent():
    _state().check_timeout()  # no deadline: the caller re-raises the timeout
    _state(deadline=Deadline(5.0)).check_timeout()
    spent = _state(deadline=Deadline(0.01))
    time.sleep(0.02)
    with pytest.raises(DeadlineExceededError):
        spent.check_timeout()


def test_renew_resets_the_counters_and_keeps_the_deadline():
    deadline = Deadline(5.0)
    state = _state(busy_retries=1, deadline=deadline)
    state.on_busy(BusyReply(0.0))
    fresh = state.renew()
    assert fresh.deadline is deadline
    fresh.on_busy(BusyReply(0.0))  # its own busy allowance
    with pytest.raises(ServerBusyError):
        state.on_busy(BusyReply(0.0))
