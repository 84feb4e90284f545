"""The whole-PDU fast paths in ``stack`` against the general code.

``RefRxReassembly``, ``RefReorderState``, ``ref_ack_segment`` and
``ref_build_transport_block`` are copies of the code before the fast paths
were added (``window_full()`` spelled out as the length test it was); the
transport block's write-only ``padding``, ``bearer_id`` and ``is_retx`` are
left out of the last.  Each property feeds one random operation sequence to
both versions and compares every return value and the full object state
after each step.

Two transmitter rules changed after the copies were made, and the copies
follow them: ``ref_build_transport_block`` puts a PDU in the RLC window at
its first pulled byte and bounds only the pull of a new SN, and
``ref_ack_segment`` subtracts ACKed ranges from a list of un-ACKed ranges
kept beside the window, against which the window's count of un-ACKed bytes
is checked.  The transmitter's queue and window moved into one object, and
the copy reads both from it, with the window's size as its own argument.

The receiver references are verbatim, from before ``ReorderState`` took
segments itself.  The harness applies to them the two receiver rules added
then: a segment of an SN behind ``expected_sn`` or stashed is a counted
duplicate that never reaches reassembly, and timer expiry discards the
partial ranges of the SNs it gives up.  It also maps their returns, and
the reference reassembly's ``sn -> (size, ranges)`` map, onto the new
shapes (``RxReassembly.partial`` keeps only the ranges), so the property
shows that these rules are the only change.
"""

import copy
from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from ransim import stack
from ransim.core import ModelError
from ransim.stack import (DROP_IND_BYTES, SEG_HEADER_BYTES, SN_SPACE,
                          SN_WINDOW, TB_HEADER_BYTES, Segment, TransportBlock,
                          sn_delta, sn_lt)


# ---------------------------------------------------------------- references

class RefRxReassembly:
    def __init__(self):
        self.partial = {}

    def add(self, sn, start, end, size):
        size_known, ranges = self.partial.get(sn, (size, []))
        merged = []
        new = (start, end)
        for r in sorted(ranges + [new]):
            if merged and r[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], r[1]))
            else:
                merged.append(r)
        self.partial[sn] = (size, merged)
        if merged == [(0, size)]:
            del self.partial[sn]
            return True
        return False

    def discard(self, sn):
        self.partial.pop(sn, None)


class RefReorderState:
    def __init__(self, t_reordering=20_000):
        self.expected_sn = 0
        self.stash = {}
        self.skipped = set()
        self.t_reordering = t_reordering
        self.timer_deadline = None
        self.timer_generation = 0
        self.duplicates = 0

    def _drain(self):
        delivered = []
        skipped = []
        while True:
            sn = self.expected_sn
            if sn in self.stash:
                del self.stash[sn]
                delivered.append(sn)
            elif sn in self.skipped:
                self.skipped.discard(sn)
                skipped.append(sn)
            else:
                break
            self.expected_sn = (sn + 1) % SN_SPACE
        return delivered, skipped

    def _timer_action(self, now):
        if self.stash:
            if self.timer_deadline is None:
                self.timer_deadline = now + self.t_reordering
                self.timer_generation += 1
                return "start"
            return None
        if self.timer_deadline is not None:
            self.timer_deadline = None
            self.timer_generation += 1
            return "cancel"
        return None

    def receive(self, sn, now):
        if sn == self.expected_sn:
            self.expected_sn = (sn + 1) % SN_SPACE
            delivered, skipped = self._drain()
            delivered.insert(0, sn)
            return delivered, skipped, self._timer_action(now)
        if sn_lt(sn, self.expected_sn) or sn in self.stash:
            self.duplicates += 1
            return [], [], None
        self.stash[sn] = now
        return [], [], self._timer_action(now)

    def receive_drop_indication(self, sn, now):
        if sn_lt(sn, self.expected_sn):
            return [], [], None
        self.skipped.add(sn)
        if sn == self.expected_sn:
            delivered, skipped = self._drain()
            return delivered, skipped, self._timer_action(now)
        return [], [], self._timer_action(now)

    def timer_expired(self, now):
        self.timer_deadline = None
        self.timer_generation += 1
        delivered = []
        skipped = []
        while self.stash:
            target = min(self.stash, key=lambda s: sn_delta(self.expected_sn, s))
            while self.expected_sn != target:
                if self.expected_sn in self.skipped:
                    self.skipped.discard(self.expected_sn)
                else:
                    skipped.append(self.expected_sn)
                self.expected_sn = (self.expected_sn + 1) % SN_SPACE
            del self.stash[target]
            delivered.append(target)
            self.expected_sn = (self.expected_sn + 1) % SN_SPACE
        more, _ = self._drain()
        delivered.extend(more)
        return delivered, skipped, None


def ref_ack_segment(pending, sn, start, end):
    """Subtract an ACKed range from ``pending[sn]``, the SN's un-ACKed
    ranges; True when none is left and the SN leaves ``pending``."""
    ranges = pending.get(sn)
    if ranges is None:
        return False
    remaining = []
    for s, e in ranges:
        if e <= start or s >= end:
            remaining.append((s, e))
        else:
            if s < start:
                remaining.append((s, start))
            if e > end:
                remaining.append((end, e))
    if not remaining:
        del pending[sn]
        return True
    pending[sn] = remaining
    return False


def ref_build_transport_block(tx, window_size, grant_bytes):
    tb = TransportBlock()
    budget = grant_bytes - TB_HEADER_BYTES
    if budget <= 0:
        return tb

    while tx.pending_drop_indications and budget >= DROP_IND_BYTES:
        tb.drop_indications.append(tx.pending_drop_indications.popleft())
        budget -= DROP_IND_BYTES

    while tx.retx_queue and budget > SEG_HEADER_BYTES:
        seg = tx.retx_queue[0]
        avail = budget - SEG_HEADER_BYTES
        take = min(avail, seg.end - seg.start)
        tb.segments.append(Segment(seg.sn, seg.start, seg.start + take))
        budget -= SEG_HEADER_BYTES + take
        if take == seg.end - seg.start:
            tx.retx_queue.popleft()
        else:
            seg.start += take

    q = tx.queue
    while q and budget > SEG_HEADER_BYTES:
        pdu = q[0]
        if pdu.sent == 0:  # a new SN, in the window from its first byte
            if len(tx.window) >= window_size:
                break
            tx.window[pdu.sn] = pdu
        avail = budget - SEG_HEADER_BYTES
        take = min(avail, pdu.size - pdu.sent)
        tb.segments.append(Segment(pdu.sn, pdu.sent, pdu.sent + take))
        budget -= SEG_HEADER_BYTES + take
        pdu.sent += take
        tx.bytes -= take
        if pdu.sent == pdu.size:
            q.popleft()

    tb.bytes = grant_bytes - budget if not tb.empty else 0
    return tb


# ---------------------------------------------------------------- receiver

def fields(obj):
    """Every attribute of ``obj``, whether its class has slots or not."""
    names = getattr(type(obj), "__slots__", None) or vars(obj)
    return {k: getattr(obj, k) for k in names}


def receiver_state(partial, reorder):
    state = {k: v for k, v in fields(reorder).items() if k != "reassembly"}
    # ``ReorderState.skipped`` is the empty ``()`` until its first SN.
    state["skipped"] = set(state["skipped"])
    return partial, state


def ref_partial(rx):
    """The reference's partial map without the size it stores unread."""
    return {sn: ranges for sn, (_size, ranges) in rx.partial.items()}


def ref_result(reorder, call):
    """A reference receive as ``(delivered, timer_started)``, each delivered
    SN paired with its stash time before the call."""
    stashed = dict(reorder.stash)
    delivered, _, timer = call()
    return [(sn, stashed.get(sn)) for sn in delivered], timer == "start"


def ref_segment(rx, reorder, sn, start, end, size, now):
    expected = reorder.expected_sn
    if sn != expected and (sn_lt(sn, expected) or sn in reorder.stash):
        reorder.duplicates += 1
        return [], False
    if rx.add(sn, start, end, size):
        return ref_result(reorder, lambda: reorder.receive(sn, now))
    return [], False


def ref_timer_expired(rx, reorder, now):
    stashed = dict(reorder.stash)
    delivered, lost, _ = reorder.timer_expired(now)
    for sn in lost:
        rx.discard(sn)
    return [(sn, stashed.get(sn)) for sn in delivered], lost


# An SN is drawn as an offset from the receiver's next expected SN: a
# negative offset is an old SN (a duplicate), 0 is in order, the rest
# arrive out of order.
offsets = st.sampled_from([0, 0, 0, 1, 1, 2, 3, 5, 8, -1, -3])
sizes = st.sampled_from([0, 1, 40, 100])


@st.composite
def receiver_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ["whole", "whole", "whole", "part", "drop", "expire", "arm",
             "discard"]))
        if kind == "whole":
            ops.append(("seg", draw(offsets), None, None, draw(sizes)))
        elif kind == "part":
            size = draw(sizes)
            a = draw(st.integers(0, size))
            b = draw(st.integers(a, size))
            ops.append(("seg", draw(offsets), a, b, size))
        elif kind in ("drop", "discard"):
            ops.append((kind, draw(offsets)))
        else:
            ops.append((kind,))
    return ops


@given(st.sampled_from([0, 7, SN_SPACE - 3, SN_WINDOW]), receiver_ops())
def test_reassembly_and_reordering_match_reference(first_sn, ops):
    new = stack.ReorderState(t_reordering=50)
    rx, ref = RefRxReassembly(), RefReorderState(t_reordering=50)
    new.expected_sn = ref.expected_sn = first_sn
    now = 0
    for op in ops:
        now += 10
        expected = ref.expected_sn
        kind = op[0]
        if kind == "seg":
            _, off, start, end, size = op
            sn = (expected + off) % SN_SPACE
            if start is None:
                start, end = 0, size
            got = new.segment(sn, start, end, size, now)
            want = ref_segment(rx, ref, sn, start, end, size, now)
        elif kind == "drop":
            sn = (expected + op[1]) % SN_SPACE
            got = new.receive_drop_indication(sn, now)
            want = ref_result(ref, lambda: ref.receive_drop_indication(sn, now))
        elif kind == "discard":
            sn = (expected + op[1]) % SN_SPACE
            got, want = new.reassembly.discard(sn), rx.discard(sn)
        elif kind == "expire":
            got = new.timer_expired(now)
            want = ref_timer_expired(rx, ref, now)
        elif not ref.stash:
            continue  # the runtime re-arms only while t-reordering runs
        else:
            # The runtime's reliable-mode re-arm, with SNs stashed.
            got = new.restart_timer(now)
            ref.timer_deadline = now + ref.t_reordering
            ref.timer_generation += 1
            want = None
        assert got == want, op
        assert receiver_state(new.reassembly.partial, new) \
            == receiver_state(ref_partial(rx), ref), op


# ---------------------------------------------------------------- transmitter

def window_state(tx):
    return {sn: (p.sn, p.size, p.sent, p.unacked, p.retx_count)
            for sn, p in tx.window.items()}


def tx_state(tx):
    return ([(p.sn, p.size, p.sent) for p in tx.queue], tx.bytes,
            window_state(tx),
            [(s.sn, s.start, s.end) for s in tx.retx_queue],
            list(tx.pending_drop_indications))


def tb_state(tb):
    return ([(s.sn, s.start, s.end) for s in tb.segments],
            tb.drop_indications, tb.bytes, tb.empty)


@st.composite
def ack_ops(draw):
    """PDUs entering the window and ACKs of disjoint pieces of them, the
    runtime's contract: each byte of a PDU is ACKed at most once.  Some
    pieces are never ACKed, and some ACKs name an SN not in the window."""
    ops = []
    for sn in draw(st.lists(st.integers(0, 5), max_size=6, unique=True)):
        size = draw(st.integers(1, 120))
        cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=4))
                      if size > 1 else ())
        bounds = [0, *cuts, size]
        pieces = [("ack", sn, a, b) for a, b in zip(bounds, bounds[1:])]
        pieces = draw(st.permutations(pieces))
        ops.append(("enter", sn, size))
        ops += pieces[:draw(st.integers(0, len(pieces)))]
    ops += [("ack", sn, 0, 10) for sn in draw(st.lists(st.integers(6, 8),
                                                      max_size=2))]
    # The ACKs of different PDUs may interleave; an ACK drawn before its
    # PDU enters finds no entry.
    return draw(st.permutations(ops)) if draw(st.booleans()) else ops


@given(ack_ops(), st.integers(1, 50))
# A PDU ACKed in three pieces, the middle one last.
@example([("enter", 0, 100), ("ack", 0, 0, 40), ("ack", 0, 60, 100),
          ("ack", 0, 40, 60)], 1)
def test_ack_segment_matches_reference(ops, excess):
    """The window's count of un-ACKed bytes frees a PDU exactly when the
    reference's list of un-ACKed ranges empties; then an ACK of more bytes
    than an SN has left raises."""
    rlc, pending = stack.RlcTxState(), {}
    for op in ops:
        if op[0] == "enter":
            _, sn, size = op
            rlc.window[sn] = stack.PdcpPdu(sn, size, 0)
            pending[sn] = [(0, size)]
            continue
        _, sn, start, end = op
        assert rlc.ack_segment(sn, start, end) \
            == ref_ack_segment(pending, sn, start, end), op
        assert rlc.window.keys() == pending.keys(), op
        assert {sn: p.unacked for sn, p in rlc.window.items()} \
            == {sn: sum(e - s for s, e in r) for sn, r in pending.items()}, op
    for sn, pdu in list(rlc.window.items()):
        left = pdu.unacked
        with pytest.raises(ModelError):
            rlc.ack_segment(sn, 0, left + excess)


@st.composite
def tx_setups(draw):
    """A bearer's transmitter and its window size: a window whose SNs may
    reappear in the queue (an overwritten window entry), partly sent heads
    in the window or not, queued retransmissions and drop indications, then
    a run of grants."""
    window_size = draw(st.integers(1, 6))
    tx = stack.RlcTxState()
    for sn in draw(st.lists(st.integers(0, 7), max_size=window_size)):
        tx.window[sn] = stack.PdcpPdu(sn, draw(st.integers(1, 120)), 0)
    for i, sn in enumerate(draw(st.lists(st.integers(0, 7), max_size=10))):
        pdu = stack.PdcpPdu(sn, draw(st.integers(1, 120)), 0)
        if i == 0:
            pdu.sent = draw(st.integers(0, pdu.size - 1))
            tx.bytes -= pdu.sent
            # A run keeps a partly sent head in the window; the draw also
            # puts it outside, and the window may be full without it.
            if pdu.sent and draw(st.booleans()):
                tx.window[sn] = pdu
        tx.push(pdu)
    retx = []
    for sn in draw(st.lists(st.integers(0, 7), max_size=3)):
        a = draw(st.integers(0, 100))
        retx.append(Segment(sn, a, draw(st.integers(a + 1, 120))))
    if retx:  # else the empty ``()`` it starts with
        tx.retx_queue = deque(retx)
    tx.queue_drop_indications(
        draw(st.lists(st.integers(0, SN_SPACE - 1), max_size=3)))
    grants = draw(st.lists(st.integers(0, 400), min_size=1, max_size=6))
    return tx, window_size, grants


@given(tx_setups())
def test_build_transport_block_matches_reference(setup):
    tx, window_size, grants = setup
    ref_tx = copy.deepcopy(tx)
    for grant in grants:
        tb = stack.build_transport_block(tx, window_size, grant)
        ref_tb = ref_build_transport_block(ref_tx, window_size, grant)
        assert tb_state(tb) == tb_state(ref_tb), grant
        assert tx_state(tx) == tx_state(ref_tx), grant
