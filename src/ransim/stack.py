"""Simplified 6G user-plane stack.

PDCP is buffer-free: sequence numbering and ciphering happen at packet
arrival, after which the PDU waits in the queue of its bearer's one
transmitter, ``RlcTxState``.  That object also holds the queue's unsent byte
count, the RLC window, the queued retransmissions and the pending drop
indications, and it alone answers what the bearer has to send
(``has_data``, ``control_bytes``), what it holds (``held``) and what a
release drops (``release``).  AQM works on head-of-queue sojourn there; front
drops are announced to the receiver through an L2 drop indication carried in
the next transport block, which closes the SN gap without waiting for the
reordering timer.  HARQ feedback, when configured reliable, doubles as the
RLC ACK/NACK; otherwise ``RlcTxState.apply_status`` applies the receiver's
``ReorderState.status_report``.

The RLC window has one rule: a PDU is in it from its first pulled byte until
a count of its un-ACKed bytes reaches zero, and its size bounds only the pull
of a new SN.  The count is exact, as each byte is ACKed once at most: by its
TB's HARQ ACK (a failed or flushed TB gets none before its bytes are resent),
or, in the baseline, by a status report, which ACKs whole PDUs.  Queued
retransmissions and a partly pulled head exist only for an SN in the window:
``RlcTxState.remove``, its one other exit (status ACK, give-up, t-reordering
loss), takes all three at once.

A ``HarqProcess`` is one transport block in flight in one of its UE's HARQ
slots, from its first transmission until HARQ acknowledges or gives it up;
a process whose slot no longer holds it is stale.

A bearer that never sends costs its counters, not containers: the
transmitter's queue, ``retx_queue`` and ``pending_drop_indications`` and
``ReorderState.skipped`` start as the empty tuple ``()``, which every read
(``len``, ``in``, iteration, truth) takes as empty.  Each writer appends and
creates the real container on the ``AttributeError`` that ``()`` raises, so
a busy bearer pays nothing per write; ``RlcTxState.release`` puts ``()``
back.

A bearer's receiver is one ``ReorderState`` holding its ``RxReassembly``.
Receiving returns ``(delivered, timer_started)`` and t-reordering expiry
``(delivered, lost)``, where ``delivered`` lists ``(sn, stashed_at)`` in SN
order (``stashed_at`` is None for an SN delivered on arrival).
t-reordering runs exactly while SNs wait in the stash.
"""

import hashlib
import random
from collections import deque
from dataclasses import dataclass

from .core import ModelError

SN_SPACE = 4096
SN_WINDOW = SN_SPACE // 2

TB_HEADER_BYTES = 2
SEG_HEADER_BYTES = 4
DROP_IND_BYTES = 3


def sn_delta(a, b):
    """Forward distance from a to b modulo the SN space."""
    return (b - a) % SN_SPACE


def sn_lt(a, b):
    """True if a precedes b within the half-space reordering window."""
    d = sn_delta(a, b)
    return 0 < d < SN_WINDOW


def keystream(key, sn, length):
    """Pseudo-random byte stream over (key, sn); not cryptographic strength."""
    seed = hashlib.sha256(key + sn.to_bytes(4, "big")).digest()
    return random.Random(int.from_bytes(seed[:8], "big")).randbytes(length)


def cipher(payload, key, sn):
    """XOR the payload with keystream(key, sn); an involution."""
    if not payload:
        return b""
    ks = keystream(key, sn, len(payload))
    n = len(payload)
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(ks, "big")
    ).to_bytes(n, "big")


@dataclass(slots=True)
class Bearer:
    id: str
    ue: str
    slice: str
    latency_budget: int  # us, class upper bound used for urgency
    qos_class: str = "Moderate"
    key: bytes = b"\x00" * 16
    ecn_capable: bool = False
    tx_sn_next: int = 0


class PdcpPdu:
    __slots__ = ("sn", "size", "arrival_time", "payload", "sent", "ce_marked",
                 "unacked", "retx_count")

    def __init__(self, sn, size, arrival_time, payload=None):
        self.sn = sn
        self.size = size
        self.arrival_time = arrival_time
        self.payload = payload
        self.sent = 0  # bytes already pulled into transport blocks
        self.ce_marked = False
        self.unacked = size  # bytes not yet ACKed, read in the RLC window
        self.retx_count = 0  # times queued for RLC retransmission

    def __repr__(self):
        return f"PdcpPdu(sn={self.sn}, size={self.size})"


@dataclass
class AqmState:
    mark_threshold: int = 1_000  # us head sojourn before CE mark
    drop_threshold: int = 50_000  # us head sojourn before front drop


def pdcp_preprocess(sdu_size, bearer, now, payload=None):
    """Assign the next SN and cipher; returns the PDU."""
    sn = bearer.tx_sn_next
    bearer.tx_sn_next = (sn + 1) % SN_SPACE
    ciphered = cipher(payload, bearer.key, sn) if payload is not None else None
    return PdcpPdu(sn, sdu_size, now, ciphered)


def aqm_inspect(tx, aqm, now, ecn_capable):
    """Head-sojourn step AQM on ``tx``'s queue; returns what it did.

    ECN-capable (ECT(1)) traffic gets a CE mark above the mark threshold,
    and the result says whether the head was marked now; classic traffic
    loses the head PDU above the drop threshold, and the result lists the
    dropped SNs.  Partially transmitted heads are never dropped (their bytes
    are already committed to the air interface).
    """
    q = tx.queue
    if ecn_capable:
        if q:
            head = q[0]
            if now - head.arrival_time > aqm.mark_threshold and not head.ce_marked:
                head.ce_marked = True
                return True
        return False
    dropped = []
    while q:
        head = q[0]
        if now - head.arrival_time <= aqm.drop_threshold or head.sent > 0:
            break
        q.popleft()
        tx.bytes -= head.size
        dropped.append(head.sn)
    return dropped


class Segment:
    __slots__ = ("sn", "start", "end")

    def __init__(self, sn, start, end):
        self.sn = sn
        self.start = start
        self.end = end

    def __repr__(self):
        return f"Seg(sn={self.sn}, {self.start}..{self.end})"


class TransportBlock:
    __slots__ = ("segments", "drop_indications", "bytes")

    def __init__(self):
        self.segments = []
        self.drop_indications = []
        self.bytes = 0

    @property
    def empty(self):
        return not self.segments and not self.drop_indications


class RlcTxState:
    """A bearer's one transmitter: the queue of PDUs awaiting their first
    transmission and its count of unsent bytes, the RLC AM window, and the
    retransmissions and drop indications awaiting a grant."""

    __slots__ = ("queue", "bytes", "window", "max_retx", "retx_queue",
                 "pending_drop_indications")

    def __init__(self, max_retx=None):
        self.queue = ()  # PdcpPdu, a deque from the first push
        self.bytes = 0  # the queue's bytes not yet pulled
        self.window = {}  # sn -> PdcpPdu, from its first pulled byte
        self.max_retx = max_retx  # None = unlimited
        self.retx_queue = ()  # Segment, awaiting a grant
        self.pending_drop_indications = ()  # SNs, awaiting a grant

    def push(self, pdu):
        try:
            self.queue.append(pdu)
        except AttributeError:  # the first push
            self.queue = deque((pdu,))
        self.bytes += pdu.size

    def has_data(self):
        """Anything to send: new data, retransmissions or drop indications."""
        return bool(self.queue or self.retx_queue
                    or self.pending_drop_indications)

    def control_bytes(self):
        """Drop-indication and retransmission bytes, headers included."""
        extra = len(self.pending_drop_indications) * DROP_IND_BYTES
        if self.retx_queue:
            extra += sum(s.end - s.start + SEG_HEADER_BYTES
                         for s in self.retx_queue)
        return extra

    def held(self):
        """PDUs held in the window and the queue, a partly pulled head once."""
        window, queue = self.window, self.queue
        n = len(window) + len(queue)
        if queue and window.get(queue[0].sn) is queue[0]:
            n -= 1
        return n

    def release(self):
        """Drop everything held and queued."""
        self.queue = ()
        self.bytes = 0
        self.window.clear()
        self.retx_queue = ()
        self.pending_drop_indications = ()

    def ack_segment(self, sn, start, end):
        """ACK a segment's bytes; True if it frees the SN's window entry."""
        pdu = self.window.get(sn)
        if pdu is None:
            return False  # given up or discarded since
        pdu.unacked -= end - start
        if pdu.unacked > 0:
            return False
        if pdu.unacked < 0:
            raise ModelError(f"SN {sn} ACKed {-pdu.unacked} bytes more "
                             f"than its {pdu.size}")
        del self.window[sn]
        return True

    def remove(self, sn):
        """Take ``sn``, if in the window, out of it with its queued
        retransmissions and, as the partly pulled head, out of the queue."""
        pdu = self.window.pop(sn, None)
        if pdu is not None:
            if self.retx_queue:
                self.retx_queue = deque(s for s in self.retx_queue
                                        if s.sn != sn)
            q = self.queue
            if q and q[0] is pdu:
                q.popleft()
                self.bytes -= pdu.size - pdu.sent

    def queue_retx(self, segments):
        """Queue segments for retransmission; returns SNs abandoned at max_retx."""
        abandoned = []
        for seg in segments:
            pdu = self.window.get(seg.sn)
            if pdu is None:
                continue
            pdu.retx_count += 1
            if self.max_retx is not None and pdu.retx_count > self.max_retx:
                self.remove(seg.sn)
                abandoned.append(seg.sn)
                continue
            queued = Segment(seg.sn, seg.start, seg.end)
            try:
                self.retx_queue.append(queued)
            except AttributeError:  # the first retransmission
                self.retx_queue = deque((queued,))
        return abandoned

    def queue_drop_indications(self, sns):
        """Queue an indication of each dropped SN in ``sns``."""
        try:
            self.pending_drop_indications.extend(sns)
        except AttributeError:  # the first drop
            self.pending_drop_indications = deque(sns)

    def apply_status(self, ack_point, missing):
        """ACK every SN before ``ack_point`` and queue each ``missing`` one
        not queued yet whole; returns the SNs abandoned."""
        window = self.window
        for sn in [sn for sn in window if sn_lt(sn, ack_point)]:
            self.remove(sn)
        queued = {s.sn for s in self.retx_queue}
        return self.queue_retx([Segment(sn, 0, window[sn].size)
                                for sn in missing
                                if sn in window and sn not in queued])


def build_transport_block(tx, window_size, grant_bytes):
    """Fill a grant with RLC control, retransmissions, then new head-of-queue data.

    Drop indications ride first (fastest congestion indication), then queued
    retransmission segments, then new data pulled from the queue head with
    byte-level segmentation.  A PDU enters the retransmission window when
    its first byte is pulled and leaves it only on RLC ACK of all its bytes
    (or when given up); a window of ``window_size`` SNs stops only the pull
    of a new SN, so a partly pulled head is always continued.  The TB is
    empty when the grant fits no header, or when the window is full and
    nothing is queued for retransmission or partly pulled; the caller drops
    an empty TB without counting it.
    """
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
    segments = tb.segments
    window = tx.window
    while q and budget > SEG_HEADER_BYTES:
        pdu = q[0]
        sent = pdu.sent
        if not sent:
            # The window test stays per new SN: a pulled SN may overwrite an
            # entry still in the window, so a running count would drift.
            if len(window) >= window_size:
                break
            window[pdu.sn] = pdu
        take = min(budget - SEG_HEADER_BYTES, pdu.size - sent)
        segments.append(Segment(pdu.sn, sent, sent + take))
        budget -= SEG_HEADER_BYTES + take
        pdu.sent = sent = sent + take
        tx.bytes -= take
        if sent == pdu.size:
            q.popleft()

    if segments or tb.drop_indications:
        tb.bytes = grant_bytes - budget
    return tb


# harq_on_feedback outcomes
HARQ_ACKED = "acked"
HARQ_RETRANSMIT = "retransmit"
HARQ_FAILED = "failed"


class HarqProcess:
    """One TB in flight, held in slot ``slot`` of its UE until HARQ
    releases it; a new TB gets a new process.  ``pool`` and ``prbs`` are the
    resources each (re)transmission takes, ``ctx`` the runtime's bearer."""

    __slots__ = ("tb", "tx_count", "slot", "pool", "prbs", "ctx")

    def __init__(self, tb, slot, pool, prbs, ctx):
        self.tb = tb
        self.tx_count = 1
        self.slot = slot
        self.pool = pool
        self.prbs = prbs
        self.ctx = ctx


def harq_on_feedback(process, ack, max_tx):
    """Advance a process on (possibly corrupted) feedback.

    ACK ends it.  NACK retransmits until ``max_tx`` transmissions, after
    which the TB has failed; the caller decides whether its segments go
    straight to RLC retransmission (reliable mode) or RLC must discover the
    loss itself via status reporting.
    """
    if ack:
        return HARQ_ACKED
    if process.tx_count < max_tx:
        process.tx_count += 1
        return HARQ_RETRANSMIT
    return HARQ_FAILED


class RxReassembly:
    """Receiver-side per-SN byte-range collection until PDUs complete."""

    __slots__ = ("partial",)

    def __init__(self):
        self.partial = {}  # sn -> merged list of (start, end)

    def add(self, sn, start, end, size):
        """Returns True when the PDU just became complete."""
        if start == 0 and end == size and sn not in self.partial:
            return True  # a whole PDU in one segment
        merged = []
        for r in sorted(self.partial.get(sn, []) + [(start, end)]):
            if merged and r[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], r[1]))
            else:
                merged.append(r)
        if merged == [(0, size)]:
            self.partial.pop(sn, None)
            return True
        self.partial[sn] = merged
        return False

    def discard(self, sn):
        self.partial.pop(sn, None)


class ReorderState:
    """PDCP receiver: reassembly, in-order delivery, t_reordering and
    drop-indication gaps.  ``timer_started`` asks the caller to schedule
    ``timer_deadline`` under ``timer_generation``.  As in TS 38.323 5.2.2,
    a segment of an SN behind ``expected_sn`` or stashed is a duplicate, and
    expiry forgets the partial PDUs of the SNs it gives up."""

    __slots__ = ("expected_sn", "stash", "skipped", "reassembly",
                 "t_reordering", "timer_deadline", "timer_generation",
                 "duplicates")

    def __init__(self, t_reordering=20_000):
        self.expected_sn = 0
        self.stash = {}  # sn -> receive time
        self.skipped = ()  # SNs announced dropped (gap closed, no wait)
        self.reassembly = RxReassembly()
        self.t_reordering = t_reordering
        self.timer_deadline = None
        self.timer_generation = 0
        self.duplicates = 0

    def _drain(self, delivered):
        """Advance expected_sn through stashed and skipped SNs, appending
        the stashed ones to ``delivered``; returns it."""
        sn = self.expected_sn
        while True:
            if sn in self.stash:
                delivered.append((sn, self.stash.pop(sn)))
            elif sn in self.skipped:
                self.skipped.discard(sn)
            else:
                break
            sn = (sn + 1) % SN_SPACE
        self.expected_sn = sn
        return delivered

    def restart_timer(self, now):
        """Arm t-reordering from ``now``; an earlier arming is void."""
        self.timer_deadline = now + self.t_reordering
        self.timer_generation += 1

    def _update_timer(self, now):
        """Run t-reordering while SNs wait in the stash; True if it started."""
        if self.stash and self.timer_deadline is None:
            self.restart_timer(now)
            return True
        if not self.stash and self.timer_deadline is not None:
            self.timer_deadline = None
            self.timer_generation += 1
        return False

    def segment(self, sn, start, end, size, now):
        """Take one received segment of a PDU of ``size`` bytes; a duplicate
        is counted and never reaches reassembly."""
        if sn != self.expected_sn \
                and (sn_lt(sn, self.expected_sn) or sn in self.stash):
            self.duplicates += 1
            return [], False
        if self.reassembly.add(sn, start, end, size):
            return self.receive(sn, now)
        return [], False

    def receive(self, sn, now):
        """Process a completed PDU that ``segment`` found no duplicate."""
        if sn != self.expected_sn:
            self.stash[sn] = now
            return [], self._update_timer(now)
        self.expected_sn = (sn + 1) % SN_SPACE
        if self.stash or self.skipped:
            return self._drain([(sn, None)]), self._update_timer(now)
        # Nothing to drain, and t-reordering runs only while SNs are stashed.
        return [(sn, None)], False

    def receive_drop_indication(self, sn, now):
        """Close the SN gap at sn."""
        if sn_lt(sn, self.expected_sn):
            return [], False
        try:
            self.skipped.add(sn)  # drained at once when it is expected_sn
        except AttributeError:  # the first drop indication
            self.skipped = {sn}
        return self._drain([]), self._update_timer(now)

    def timer_expired(self, now):
        """Deliver everything stashed, giving up the SNs still missing."""
        self.timer_deadline = None
        self.timer_generation += 1
        delivered = []
        lost = []
        sn = self.expected_sn
        while self.stash:
            # Closest stashed SN ahead of sn in modular order.
            target = min(self.stash, key=lambda s: sn_delta(sn, s))
            while sn != target:
                if sn in self.skipped:
                    self.skipped.discard(sn)
                else:
                    lost.append(sn)
                sn = (sn + 1) % SN_SPACE
            delivered.append((sn, self.stash.pop(sn)))
            sn = (sn + 1) % SN_SPACE
        self.expected_sn = sn
        for sn in lost:
            self.reassembly.discard(sn)
        # Anything the drop indications already closed at the frontier; those
        # SNs were already accounted for at the AQM drop, so they are not
        # reported as lost here.
        return self._drain(delivered), lost

    def status_report(self, limit=16):
        """``(ack_point, missing)``: up to ``limit`` SNs before the furthest
        stashed one of which nothing was received or announced dropped."""
        expected = self.expected_sn
        missing = []
        if self.stash:
            horizon = max(self.stash, key=lambda s: sn_delta(expected, s))
            sn = expected
            while sn != horizon and len(missing) < limit:
                if sn not in self.stash and sn not in self.skipped \
                        and sn not in self.reassembly.partial:
                    missing.append(sn)
                sn = (sn + 1) % SN_SPACE
        return expected, missing
