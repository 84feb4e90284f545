"""Simplified 6G user-plane stack.

PDCP is buffer-free: sequence numbering and ciphering happen at packet
arrival, after which the PDU sits in the bearer's single RLC transmit
buffer.  AQM works on head-of-queue sojourn there; front drops are
announced to the receiver through an L2 drop indication carried in the
next transport block, which closes the SN gap without waiting for the
reordering timer.  HARQ feedback, when configured reliable, doubles as
the RLC ACK/NACK so no separate status procedure is needed.
"""

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class Bearer:
    id: str
    ue: str
    slice: str
    latency_budget: int  # us, class upper bound used for urgency
    qos_class: str = "Moderate"
    key: bytes = b"\x00" * 16
    ecn_capable: bool = False
    tx_sn_next: int = 0
    active: bool = True


class PdcpPdu:
    __slots__ = ("sn", "size", "arrival_time", "payload", "sent", "ce_marked")

    def __init__(self, sn, size, arrival_time, payload=None):
        self.sn = sn
        self.size = size
        self.arrival_time = arrival_time
        self.payload = payload
        self.sent = 0  # bytes already pulled into transport blocks
        self.ce_marked = False

    def __repr__(self):
        return f"PdcpPdu(sn={self.sn}, size={self.size})"


@dataclass
class AqmState:
    mark_threshold: int = 1_000  # us head sojourn before CE mark
    drop_threshold: int = 50_000  # us head sojourn before front drop


class TransmitBuffer:
    """The single per-bearer queue of PDUs awaiting first transmission."""

    def __init__(self, bearer_id, aqm=None):
        self.bearer_id = bearer_id
        self.queue = deque()
        self.bytes = 0
        self.aqm = aqm if aqm is not None else AqmState()

    def push(self, pdu):
        self.queue.append(pdu)
        self.bytes += pdu.size

    def head_sojourn(self, now):
        if not self.queue:
            return 0
        return now - self.queue[0].arrival_time

    def __len__(self):
        return len(self.queue)


def pdcp_preprocess(sdu_size, bearer, now, payload=None, buffer=None):
    """Assign the next SN, cipher, and enqueue into the transmit buffer.

    Returns the PDU, or None when the bearer is released (ingress drop,
    counted by the caller).
    """
    if not bearer.active:
        return None
    sn = bearer.tx_sn_next
    bearer.tx_sn_next = (sn + 1) % SN_SPACE
    ciphered = cipher(payload, bearer.key, sn) if payload is not None else None
    pdu = PdcpPdu(sn, sdu_size, now, ciphered)
    if buffer is not None:
        buffer.push(pdu)
    return pdu


class MarkCE:
    __slots__ = ("sn",)

    def __init__(self, sn):
        self.sn = sn


class FrontDrop:
    __slots__ = ("sn",)

    def __init__(self, sn):
        self.sn = sn


def aqm_inspect(buffer, now, ecn_capable):
    """Head-sojourn step AQM; returns the actions applied.

    ECN-capable (ECT(1)) traffic gets a CE mark above the mark threshold;
    classic traffic loses the head PDU above the drop threshold.  Partially
    transmitted heads are never dropped (their bytes are already committed
    to the air interface).
    """
    actions = []
    aqm = buffer.aqm
    q = buffer.queue
    if ecn_capable:
        if q:
            head = q[0]
            if now - head.arrival_time > aqm.mark_threshold and not head.ce_marked:
                head.ce_marked = True
                actions.append(MarkCE(head.sn))
    else:
        while q:
            head = q[0]
            if now - head.arrival_time <= aqm.drop_threshold or head.sent > 0:
                break
            q.popleft()
            buffer.bytes -= head.size
            actions.append(FrontDrop(head.sn))
    return actions


class Segment:
    __slots__ = ("sn", "start", "end", "is_retx")

    def __init__(self, sn, start, end, is_retx=False):
        self.sn = sn
        self.start = start
        self.end = end
        self.is_retx = is_retx

    def __repr__(self):
        return f"Seg(sn={self.sn}, {self.start}..{self.end}{', retx' if self.is_retx else ''})"


class TransportBlock:
    __slots__ = ("bearer_id", "segments", "drop_indications", "bytes", "padding")

    def __init__(self, bearer_id):
        self.bearer_id = bearer_id
        self.segments = []
        self.drop_indications = []
        self.bytes = 0
        self.padding = 0

    @property
    def empty(self):
        return not self.segments and not self.drop_indications


class WindowEntry:
    """A transmitted-but-not-ACKed PDU copy in the RLC retransmission window."""

    __slots__ = ("pdu", "pending", "retx_count")

    def __init__(self, pdu):
        self.pdu = pdu
        self.pending = [(0, pdu.size)]  # unACKed byte ranges
        self.retx_count = 0


class RlcTxState:
    """Transmitter-side RLC AM bookkeeping, distinct from the user-data queue."""

    def __init__(self, window_size=64, max_retx=None):
        self.window = {}  # sn -> WindowEntry
        self.window_size = window_size
        self.max_retx = max_retx  # None = unlimited
        self.retx_queue = deque()  # Segment, awaiting a grant
        self.pending_drop_indications = deque()

    def enter_window(self, pdu):
        self.window[pdu.sn] = WindowEntry(pdu)

    def ack_segment(self, sn, start, end):
        """Mark a delivered byte range; frees the window entry when complete."""
        entry = self.window.get(sn)
        if entry is None:
            return False
        pending = entry.pending
        if len(pending) == 1:
            s, e = pending[0]
            if start <= s < e <= end:  # the whole rest is ACKed
                del self.window[sn]
                return True
        remaining = []
        for s, e in pending:
            if e <= start or s >= end:
                remaining.append((s, e))
            else:
                if s < start:
                    remaining.append((s, start))
                if e > end:
                    remaining.append((end, e))
        entry.pending = remaining
        if not remaining:
            del self.window[sn]
            return True
        return False

    def queue_retx(self, segments):
        """Queue segments for retransmission; returns SNs abandoned at max_retx."""
        abandoned = []
        for seg in segments:
            entry = self.window.get(seg.sn)
            if entry is None:
                continue
            entry.retx_count += 1
            if self.max_retx is not None and entry.retx_count > self.max_retx:
                del self.window[seg.sn]
                abandoned.append(seg.sn)
                continue
            self.retx_queue.append(Segment(seg.sn, seg.start, seg.end, is_retx=True))
        return abandoned

    def discard(self, sn):
        self.window.pop(sn, None)


def build_transport_block(buffer, rlc, grant_bytes):
    """Fill a grant with RLC control, retransmissions, then new head-of-queue data.

    Drop indications ride first (fastest congestion indication), then queued
    retransmission segments, then new PDUs pulled from the buffer head with
    byte-level segmentation.  Newly pulled PDUs move to the retransmission
    window; they leave it only on RLC ACK.  A grant too small for any header
    yields an empty TB (wasted, counted by the caller).
    """
    tb = TransportBlock(buffer.bearer_id)
    budget = grant_bytes - TB_HEADER_BYTES
    if budget <= 0:
        tb.padding = grant_bytes
        return tb

    while rlc.pending_drop_indications and budget >= DROP_IND_BYTES:
        tb.drop_indications.append(rlc.pending_drop_indications.popleft())
        budget -= DROP_IND_BYTES

    while rlc.retx_queue and budget > SEG_HEADER_BYTES:
        seg = rlc.retx_queue[0]
        avail = budget - SEG_HEADER_BYTES
        take = min(avail, seg.end - seg.start)
        tb.segments.append(Segment(seg.sn, seg.start, seg.start + take, is_retx=True))
        budget -= SEG_HEADER_BYTES + take
        if take == seg.end - seg.start:
            rlc.retx_queue.popleft()
        else:
            seg.start += take

    q = buffer.queue
    segments = tb.segments
    window = rlc.window
    window_size = rlc.window_size
    # The window test stays per pull: a pulled SN may overwrite an entry
    # still in the window, so a running count would drift.
    while q and budget > SEG_HEADER_BYTES and len(window) < window_size:
        pdu = q[0]
        sent = pdu.sent
        take = min(budget - SEG_HEADER_BYTES, pdu.size - sent)
        segments.append(Segment(pdu.sn, sent, sent + take))
        budget -= SEG_HEADER_BYTES + take
        pdu.sent = sent = sent + take
        buffer.bytes -= take
        if sent == pdu.size:
            q.popleft()
            rlc.enter_window(pdu)

    if segments or tb.drop_indications:
        tb.bytes = grant_bytes - budget
        tb.padding = budget
    else:
        tb.padding = grant_bytes
    return tb


FREE = "Free"
AWAITING_FEEDBACK = "AwaitingFeedback"

# harq_on_feedback outcomes
HARQ_ACKED = "acked"
HARQ_RETRANSMIT = "retransmit"
HARQ_FAILED = "failed"
HARQ_FAILED_TO_RLC = "failed_to_rlc"
HARQ_PROTOCOL_ERROR = "protocol_error"


class HarqProcess:
    __slots__ = ("id", "tb", "tx_count", "max_tx", "state", "meta")

    def __init__(self, proc_id, max_tx=4):
        self.id = proc_id
        self.tb = None
        self.tx_count = 0
        self.max_tx = max_tx
        self.state = FREE
        self.meta = None  # carrier/RU context owned by the runtime

    def load(self, tb, meta=None):
        assert self.state == FREE
        self.tb = tb
        self.tx_count = 1
        self.state = AWAITING_FEEDBACK
        self.meta = meta

    def free(self):
        tb = self.tb
        self.tb = None
        self.tx_count = 0
        self.state = FREE
        self.meta = None
        return tb


def harq_on_feedback(process, ack, reliable_mode):
    """Advance the HARQ state machine on (possibly corrupted) feedback.

    ACK frees the process; in reliable mode this is simultaneously the RLC
    ACK for the carried segments.  NACK retransmits until max_tx; at max_tx
    the process is freed and, in reliable mode, the segments go straight to
    RLC retransmission.  In the non-reliable baseline RLC must discover the
    loss itself via status reporting.
    """
    if process.state != AWAITING_FEEDBACK:
        return HARQ_PROTOCOL_ERROR
    if ack:
        return HARQ_ACKED
    if process.tx_count < process.max_tx:
        process.tx_count += 1
        return HARQ_RETRANSMIT
    return HARQ_FAILED_TO_RLC if reliable_mode else HARQ_FAILED


class RxReassembly:
    """Receiver-side per-SN byte-range collection until PDUs complete."""

    def __init__(self):
        self.partial = {}  # sn -> (size, merged list of (start, end))

    def add(self, sn, start, end, size):
        """Returns True when the PDU just became complete."""
        if start == 0 and end == size and sn not in self.partial:
            return True  # a whole PDU in one segment
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


class ReorderState:
    """PDCP receiver: in-order delivery with t_reordering and drop-indication gaps."""

    def __init__(self, t_reordering=20_000):
        self.expected_sn = 0
        self.stash = {}  # sn -> receive time
        self.skipped = set()  # SNs announced dropped (gap closed, no wait)
        self.t_reordering = t_reordering
        self.timer_deadline = None
        self.timer_generation = 0
        self.duplicates = 0

    def _drain(self):
        """Advance expected_sn through stashed and skipped SNs."""
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
        """Process a completed PDU; returns (delivered sns, skipped sns, timer action)."""
        if sn == self.expected_sn:
            self.expected_sn = (sn + 1) % SN_SPACE
            if not self.stash and not self.skipped:  # nothing to drain
                if self.timer_deadline is None:
                    return [sn], [], None
                return [sn], [], self._timer_action(now)
            delivered, skipped = self._drain()
            delivered.insert(0, sn)
            return delivered, skipped, self._timer_action(now)
        if sn_lt(sn, self.expected_sn) or sn in self.stash:
            self.duplicates += 1
            return [], [], None
        self.stash[sn] = now
        return [], [], self._timer_action(now)

    def receive_drop_indication(self, sn, now):
        """Close the SN gap at sn; returns (delivered sns, skipped sns, timer action)."""
        if sn_lt(sn, self.expected_sn):
            return [], [], None
        self.skipped.add(sn)
        if sn == self.expected_sn:
            delivered, skipped = self._drain()
            return delivered, skipped, self._timer_action(now)
        return [], [], self._timer_action(now)

    def timer_expired(self, now):
        """Deliver everything stashed, skipping the SNs still missing."""
        self.timer_deadline = None
        self.timer_generation += 1
        delivered = []
        skipped = []
        while self.stash:
            # Closest stashed SN ahead of expected_sn in modular order.
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
        # Anything the drop indications already closed at the frontier; those
        # SNs were already accounted for at the AQM drop, so they are not
        # reported as lost here.
        more, _ = self._drain()
        delivered.extend(more)
        return delivered, skipped, None
