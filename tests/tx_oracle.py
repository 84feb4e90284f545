"""A per-event check of each bearer's RLC transmitter, independent of the
exits that ``stack`` and ``runtime`` take.

``check_transmitters(rt, monkeypatch)`` installs the check on a ``Runtime``
built but not yet run.  After every event, for every bearer:

- each queued retransmission's SN and a partly pulled queue head are in
  the RLC window (the head as its own entry);
- no PDU counted residual is in the window or at the queue head;
- the SDU ledger holds, with what is in flight counted from ``ctx.live``:
  ``packets_in == delivered + aqm_drops + residual + len(live)``.

A PDU counted residual is also checked to be out of the whole transmit
queue, with ``ctx.rlc.bytes`` exact, in the event that counts it, and is
never pushed again.  Every transport block built is checked to carry
segments of window SNs only.  Residual PDUs are recorded by wrapping
``Runtime._abandon`` and ``Runtime._release_ue``.
"""

from ransim import stack
from test_golden import wrap_each_event


class TransmitterCheck:
    def __init__(self):
        self.residual = {}  # BearerCtx -> PDUs counted residual
        self.residual_ids = set()  # their ids; the lists keep them alive
        self.events = 0  # events checked
        self.segments = 0  # segments of built TBs checked


def _check_out_of_queue(ctx, pdus):
    tx = ctx.rlc
    for pdu in pdus:
        assert pdu not in tx.queue, (ctx.bearer.id, pdu)
    assert tx.bytes == sum(p.size - p.sent for p in tx.queue), ctx.bearer.id


def _check_bearer(ctx, residual, now):
    rlc, queue = ctx.rlc, ctx.rlc.queue
    window = rlc.window
    bid = ctx.bearer.id
    for seg in rlc.retx_queue:
        assert seg.sn in window, (now, bid, seg)
    if queue and queue[0].sent:
        assert window.get(queue[0].sn) is queue[0], (now, bid, queue[0])
    for pdu in residual:
        assert window.get(pdu.sn) is not pdu, (now, bid, pdu)
        assert not queue or queue[0] is not pdu, (now, bid, pdu)
    m = ctx.metrics
    assert m.packets_in == m.delivered + m.aqm_drops + m.residual \
        + len(ctx.live), (now, bid)


def check_transmitters(rt, monkeypatch):
    """Install the check on ``rt``; returns its ``TransmitterCheck``."""
    check = TransmitterCheck()
    residual, residual_ids = check.residual, check.residual_ids
    bearers = list(rt.bearers.values())

    abandon = rt._abandon

    def abandoning(ctx, sns):
        pdus = [ctx.live[sn] for sn in sns if sn in ctx.live]
        abandon(ctx, sns)
        _check_out_of_queue(ctx, pdus)
        residual.setdefault(ctx, []).extend(pdus)
        residual_ids.update(map(id, pdus))

    release_ue = rt._release_ue

    def releasing(ue, now):
        pdus = {ctx: list(ctx.live.values()) for ctx in ue.bearers}
        release_ue(ue, now)
        for ctx, live in pdus.items():
            _check_out_of_queue(ctx, live)
            residual.setdefault(ctx, []).extend(live)
            residual_ids.update(map(id, live))

    rt._abandon = abandoning
    rt._release_ue = releasing

    push = stack.RlcTxState.push

    def pushing(tx, pdu):
        assert id(pdu) not in residual_ids, pdu
        push(tx, pdu)

    monkeypatch.setattr(stack.RlcTxState, "push", pushing)

    build = stack.build_transport_block

    def building(tx, window_size, grant_bytes):
        tb = build(tx, window_size, grant_bytes)
        for seg in tb.segments:
            assert seg.sn in tx.window, (rt.sim.now, seg)
        check.segments += len(tb.segments)
        return tb

    monkeypatch.setattr(stack, "build_transport_block", building)

    def checked(kind, fn):
        def handler():
            fn()
            now = rt.sim.now
            for ctx in bearers:
                _check_bearer(ctx, residual.get(ctx, ()), now)
            check.events += 1
        return handler

    wrap_each_event(rt, checked)
    return check
