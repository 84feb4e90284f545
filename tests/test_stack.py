import pytest
from hypothesis import given, strategies as st

from ransim import stack
from ransim.core import ModelError


WINDOW = 64  # the ``rlc.window`` default of a scenario


def make_bearer(**kw):
    defaults = dict(id="b1", ue="ue1", slice="II", latency_budget=10_000)
    defaults.update(kw)
    return stack.Bearer(**defaults)


# ---------------------------------------------------------------- ciphering

@given(st.binary(min_size=1, max_size=64), st.integers(0, stack.SN_SPACE - 1))
def test_cipher_is_involution(payload, sn):
    key = b"\x13" * 16
    assert stack.cipher(stack.cipher(payload, key, sn), key, sn) == payload


def test_cipher_differs_per_sn():
    key = b"\x13" * 16
    payload = b"\x00" * 32
    assert stack.cipher(payload, key, 1) != stack.cipher(payload, key, 2)


# ---------------------------------------------------------------- SN math

@given(st.integers(0, stack.SN_SPACE - 1))
def test_sn_not_less_than_itself(sn):
    assert not stack.sn_lt(sn, sn)


def test_sn_wraparound():
    assert stack.sn_lt(stack.SN_SPACE - 1, 0)
    assert not stack.sn_lt(0, stack.SN_SPACE - 1)
    assert stack.sn_delta(stack.SN_SPACE - 1, 1) == 2


# ---------------------------------------------------------------- PDCP ingress

def test_pdcp_assigns_consecutive_sns_and_enqueues():
    bearer = make_bearer()
    tx = stack.RlcTxState()
    p0 = stack.pdcp_preprocess(100, bearer, 0)
    p1 = stack.pdcp_preprocess(100, bearer, 1)
    assert (p0.sn, p1.sn) == (0, 1)
    assert not tx.queue and bearer.tx_sn_next == 2
    tx.push(p0)
    tx.push(p1)
    assert list(tx.queue) == [p0, p1] and tx.bytes == 200


# ---------------------------------------------------------------- AQM

AQM = stack.AqmState(1000, 50_000)


def test_aqm_marks_ecn_head_once():
    tx = stack.RlcTxState()
    tx.push(stack.PdcpPdu(0, 100, 0))
    assert stack.aqm_inspect(tx, AQM, 500, ecn_capable=True) is False
    assert stack.aqm_inspect(tx, AQM, 2000, ecn_capable=True) is True
    assert tx.queue[0].ce_marked
    # Already marked: no second mark.
    assert stack.aqm_inspect(tx, AQM, 3000, ecn_capable=True) is False
    assert len(tx.queue) == 1  # ECN never drops


def test_aqm_front_drops_classic_until_threshold():
    tx = stack.RlcTxState()
    for sn, t in [(0, 0), (1, 10), (2, 60_000)]:
        tx.push(stack.PdcpPdu(sn, 100, t))
    assert stack.aqm_inspect(tx, AQM, 60_000, ecn_capable=False) == [0, 1]
    assert len(tx.queue) == 1 and tx.bytes == 100


def test_aqm_never_drops_partially_sent_head():
    tx = stack.RlcTxState()
    pdu = stack.PdcpPdu(0, 100, 0)
    pdu.sent = 10
    tx.push(pdu)
    assert stack.aqm_inspect(tx, AQM, 100_000, ecn_capable=False) == []


# ---------------------------------------------------------------- TB building

def setup_tx(n_pdus=3, size=100):
    tx = stack.RlcTxState()
    for sn in range(n_pdus):
        tx.push(stack.PdcpPdu(sn, size, 0))
    return tx


def test_tb_pulls_head_data_and_enters_window():
    tx = setup_tx(3)
    tb = stack.build_transport_block(tx, WINDOW, 1000)
    assert [s.sn for s in tb.segments] == [0, 1, 2]
    assert sorted(tx.window) == [0, 1, 2]
    assert len(tx.queue) == 0 and tx.bytes == 0
    payload = 3 * 100
    assert tb.bytes == stack.TB_HEADER_BYTES + 3 * stack.SEG_HEADER_BYTES + payload


def test_tb_segments_across_grants():
    tx = setup_tx(1, size=500)
    tb1 = stack.build_transport_block(tx, WINDOW, 206)  # 2 + 4 + 200 payload
    assert tb1.segments[0].start == 0 and tb1.segments[0].end == 200
    assert tx.window == {0: tx.queue[0]}  # in the window from its first byte
    tb2 = stack.build_transport_block(tx, WINDOW, 1000)
    assert tb2.segments[0].start == 200 and tb2.segments[0].end == 500
    assert list(tx.window) == [0] and tx.window[0].unacked == 500
    assert not tx.queue


def test_full_window_still_continues_a_partly_pulled_pdu():
    """The window bounds new SNs only: with room for one SN, the second TB
    continues the PDU the first one started, and pulls no new SN."""
    tx = stack.RlcTxState()
    tx.push(stack.PdcpPdu(0, 300, 0))
    tx.push(stack.PdcpPdu(1, 50, 0))
    tb1 = stack.build_transport_block(tx, 1, 206)
    assert [(s.sn, s.start, s.end) for s in tb1.segments] == [(0, 0, 200)]
    assert list(tx.window) == [0]  # full
    tb2 = stack.build_transport_block(tx, 1, 1000)
    assert [(s.sn, s.start, s.end) for s in tb2.segments] == [(0, 200, 300)]
    assert list(tx.window) == [0] and [p.sn for p in tx.queue] == [1]


def test_tb_drop_indications_ride_first():
    tx = setup_tx(1)
    tx.queue_drop_indications([7, 8])
    tb = stack.build_transport_block(tx, WINDOW, 1000)
    assert tb.drop_indications == [7, 8]
    assert tb.segments[0].sn == 0


def test_tb_retx_precede_new_data():
    tx = setup_tx(2)
    stack.build_transport_block(tx, WINDOW, 104 + 2)  # pulls sn 0
    tx.queue_retx([stack.Segment(0, 0, 100, 100)])
    tb = stack.build_transport_block(tx, WINDOW, 1000)
    first = tb.segments[0]
    assert (first.sn, first.start, first.end) == (0, 0, 100)
    assert not tx.retx_queue
    assert tb.segments[1].sn == 1


def test_tb_window_full_blocks_new_data():
    tx = stack.RlcTxState()
    tx.push(stack.PdcpPdu(0, 50, 0))
    tx.push(stack.PdcpPdu(1, 50, 0))
    tb = stack.build_transport_block(tx, 1, 1000)
    assert [s.sn for s in tb.segments] == [0]
    assert len(tx.queue) == 1


def test_tiny_grant_yields_empty_tb():
    tx = setup_tx(1)
    tb = stack.build_transport_block(tx, WINDOW, 2)
    assert tb.empty and tb.bytes == 0


# ---------------------------------------------------------------- RLC window

def test_ack_segment_counts_unacked_bytes():
    tx = stack.RlcTxState()
    tx.window[0] = stack.PdcpPdu(0, 100, 0)
    assert not tx.ack_segment(0, 0, 40)
    assert not tx.ack_segment(0, 60, 100)
    assert tx.window[0].unacked == 20
    assert tx.ack_segment(0, 40, 60)
    assert 0 not in tx.window
    assert not tx.ack_segment(0, 0, 100)  # no longer in the window


def test_ack_of_more_bytes_than_remain_is_an_error():
    tx = stack.RlcTxState()
    tx.window[0] = stack.PdcpPdu(0, 100, 0)
    tx.ack_segment(0, 0, 60)
    with pytest.raises(ModelError, match="SN 0"):
        tx.ack_segment(0, 0, 60)


def test_queue_retx_abandons_at_max():
    tx = stack.RlcTxState(max_retx=1)
    tx.window[0] = stack.PdcpPdu(0, 100, 0)
    assert tx.queue_retx([stack.Segment(0, 0, 100, 100)]) == []
    assert tx.queue_retx([stack.Segment(0, 0, 100, 100)]) == [0]
    assert 0 not in tx.window


def test_apply_status_acks_and_queues_missing():
    tx = stack.RlcTxState(max_retx=1)
    for sn in range(4):
        tx.window[sn] = stack.PdcpPdu(sn, 100 + sn, 0)
    tx.remove(3)
    assert tx.apply_status(1, [2, 3]) == []
    assert sorted(tx.window) == [1, 2]  # 0 ACKed
    # A missing SN is resent whole; SN 3 is no longer in the window.
    assert [(s.sn, s.start, s.end) for s in tx.retx_queue] == [(2, 0, 102)]
    tx.window[1].retx_count = 1
    # SN 2 is queued already; SN 1 is given up at max_retx.
    assert tx.apply_status(1, [1, 2]) == [1]
    assert sorted(tx.window) == [2] and tx.window[2].retx_count == 1
    assert len(tx.retx_queue) == 1


# An SN leaves the window other than by a full ACK through ``remove`` alone,
# which also takes its queued retransmissions and a partly pulled head.

def test_give_up_of_a_partly_pulled_head_takes_it_from_the_buffer():
    tx = setup_tx(2, size=500)
    tx.max_retx = 0
    tb = stack.build_transport_block(tx, WINDOW, 206)  # SN 0's first 200 bytes
    assert tx.queue_retx(tb.segments) == [0]
    assert [p.sn for p in tx.queue] == [1] and tx.bytes == 500
    assert not tx.window and not tx.retx_queue
    tb = stack.build_transport_block(tx, WINDOW, 1000)
    assert [(s.sn, s.start, s.end) for s in tb.segments] == [(1, 0, 500)]


def test_give_up_takes_the_sns_segments_queued_in_the_same_call():
    tx = setup_tx(2)
    tx.max_retx = 1
    stack.build_transport_block(tx, WINDOW, 1000)
    segments = [stack.Segment(0, 0, 40, 100),
                stack.Segment(1, 0, 100, 100),
                stack.Segment(0, 40, 100, 100)]
    assert tx.queue_retx(segments) == [0]  # its second segment gives up
    assert [(s.sn, s.start, s.end) for s in tx.retx_queue] == [(1, 0, 100)]
    assert list(tx.window) == [1]


def test_status_ack_takes_the_sns_queued_segments():
    tx = setup_tx(3)
    stack.build_transport_block(tx, WINDOW, 1000)
    assert tx.apply_status(0, [0, 1]) == []
    assert [s.sn for s in tx.retx_queue] == [0, 1]
    # SNs 0 and 1 reach the receiver before their resends go out.
    assert tx.apply_status(2, []) == []
    assert list(tx.window) == [2] and not tx.retx_queue


def test_t_reordering_loss_takes_the_sns_queued_segments():
    """The runtime removes each SN that t-reordering gives up."""
    tx = setup_tx(3)
    stack.build_transport_block(tx, WINDOW, 1000)
    tx.queue_retx([stack.Segment(0, 0, 100, 100),
                   stack.Segment(1, 0, 100, 100)])
    rx = stack.ReorderState(t_reordering=10)
    rx.segment(2, 0, 100, 100, 0)
    delivered, lost = rx.timer_expired(10)
    assert (delivered, lost) == ([(2, 0)], [0, 1])
    for sn in lost:
        tx.remove(sn)
    assert list(tx.window) == [2] and not tx.retx_queue


# ---------------------------------------------------------------- what it holds

def test_has_data_sees_new_data_retransmissions_and_drop_indications():
    tx = stack.RlcTxState()
    assert not tx.has_data()
    tx.queue_drop_indications([5])
    assert tx.has_data()
    tx = setup_tx(1)
    assert tx.has_data()
    stack.build_transport_block(tx, WINDOW, 1000)
    assert not tx.has_data()  # SN 0 waits in the window only
    tx.queue_retx([stack.Segment(0, 0, 100, 100)])
    assert tx.has_data()


def test_control_bytes_count_each_header():
    tx = setup_tx(2)
    assert tx.control_bytes() == 0  # new data is not control
    stack.build_transport_block(tx, WINDOW, 1000)
    tx.queue_retx([stack.Segment(0, 0, 40, 100),
                   stack.Segment(1, 0, 100, 100)])
    tx.queue_drop_indications([7, 8])
    assert tx.control_bytes() == 140 + 2 * stack.SEG_HEADER_BYTES \
        + 2 * stack.DROP_IND_BYTES


def test_held_counts_a_partly_pulled_head_once():
    tx = setup_tx(3, size=500)
    assert tx.held() == 3
    stack.build_transport_block(tx, WINDOW, 800)  # SN 0 whole, SN 1 in part
    assert list(tx.window) == [0, 1] and len(tx.queue) == 2
    assert tx.held() == 3


def test_release_drops_everything():
    tx = setup_tx(3, size=500)
    stack.build_transport_block(tx, WINDOW, 800)
    tx.queue_retx([stack.Segment(0, 0, 500, 500)])
    tx.queue_drop_indications([9])
    tx.release()
    assert (tx.queue, tx.bytes, tx.window, tx.retx_queue,
            tx.pending_drop_indications) == ((), 0, {}, (), ())
    assert not tx.has_data() and tx.held() == 0 and tx.control_bytes() == 0


# ---------------------------------------------------------------- HARQ

def harq_process(tb):
    return stack.HarqProcess(tb, 0, ("ru1", "c1"), 10, None)


def test_harq_ack_nack_cycle():
    tb = stack.TransportBlock()
    tb.segments.append(stack.Segment(0, 0, 100, 100))
    p = harq_process(tb)
    assert p.tx_count == 1
    assert stack.harq_on_feedback(p, False, 2) == stack.HARQ_RETRANSMIT
    assert p.tx_count == 2
    assert stack.harq_on_feedback(p, False, 2) == stack.HARQ_FAILED
    p = harq_process(tb)
    assert stack.harq_on_feedback(p, True, 2) == stack.HARQ_ACKED


def test_harq_nonreliable_final_failure():
    # Whether RLC retransmits a failed TB at once is the runtime's choice.
    p = harq_process(stack.TransportBlock())
    assert stack.harq_on_feedback(p, False, 1) == stack.HARQ_FAILED


# ---------------------------------------------------------------- reassembly

def test_reassembly_merges_ranges():
    rx = stack.RxReassembly()
    assert not rx.add(0, 0, 40, 100)
    assert not rx.add(0, 60, 100, 100)
    assert rx.add(0, 20, 80, 100)
    assert 0 not in rx.partial


def test_segments_reassemble_before_reordering():
    r = stack.ReorderState()
    assert r.segment(0, 0, 40, 100, 10) == ([], False)
    assert r.reassembly.partial == {0: [(0, 40)]}
    assert r.segment(0, 40, 100, 100, 20) == ([(0, None)], False)
    assert r.reassembly.partial == {} and r.expected_sn == 1


def test_segment_of_delivered_or_stashed_sn_is_dropped():
    r = stack.ReorderState()
    r.segment(0, 0, 100, 100, 10)  # delivered
    r.segment(2, 0, 100, 100, 11)  # stashed
    assert r.segment(0, 0, 40, 100, 12) == ([], False)
    assert r.segment(2, 0, 40, 100, 13) == ([], False)
    assert r.reassembly.partial == {} and r.duplicates == 2
    assert r.stash == {2: 11}


# ---------------------------------------------------------------- reordering

def test_inorder_delivery():
    r = stack.ReorderState()
    assert r.receive(0, 10) == ([(0, None)], False)
    assert r.receive(1, 20) == ([(1, None)], False)


def test_gap_stash_and_timer_lifecycle():
    r = stack.ReorderState(t_reordering=20_000)
    assert r.receive(1, 10) == ([], True)
    assert (r.timer_deadline, r.timer_generation) == (20_010, 1)
    assert r.receive(3, 20) == ([], False)  # already running
    r.restart_timer(25)
    assert (r.timer_deadline, r.timer_generation) == (20_025, 2)
    delivered, started = r.receive(0, 30)
    assert delivered == [(0, None), (1, 10)] and not started
    assert r.timer_deadline == 20_025  # 3 still waits
    assert r.receive(2, 40) == ([(2, None), (3, 20)], False)
    assert r.timer_deadline is None and r.timer_generation == 3


def test_drop_indication_closes_gap_without_timer():
    r = stack.ReorderState()
    r.receive(1, 10)  # gap at 0
    delivered, started = r.receive_drop_indication(0, 12)
    assert delivered == [(1, 10)] and not started
    assert r.timer_deadline is None
    assert r.expected_sn == 2


def test_timer_expiry_skips_missing():
    r = stack.ReorderState(t_reordering=20_000)
    r.receive(2, 10)
    r.receive(4, 11)
    delivered, lost = r.timer_expired(20_010)
    assert delivered == [(2, 10), (4, 11)]
    assert lost == [0, 1, 3]
    assert r.expected_sn == 5


def test_timer_expiry_forgets_partial_pdus_it_gives_up():
    r = stack.ReorderState()
    r.segment(1, 0, 40, 100, 10)  # partial, given up below
    r.segment(2, 0, 100, 100, 11)  # stashed
    r.segment(5, 0, 40, 100, 12)  # partial, ahead of the stash
    delivered, lost = r.timer_expired(20_011)
    assert delivered == [(2, 11)] and lost == [0, 1]
    assert list(r.reassembly.partial) == [5]
    # A late segment of a given-up SN is a duplicate.
    assert r.segment(1, 40, 100, 100, 20_020) == ([], False)
    assert list(r.reassembly.partial) == [5]


def test_status_report_lists_sns_with_nothing_received():
    r = stack.ReorderState()
    assert r.status_report() == (0, [])
    r.segment(1, 0, 40, 100, 10)  # partly received
    r.receive_drop_indication(2, 11)
    r.receive(6, 12)
    assert r.status_report() == (0, [0, 3, 4, 5])
    assert r.status_report(limit=2) == (0, [0, 3])


def test_duplicates_detected():
    r = stack.ReorderState()
    r.segment(0, 0, 100, 100, 10)
    assert r.segment(0, 0, 100, 100, 11) == ([], False) and r.duplicates == 1
    r.segment(2, 0, 100, 100, 12)
    r.segment(2, 0, 100, 100, 13)
    assert r.duplicates == 2


@given(st.permutations(list(range(8))))
def test_reorder_delivers_in_order_any_arrival_order(order):
    r = stack.ReorderState()
    out = []
    for i, sn in enumerate(order):
        delivered, _ = r.receive(sn, i)
        out.extend(sn for sn, _ in delivered)
    assert out == list(range(8))
