from ransim import subnet as sn


def make_controller(**kw):
    defaults = dict(autonomous_prbs=10, local_bytes_per_prb=100,
                    nonlocal_ttl=1_000, parent_latency=2_000)
    defaults.update(kw)
    ctrl = sn.SubnetworkController("s1", **defaults)
    ctrl.add_device(sn.SubnetworkDevice("d1"))
    ctrl.add_device(sn.SubnetworkDevice("d2"))
    return ctrl


def delivered_in_one_tti(ctrl, now):
    """Local 1-PRB packets delivered by one TTI with more queued than any
    pool holds: the size of the TTI's pool."""
    for _ in range(20):
        ctrl.offer(sn.SubnetPacket("d1", "d2", 100, created=now, local=True))
    before = ctrl.local_delivered
    ctrl.schedule_local(now)
    ctrl.devices["d1"].queue.clear()
    return ctrl.local_delivered - before


def test_grant_pool_when_attached_autonomous_when_not():
    ctrl = make_controller(autonomous_prbs=3, grant_prbs=8)
    assert delivered_in_one_tti(ctrl, 0) == 3
    ctrl.attach()
    assert ctrl.grant_renewals == 1
    assert delivered_in_one_tti(ctrl, 1) == 8
    ctrl.renew_grant()
    assert ctrl.grant_renewals == 2
    ctrl.detach()
    assert delivered_in_one_tti(ctrl, 2) == 3
    # Pools never add up.
    ctrl.attach()
    assert ctrl.grant_renewals == 3
    assert delivered_in_one_tti(ctrl, 3) == 8


def test_renewal_while_detached_requests_no_grant():
    ctrl = make_controller(autonomous_prbs=3, grant_prbs=8)
    ctrl.renew_grant()
    assert ctrl.grant_renewals == 0
    assert delivered_in_one_tti(ctrl, 0) == 3


def test_local_scheduling_oldest_head_first():
    ctrl = make_controller(autonomous_prbs=1)
    ctrl.offer(sn.SubnetPacket("d1", "d2", 100, created=5, local=True))
    ctrl.offer(sn.SubnetPacket("d2", "d1", 100, created=3, local=True))
    ctrl.schedule_local(10)  # one packet per TTI: d2's, the older head
    assert not ctrl.devices["d2"].queue
    assert [p.created for p in ctrl.devices["d1"].queue] == [5]
    ctrl.schedule_local(11)
    assert ctrl.local_delivered_times == [10, 11]


def test_local_capacity_limits_per_tti():
    ctrl = make_controller(autonomous_prbs=1)
    for i in range(3):
        ctrl.offer(sn.SubnetPacket("d1", "d2", 100, created=i, local=True))
    ctrl.schedule_local(10)
    assert ctrl.local_delivered == 1
    assert len(ctrl.devices["d1"].queue) == 2


def test_unknown_destination_dropped():
    ctrl = make_controller()
    ctrl.offer(sn.SubnetPacket("d1", "ghost", 100, 0, local=True))
    ctrl.offer(sn.SubnetPacket("ghost", "d1", 100, 0, local=True))
    assert ctrl.unknown_dropped == 2
    ctrl.schedule_local(10)
    assert ctrl.local_delivered == 0


def test_nonlocal_relays_while_attached_queues_and_ttl_drops_detached():
    ctrl = make_controller(nonlocal_ttl=500)
    ctrl.attach()
    ctrl.offer(sn.SubnetPacket("d1", None, 100, 0, local=False))
    ctrl.schedule_local(1)
    assert ctrl.nonlocal_in == 1
    assert ctrl.relay_tick(2) == 1  # forwarded toward parent
    assert ctrl.nonlocal_out == 1
    # Detached: queues until TTL.
    ctrl.detach()
    ctrl.offer(sn.SubnetPacket("d1", None, 100, 10, local=False))
    ctrl.schedule_local(11)
    assert ctrl.relay_tick(12) == 0
    assert len(ctrl.relay_queue) == 1
    assert ctrl.relay_tick(600) == 0
    assert ctrl.nonlocal_ttl_dropped == 1 and ctrl.relay_queue == []
    assert ctrl.nonlocal_out == 1


def test_local_traffic_survives_detach():
    ctrl = make_controller(autonomous_prbs=5, grant_prbs=5)
    ctrl.attach()
    ctrl.offer(sn.SubnetPacket("d1", "d2", 100, 0, local=True))
    ctrl.schedule_local(1)
    ctrl.detach()
    ctrl.offer(sn.SubnetPacket("d2", "d1", 100, 2, local=True))
    ctrl.schedule_local(3)
    assert ctrl.local_delivered_times == [1, 3]


def test_device_handover():
    src = make_controller()
    dst = sn.SubnetworkController("s2", autonomous_prbs=1,
                                  local_bytes_per_prb=100,
                                  nonlocal_ttl=1000, parent_latency=0)
    assert sn.device_handover(src.devices["d1"], src, dst)
    assert "d1" in dst.devices and "d1" not in src.devices

    unreachable = sn.SubnetworkController("s3", autonomous_prbs=0,
                                          local_bytes_per_prb=100,
                                          nonlocal_ttl=1000, parent_latency=0)
    assert not sn.device_handover(src.devices["d2"], src, unreachable)
    assert "d2" in src.devices
    # To the parent network: always accepted.
    assert sn.device_handover(src.devices["d2"], src, None)
    assert src.devices == {}
