"""Sub-networks: a controller that is a UE toward the parent network, an L3
relay for non-local traffic, and a local scheduler for traffic among its
devices.  The sub-network keeps working out of parent coverage on an
autonomous resource pool; only non-local traffic then queues until a TTL.
"""

from collections import deque
from dataclasses import dataclass, field


class SubnetPacket:
    __slots__ = ("src", "dst", "size", "created", "local")

    def __init__(self, src, dst, size, created, local):
        self.src = src
        self.dst = dst
        self.size = size
        self.created = created
        self.local = local


@dataclass
class SubnetworkDevice:
    id: str
    queue: deque = field(default_factory=deque)  # packets awaiting local PRBs


class SubnetworkController:
    """Schedules local transmissions and relays non-local traffic at L3.

    A sub-network is attached to its parent or not.  While attached it
    schedules on the parent's grant of ``grant_prbs`` per TTI, else on its
    ``autonomous_prbs``; nothing expires.  ``grant_renewals`` counts one
    grant request per attach and one per grant period while attached (the
    runtime calls ``renew_grant`` each period).
    """

    def __init__(self, ctrl_id, *, autonomous_prbs=0, grant_prbs=10,
                 local_bytes_per_prb=64, nonlocal_ttl=1_000_000,
                 parent_latency=2_000):
        self.id = ctrl_id
        self.attached = False
        self.devices = {}
        self.autonomous_prbs = autonomous_prbs
        self.grant_prbs = grant_prbs
        self.local_bytes_per_prb = local_bytes_per_prb
        self.nonlocal_ttl = nonlocal_ttl
        self.parent_latency = parent_latency
        self.relay_queue = []  # non-local packets waiting for parent coverage
        # counters
        self.local_delivered = 0
        self.local_delivered_times = []
        self.nonlocal_in = 0
        self.nonlocal_out = 0
        self.nonlocal_delivered = 0
        self.nonlocal_ttl_dropped = 0
        self.unknown_dropped = 0
        self.grant_renewals = 0

    def add_device(self, device):
        self.devices[device.id] = device

    def attach(self):
        """Attach to the parent and obtain its grant at once."""
        self.attached = True
        self.renew_grant()

    def detach(self):
        self.attached = False

    def renew_grant(self):
        """The periodic grant renewal, which only an attached sub-network
        requests."""
        if self.attached:
            self.grant_renewals += 1

    def offer(self, pkt):
        """A device hands a packet to the sub-network; a packet from or (if
        local) to a device not in it is dropped."""
        src = self.devices.get(pkt.src)
        if src is None or (pkt.local and pkt.dst not in self.devices):
            self.unknown_dropped += 1
            return
        src.queue.append(pkt)

    def schedule_local(self, now):
        """Greedy oldest-head-first local scheduling within the TTI pool.

        Local packets are delivered, non-local ones handed to the relay;
        both kinds of device transmission consume local PRBs.
        """
        prbs = self.grant_prbs if self.attached else self.autonomous_prbs
        devices = self.devices.values()
        while prbs > 0:
            device = min((d for d in devices if d.queue), default=None,
                         key=lambda d: (d.queue[0].created, d.id))
            if device is None:
                break
            pkt = device.queue[0]
            need = -(-pkt.size // self.local_bytes_per_prb)
            if need > prbs:
                break
            prbs -= need
            device.queue.popleft()
            if pkt.local:
                self.local_delivered += 1
                self.local_delivered_times.append(now)
            else:
                self.nonlocal_in += 1
                self.relay_queue.append(pkt)

    def relay_delivered(self, n):
        """``n`` packets sent by ``relay_tick`` reached the parent."""
        self.nonlocal_delivered += n

    def relay_tick(self, now):
        """Forward queued non-local traffic while attached; expire on TTL.

        Returns how many packets went toward the parent this tick (the
        caller delivers them after the parent Uu latency).
        """
        sent = 0
        keep = []
        for pkt in self.relay_queue:
            if self.attached:
                self.nonlocal_out += 1
                sent += 1
            elif now - pkt.created > self.nonlocal_ttl:
                self.nonlocal_ttl_dropped += 1
            else:
                keep.append(pkt)
        self.relay_queue = keep
        return sent


def device_handover(device, src, dst):
    """Move a device between sub-networks (or to the parent, dst=None);
    returns whether it moved.

    Bearers re-establish at the destination (SN reset is permitted at the
    sub-network boundary); an unreachable destination fails the handover and
    leaves the device where it is.
    """
    if dst is not None and not (dst.attached or dst.autonomous_prbs > 0):
        return False
    del src.devices[device.id]
    if dst is not None:
        device.queue.clear()
        dst.add_device(device)
    return True
