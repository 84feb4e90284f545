"""Sub-networks: a controller that is a UE toward the parent network, an L3
relay for non-local traffic, and a local scheduler for traffic among its
devices.  The sub-network keeps working out of parent coverage on an
autonomous resource pool; only non-local traffic then queues until a TTL.
"""

from dataclasses import dataclass, field

from .core import ModelError

LOCAL = "Local"
NON_LOCAL = "NonLocal"


class SubnetPacket:
    __slots__ = ("src", "dst", "size", "created", "local")

    def __init__(self, src, dst, size, created, local):
        self.src = src
        self.dst = dst
        self.size = size
        self.created = created
        self.local = local


@dataclass
class ResourceGrant:
    prbs_per_tti: int
    expiry: int  # us


@dataclass
class SubnetworkDevice:
    id: str
    controller: str
    queue: list = field(default_factory=list)  # packets awaiting local PRBs


class SubnetworkController:
    """Schedules local transmissions and relays non-local traffic at L3."""

    def __init__(self, ctrl_id, *, autonomous_prbs=0, local_bytes_per_prb=64,
                 nonlocal_ttl=1_000_000, parent_latency=2_000):
        self.id = ctrl_id
        self.parent_attachment = None  # (ranf_id, ru_id) or None
        self.devices = {}
        self.grant = None  # ResourceGrant
        self.autonomous_prbs = autonomous_prbs
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

    @property
    def attached(self):
        return self.parent_attachment is not None

    def add_device(self, device):
        device.controller = self.id
        self.devices[device.id] = device

    def remove_device(self, device_id):
        return self.devices.pop(device_id, None)

    def attach(self, ranf_id, ru_id):
        self.parent_attachment = (ranf_id, ru_id)

    def detach(self):
        self.parent_attachment = None
        self.grant = None

    def route(self, pkt):
        """Classify a packet; unknown local destinations are dropped."""
        if pkt.local:
            if pkt.dst not in self.devices:
                self.unknown_dropped += 1
                return None
            return LOCAL
        return NON_LOCAL

    def offer(self, pkt, now):
        """A device hands a packet to the sub-network."""
        src = self.devices.get(pkt.src)
        if src is None:
            self.unknown_dropped += 1
            return
        kind = self.route(pkt)
        if kind is None:
            return
        src.queue.append(pkt)

    def request_grant(self, prbs, now, duration):
        """Obtain a parent resource grant; only meaningful while attached."""
        if not self.attached:
            raise ModelError(f"sub-network {self.id}: grant request while detached")
        self.grant = ResourceGrant(prbs, now + duration)
        self.grant_renewals += 1
        return self.grant

    def pool_for_tti(self, now):
        """Active pool: unexpired parent grant when attached, else autonomous."""
        if self.attached and self.grant is not None and now < self.grant.expiry:
            return self.grant.prbs_per_tti
        return self.autonomous_prbs

    def schedule_local(self, now):
        """Greedy oldest-head-first local scheduling within the TTI pool.

        Returns (local deliveries, non-local packets handed to the relay).
        Both kinds of device transmission consume local PRBs.
        """
        prbs = self.pool_for_tti(now)
        delivered = []
        relayed = []
        while prbs > 0:
            heads = [
                (d.queue[0].created, d.id, d)
                for d in self.devices.values()
                if d.queue
            ]
            if not heads:
                break
            heads.sort()
            device = heads[0][2]
            pkt = device.queue[0]
            need = -(-pkt.size // self.local_bytes_per_prb)
            if need > prbs:
                break
            prbs -= need
            device.queue.pop(0)
            if pkt.local:
                self.local_delivered += 1
                self.local_delivered_times.append(now)
                delivered.append(pkt)
            else:
                self.nonlocal_in += 1
                self.relay_queue.append(pkt)
                relayed.append(pkt)
        return delivered, relayed

    def relay_delivered(self, n):
        """``n`` packets sent by ``relay_tick`` reached the parent."""
        self.nonlocal_delivered += n

    def relay_tick(self, now):
        """Forward queued non-local traffic while attached; expire on TTL.

        Returns the packets sent toward the parent this tick (the caller
        delivers them after the parent Uu latency).
        """
        sent = []
        keep = []
        for pkt in self.relay_queue:
            if self.attached:
                self.nonlocal_out += 1
                sent.append(pkt)
            elif now - pkt.created > self.nonlocal_ttl:
                self.nonlocal_ttl_dropped += 1
            else:
                keep.append(pkt)
        self.relay_queue = keep
        return sent


@dataclass
class DeviceHandoverRecord:
    device: str
    src: str
    dst: str
    at: int
    accepted: bool
    reason: str = ""


def device_handover(device, src, dst, now):
    """Move a device between sub-networks (or to the parent, dst=None target).

    Bearers re-establish at the destination (SN reset is permitted at the
    sub-network boundary); an unreachable destination fails the handover and
    leaves the device where it is.
    """
    if dst is None:
        src.remove_device(device.id)
        return DeviceHandoverRecord(device.id, src.id, "parent", now, True)
    reachable = dst.attached or dst.autonomous_prbs > 0
    if not reachable:
        return DeviceHandoverRecord(
            device.id, src.id, dst.id, now, False, "destination unreachable"
        )
    src.remove_device(device.id)
    device.queue = []
    dst.add_device(device)
    return DeviceHandoverRecord(device.id, src.id, dst.id, now, True)
