"""Abstract link layer: carriers, BLER, distributed-MIMO joint transmission,
fronthaul load accounting.

There is no PHY math here.  Per-(UE, RU, carrier) block error rates are
scenario inputs.  A serving set is a UE's RU list, best first.  A TB is
carried by every RU of the set when D-MIMO serves the UE from more than one
RU (joint transmission), and by its grant's RU otherwise.  It fails only
when every carrying RU fails independently, which is the simplest model
exhibiting the reliability gain of serving a UE from several RUs at once.
"""

from dataclasses import dataclass

CENTRALIZED_BF = "CentralizedBf"
RU_LOCAL_BF = "RuLocalBf"


class BlerMap:
    """Per (ue, ru, carrier) block error probability; default applies elsewhere."""

    def __init__(self, entries=None, default=0.0):
        self._map = dict(entries or {})
        self.default = default

    def get(self, ue, ru, carrier):
        return self._map.get((ue, ru, carrier), self.default)

    def set(self, ue, ru, carrier, bler):
        self._map[(ue, ru, carrier)] = bler


def transmit(ue, rus, carrier_id, bler_map, rng):
    """One transmission attempt of a TB carried by ``rus``; returns True on
    success.  One draw is taken per RU, in order; the TB gets through if
    any RU's does.
    """
    success = False
    for ru in rus:
        if rng.draw() >= bler_map.get(ue, ru, carrier_id):
            success = True
    return success


def select_serving_set(candidate_rus, bler_of, quality_threshold,
                       max_set_size):
    """The best RUs under the BLER threshold, best first, capped at
    ``max_set_size``.

    Falls back to the single best RU when none meets the threshold, so the
    set is never empty: every RANF serves at least one RU.
    """
    ranked = sorted(candidate_rus, key=lambda r: (bler_of(r), r))
    chosen = [r for r in ranked if bler_of(r) <= quality_threshold][:max_set_size]
    return chosen or ranked[:1]


def fronthaul_load(mode, tb_bytes, expansion_factor=4, update_cost=64):
    """Bytes charged to the RU-RANF link for one TTI's transport block.

    Centralized beamforming ships per-antenna streams (expansion factor);
    RU-local beamforming ships the data once plus a fixed per-TTI
    coefficient-update cost.
    """
    if mode == CENTRALIZED_BF:
        return tb_bytes * expansion_factor
    return tb_bytes + update_cost  # RU_LOCAL_BF


@dataclass
class HandoverRecord:
    ue: str
    src: str
    dst: str
    at: int
    interruption: int
    forwarded_pdus: int
    accepted: bool
    reason: str = ""
