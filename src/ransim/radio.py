"""Abstract link layer: carriers, BLER, distributed-MIMO joint transmission,
fronthaul load accounting.

There is no PHY math here.  Per-(UE, RU, carrier) block error rates are
scenario inputs; joint transmission from a serving set fails only when all
RUs fail independently, which is the simplest model exhibiting the
reliability gain of serving a UE from several RUs at once.
"""

from dataclasses import dataclass, field

SINGLE_RU = "SingleRu"
DMIMO_JOINT = "DMimoJoint"

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


@dataclass
class ServingSet:
    ue: str
    rus: list = field(default_factory=list)  # ordered, best first
    mode: str = SINGLE_RU


def transmit(serving_set, carrier_id, bler_map, rng):
    """One transmission attempt; returns True on success.

    Single-RU mode succeeds with probability 1-bler of the primary RU; joint
    mode fails only if every RU in the set fails independently.  One draw is
    taken per RU either way.
    """
    rus = serving_set.rus if serving_set.mode == DMIMO_JOINT else serving_set.rus[:1]
    success = False
    for ru in rus:
        bler = bler_map.get(serving_set.ue, ru, carrier_id)
        if rng.draw() >= bler:
            success = True
    return success


def select_serving_set(ue, candidate_rus, bler_of, quality_threshold,
                       max_set_size, mode=SINGLE_RU):
    """Pick the best RUs under the BLER threshold, capped at max_set_size.

    Falls back to the single best RU when none meets the threshold, so the
    set is never empty: every RANF serves at least one RU.
    """
    ranked = sorted(candidate_rus, key=lambda r: (bler_of(r), r))
    chosen = [r for r in ranked if bler_of(r) <= quality_threshold][:max_set_size]
    if not chosen:
        chosen = ranked[:1]
    if max_set_size <= 1 or len(chosen) == 1:
        mode = SINGLE_RU
    return ServingSet(ue, chosen, mode)


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
