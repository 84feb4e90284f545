"""Deterministic scenario generator for the benchmark's generated workloads.

Each generator takes a seed and a shape (RANFs x RUs per RANF x UEs) and
returns a raw scenario mapping; ``to_yaml`` renders it.  The same arguments
always give byte-identical YAML, and the output is an ordinary user
scenario: the benchmark passes it through ``validate_scenario`` and nothing
else of the generator reaches the simulator.

The seed sets the scenario's master seed, the handover picks and times and
the phase offsets of the periodic sources.  The shape and the offered load
do not depend on it, so runs on different seeds do about the same work.

    python3 bench/scengen.py dmimo-cells --seed 3 [--shape 8x2x320]
"""

import argparse
import random
import sys

import yaml

TTI_US = 500


def _mc_bearer(bid, ue, traffic):
    """Mission-critical bearer (slice I)."""
    return {"id": bid, "ue": ue, "latency_req_us": 5_000,
            "reliability_req": 0.99999, "traffic": traffic}


def _moderate_bearer(bid, ue, traffic, ecn=False):
    """Moderate bearer (slice II)."""
    return {"id": bid, "ue": ue, "latency_req_us": 100_000,
            "reliability_req": 0.999, "ecn_capable": ecn, "traffic": traffic}


def _cells(n_ranfs, rus_per_ranf, carrier, cell_link_us, edge_link_us):
    """Sites, fully meshed links, RUs, ring-neighbour RANFs and placement.

    Slice I runs its RRC/UP/PHY at cell-0; slice II its RRC/UP at the
    far-edge cloud and its PHY at cell-0.  Every other cell hosts the
    mandatory OnPrem PHY (bound to slice I), its RRM and one FHM per RU.
    """
    cells = [f"cell-{i}" for i in range(n_ranfs)]
    sites = [{"id": c, "kind": "OnPrem", "cpu_capacity": 100} for c in cells]
    sites.append({"id": "edge", "kind": "FarEdge", "cpu_capacity": 200})
    links = []
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            links.append({"a": a, "b": b, "latency_us": cell_link_us})
        links.append({"a": a, "b": "edge", "latency_us": edge_link_us})
    rus, ranfs = [], []
    placement = [{"id": "cpr", "kind": "CpRouting", "site": "edge"},
                 {"id": "rrc-i", "kind": "RRC", "site": "cell-0", "slice": "I"},
                 {"id": "up-i", "kind": "UP", "site": "cell-0", "slice": "I"},
                 {"id": "phy-i", "kind": "PHY", "site": "cell-0", "slice": "I"},
                 {"id": "rrc-ii", "kind": "RRC", "site": "edge", "slice": "II"},
                 {"id": "up-ii", "kind": "UP", "site": "edge", "slice": "II"},
                 {"id": "phy-ii", "kind": "PHY", "site": "cell-0",
                  "slice": "II"}]
    for i, cell in enumerate(cells):
        ru_ids = [f"ru-{i}-{j}" for j in range(rus_per_ranf)]
        for ru in ru_ids:
            rus.append({"id": ru, "site": cell, "carriers": [carrier["id"]],
                        "fronthaul_latency_us": 50})
            placement.append({"id": f"fhm-{ru}", "kind": "FHM", "site": cell,
                              "bound_ru": ru})
        neighbors = sorted({f"rf-{(i - 1) % n_ranfs}",
                            f"rf-{(i + 1) % n_ranfs}"} - {f"rf-{i}"})
        ranfs.append({"id": f"rf-{i}", "site": cell, "rus": ru_ids,
                      "neighbors": neighbors})
        placement.append({"id": f"rrm-{i}", "kind": "RRM", "site": cell})
        if i:
            placement.append({"id": f"phy-cell-{i}", "kind": "PHY",
                              "site": cell, "slice": "I"})
    return {"sites": sites, "links": links, "carriers": [carrier],
            "rus": rus, "ranfs": ranfs,
            "slices": [{"id": "I"}, {"id": "II"}], "placement": placement}


def dmimo_cells(seed, n_ranfs, rus_per_ranf, n_ues):
    """Many-UE D-MIMO deployment; mostly idle bearers scanned every TTI.

    Each UE has a Poisson mission-critical bearer and a CBR moderate bearer;
    ``dmimo: true`` serves every UE jointly from all RUs of its cell.  A few
    UEs hand over to a ring neighbour mid-run.
    """
    duration_us = 250_000
    rnd = random.Random(f"dmimo-cells:{seed}")
    raw = {"seed": seed, "duration_us": duration_us, "tti_us": TTI_US,
           "dmimo": True, "cn_entry_site": "cell-0",
           "harq": {"processes": 8, "rtt_ttis": 4, "max_tx": 4},
           "bler": {"default": 0.02}}
    raw.update(_cells(n_ranfs, rus_per_ranf,
                      {"id": "c1", "prbs_per_tti": 50, "bytes_per_prb": 120},
                      cell_link_us=1_000, edge_link_us=2_000))
    ues, bearers = [], []
    for k in range(n_ues):
        ue = f"ue-{k}"
        ues.append({"id": ue, "ranf": f"rf-{k % n_ranfs}"})
        bearers.append(_mc_bearer(f"mc-{k}", ue, {
            "pattern": "Poisson", "rate_bytes_per_s": 16_000,
            "sdu_bytes": 200}))
        bearers.append(_moderate_bearer(f"mod-{k}", ue, {
            "pattern": "ConstantBitRate", "rate_bytes_per_s": 24_000,
            "sdu_bytes": 1_200, "start_us": rnd.randrange(0, 50_000)}))
    raw["ues"], raw["bearers"] = ues, bearers
    n_handovers = max(1, n_ues // 80)
    script = []
    for k in sorted(rnd.sample(range(n_ues), n_handovers)):
        at = rnd.randrange(duration_us // 4, 3 * duration_us // 4)
        script.append({"at_us": at, "action": "handover", "ue": f"ue-{k}",
                       "dst": f"rf-{(k % n_ranfs + 1) % n_ranfs}"})
    raw["script"] = sorted(script, key=lambda e: (e["at_us"], e["ue"]))
    return raw


def split_lossy(seed, n_ranfs, rus_per_ranf, n_ues):
    """CU/DU split baseline over a lossy air interface with F1 credit flow.

    Every UE carries a staggered XR frame stream (even UEs L4S/ECN, odd
    UEs Classic) and a periodic mission-critical burst.  Non-reliable HARQ
    with corrupted NACKs leaves recovery to RLC status reports and
    t-reordering; energy saving puts idle RUs to sleep.
    """
    rnd = random.Random(f"split-lossy:{seed}")
    raw = {"seed": seed, "duration_us": 1_000_000, "tti_us": TTI_US,
           "mode": "split_baseline", "reliable_harq": False, "energy": True,
           "cn_entry_site": "cell-0",
           "split": {"d_f1_us": 1_000, "credit_bytes": 24_000},
           "harq": {"processes": 8, "rtt_ttis": 4, "max_tx": 4,
                    "feedback_error_rate": 0.02},
           "rlc": {"window": 64, "max_retx": 3, "status_interval_us": 5_000}}
    raw.update(_cells(n_ranfs, rus_per_ranf,
                      {"id": "c1", "prbs_per_tti": 50, "bytes_per_prb": 100},
                      cell_link_us=1_000, edge_link_us=2_000))
    ues, bearers, bler = [], [], []
    frame_gap = 1_000_000 // 60
    for k in range(n_ues):
        ue = f"ue-{k}"
        rf = k % n_ranfs
        ues.append({"id": ue, "ranf": f"rf-{rf}"})
        # Spread UEs over the RUs of their cell: the home RU is clean
        # (default BLER), every other RU of the cell is worse.
        home = (k // n_ranfs) % rus_per_ranf
        for j in range(rus_per_ranf):
            if j != home:
                bler.append({"ue": ue, "ru": f"ru-{rf}-{j}", "carrier": "c1",
                             "bler": 0.3})
        ecn = k % 2 == 0
        bearers.append(_moderate_bearer(f"xr-{k}", ue, {
            "pattern": "XrFrame", "fps": 60.0, "frame_bytes": 16_000,
            "frame_jitter": 0.3, "sdu_bytes": 1_200,
            "congestion_law": "L4S" if ecn else "Classic",
            "start_us": rnd.randrange(0, frame_gap)}, ecn=ecn))
        bearers.append(_mc_bearer(f"mc-{k}", ue, {
            "pattern": "PeriodicBurst", "burst_period_us": 20_000,
            "burst_bytes": 2_000, "sdu_bytes": 250,
            "start_us": rnd.randrange(0, 20_000)}))
    raw["ues"], raw["bearers"] = ues, bearers
    raw["bler"] = {"default": 0.1, "entries": bler}
    return raw


GENERATORS = {"dmimo-cells": dmimo_cells, "split-lossy": split_lossy}
DEFAULT_SHAPES = {"dmimo-cells": (8, 2, 320), "split-lossy": (2, 2, 32)}


def generate(workload, seed, shape=None):
    """Raw scenario mapping for ``workload`` at ``shape`` (default shape)."""
    n_ranfs, rus_per_ranf, n_ues = shape or DEFAULT_SHAPES[workload]
    return GENERATORS[workload](seed, n_ranfs, rus_per_ranf, n_ues)


def to_yaml(raw):
    return yaml.safe_dump(raw, sort_keys=True, default_flow_style=None,
                          width=100)


def parse_shape(text):
    """'8x2x320' -> (8, 2, 320)."""
    parts = text.lower().split("x")
    if len(parts) != 3 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise argparse.ArgumentTypeError(
            f"shape must be RANFSxRUSxUES with positive integers, got {text!r}")
    return tuple(int(p) for p in parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--shape", type=parse_shape, default=None,
                    help="RANFSxRUS_PER_RANFxUES, e.g. 8x2x320")
    args = ap.parse_args(argv)
    sys.stdout.write(to_yaml(generate(args.workload, args.seed, args.shape)))


if __name__ == "__main__":
    main()
