"""Memory of a run against its simulated length and its shape.

    python tools/memory.py                       # 2, 10 and 40 simulated s
    python tools/memory.py --seconds 60 --seed 1
    python tools/memory.py --workload dmimo-cells --shape 16x4x1280

Runs a workload of ``bench/run.py`` (``latency-budgets`` by default) once
per length, set up as the benchmark sets it up; ``--shape RxUxN`` builds a
generated workload at that shape with ``bench/scengen.py``.  The lengths
default to 2, 10 and 40 simulated s for ``latency-budgets`` and to its own
length for any other workload.  ``tracemalloc`` runs from ``Runtime(cfg)``
to the end of ``Runtime.run()``, and each run prints one line: the
simulated seconds, the SDUs delivered, the distinct latencies among them,
the traced MiB after set-up, at the end of the run and at the peak, and the
time of one ``MetricsCollector.to_report`` call made again after the run,
with tracing off.  A run whose state does not grow with simulated time shows
a traced peak that levels off.  Uses the standard library only, besides
what the workloads import; the default lengths take about a minute.
"""

import argparse
import json
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIB = 2**20


def main(argv=None):
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import run as bench  # imports ransim from src/ of this checkout
    import scengen
    import yaml
    from ransim import config as cfgmod
    from ransim.runtime import Runtime

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS),
                    default="latency-budgets")
    ap.add_argument("--shape", type=scengen.parse_shape, default=None,
                    help="RANFSxRUS_PER_RANFxUES of a generated workload")
    ap.add_argument("--seconds", type=float, nargs="+")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.shape is None:
        raw = bench.WORKLOADS[args.workload](args.seed)
    elif args.workload in scengen.GENERATORS:
        raw = yaml.safe_load(scengen.to_yaml(
            scengen.generate(args.workload, args.seed, args.shape)))
    else:
        ap.error(f"--shape applies to {', '.join(sorted(scengen.GENERATORS))}")
    seconds = args.seconds or (
        [2, 10, 40] if args.workload == "latency-budgets"
        else [raw["duration_us"] / 1e6])
    raw_json = json.dumps(raw)
    print("sim_s sdus_delivered distinct_latencies setup_mib end_mib "
          "peak_mib to_report_ms")
    for sim_s in seconds:
        raw = json.loads(raw_json)
        raw["duration_us"] = int(sim_s * 1e6)
        cfg = cfgmod.validate_scenario(raw)
        tracemalloc.start()
        rt = Runtime(cfg)
        setup = tracemalloc.get_traced_memory()[0]
        rt.run()
        end, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        cfg_hash = cfgmod.config_hash(cfg)
        t0 = time.perf_counter()
        rt.metrics.to_report(rt.seed, cfg_hash, rt.duration)
        report_s = time.perf_counter() - t0
        bearers = rt.metrics.bearers.values()
        delivered = sum(bm.delivered for bm in bearers)
        distinct = sum(len(bm.latency_counts) for bm in bearers)
        print(f"{sim_s:g} {delivered} {distinct} {setup / MIB:.2f} "
              f"{end / MIB:.2f} {peak / MIB:.2f} {report_s * 1e3:.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
