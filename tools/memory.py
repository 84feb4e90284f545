"""Memory of a run against its simulated length.

    python tools/memory.py                       # 2, 10 and 40 simulated s
    python tools/memory.py --seconds 60 --seed 1

Runs ``scenarios/latency-budgets.yaml`` once per length, with ``tracemalloc``
on from set-up to the end of ``Runtime.run()``, and prints one line per run:
the simulated seconds, the SDUs delivered, the distinct latencies among
them, the traced peak in MiB and the time of one ``MetricsCollector.
to_report`` call made again after the run, with tracing off.  A run whose
state does not grow with simulated time shows a traced peak that levels
off.  Uses the standard library only, besides ransim from ``src/`` of this
checkout; the default lengths take about a minute.
"""

import argparse
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, nargs="+", default=[2, 10, 40])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ransim import config as cfgmod
    from ransim.runtime import Runtime
    path = os.path.join(ROOT, "scenarios", "latency-budgets.yaml")
    print("sim_s sdus_delivered distinct_latencies traced_peak_mib "
          "to_report_ms")
    for seconds in args.seconds:
        cfg = cfgmod.parse_scenario(path)
        cfg.update(seed=args.seed, duration_us=int(seconds * 1e6))
        cfg = cfgmod.validate_scenario(cfg)  # as ``ransim run`` overrides
        tracemalloc.start()
        rt = Runtime(cfg)
        rt.run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        cfg_hash = cfgmod.config_hash(cfg)
        t0 = time.perf_counter()
        rt.metrics.to_report(rt.seed, cfg_hash, rt.duration)
        report_s = time.perf_counter() - t0
        bearers = rt.metrics.bearers.values()
        delivered = sum(bm.delivered for bm in bearers)
        distinct = sum(len(set(bm.latencies)) for bm in bearers)
        print(f"{seconds:g} {delivered} {distinct} {peak / 2**20:.2f} "
              f"{report_s * 1e3:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
