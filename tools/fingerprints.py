"""Report fingerprints of the benchmark workloads, to compare two trees.

    python tools/fingerprints.py                         # every workload
    python tools/fingerprints.py --workloads split-lossy --seeds 7

Runs each workload of ``bench/run.py`` (its ``WORKLOADS``, at their own
simulated length) once per seed, set up as the benchmark sets it up, and
prints one line ``workload seed fingerprint events`` per run: the SHA-256
of the report (``bench/run.py``'s ``fingerprint``) and the number of
event handlers run.  A refactor must print the same fingerprints; the
event counts say what it saved.  Uses the standard library only, besides
what the workloads import; the default run takes about ten seconds.  Exits
1 if a report fails the benchmark's report check.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", metavar="NAME")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 301])
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import run as bench  # imports ransim from src/ of this checkout
    ok = True
    for name in args.workloads or sorted(bench.WORKLOADS):
        for seed in args.seeds:
            rt, _ = bench.setup(json.dumps(bench.WORKLOADS[name](seed)))
            report = rt.run()
            problems = bench.check_report(report)
            print(name, seed, bench.fingerprint(report),
                  rt.sim.events_processed, flush=True)
            for problem in problems:
                print(f"  {problem}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
