"""Command-line front end: validate scenarios, run them, sweep a parameter,
and re-emit recorded results in other formats.
"""

import argparse
import copy
import json
import os
import sys

import yaml

from . import config as cfgmod
from .core import ConfigError, SimulationError
from .metrics import write_latency_cdf, write_summary, write_tti_series_csv
from .runtime import Runtime


def _load(path, overrides):
    cfg = cfgmod.parse_scenario(path)
    for key, value in overrides.items():
        if value is None:
            continue
        cfg[key] = value
    return cfgmod.validate_scenario(cfg)


def _apply_axis(cfg, dotted, value):
    """Set a (possibly nested) config key given as 'section.key'."""
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[part]
    if parts[-1] not in node:
        raise cfgmod.SchemaErrors([f"sweep axis: unknown key {dotted!r}"])
    node[parts[-1]] = value


def _parse_policy_arg(arg):
    """--policy FILE@TIME_US injects a policy file into the script."""
    try:
        path, at = arg.rsplit("@", 1)
        at_us = int(at)
    except ValueError:
        raise SystemExit(f"--policy expects FILE@TIME_US, got {arg!r}")
    with open(path) as fh:
        policy = yaml.safe_load(fh)
    return {"at_us": at_us, "action": "policy", "policy": policy}


def _prepare_out_dir(out_dir):
    if os.path.exists(out_dir):
        if not os.path.isdir(out_dir):
            raise SystemExit(f"output path {out_dir!r} exists and is not a directory")
    else:
        os.makedirs(out_dir)


def _run_one(cfg, out_dir):
    rt = Runtime(cfg, record_series=bool(out_dir))  # for tti-series.csv
    report = rt.run()
    if out_dir:
        _prepare_out_dir(out_dir)
        cfgmod.dump_resolved(cfg, os.path.join(out_dir, "resolved-config.yaml"))
        write_summary(report, os.path.join(out_dir, "summary.json"))
        write_tti_series_csv(rt.metrics.tti_series,
                             os.path.join(out_dir, "tti-series.csv"))
        write_latency_cdf(rt.metrics, os.path.join(out_dir, "latency-cdf.csv"))
    return report


def cmd_validate(args):
    try:
        cfg = cfgmod.parse_scenario(args.scenario)
    except cfgmod.SchemaErrors as exc:
        print("invalid scenario:")
        for err in exc.errors:
            print(f"  {err}")
        return 1
    print(f"ok: {args.scenario} (config hash {cfgmod.config_hash(cfg)})")
    return 0


def cmd_run(args):
    overrides = {"seed": args.seed, "duration_us": args.duration,
                 "mode": args.mode}
    cfg = _load(args.scenario, overrides)
    if args.policy:
        # A new list: the default ``script`` list is shared between configs.
        cfg["script"] = cfg["script"] + [_parse_policy_arg(a)
                                         for a in args.policy]
        cfg = cfgmod.validate_scenario(cfg)
    report = _run_one(cfg, args.out_dir)
    if not args.out_dir:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"wrote {args.out_dir}/summary.json "
              f"(seed={report['seed']}, hash={report['config_hash']})")
    return 0


def cmd_sweep(args):
    key, _, values = args.axis.partition("=")
    if not values:
        raise SystemExit("--axis expects KEY=V1,V2,...")
    parsed = [yaml.safe_load(v) for v in values.split(",")]
    base = _load(args.scenario, {"seed": args.seed, "mode": args.mode})
    rows = []
    for value in parsed:
        cfg = copy.deepcopy(base)
        _apply_axis(cfg, key, value)
        cfg = cfgmod.validate_scenario(cfg)
        out = os.path.join(args.out_dir, f"{key.replace('.', '_')}={value}") \
            if args.out_dir else None
        report = _run_one(cfg, out)
        for bid, b in sorted(report["bearers"].items()):
            rows.append((value, bid, b["latency_us"]["p50"],
                         b["latency_us"]["p99"], b["delivered"]))
    print(f"{key:>24} {'bearer':>12} {'p50_us':>10} {'p99_us':>10} {'delivered':>10}")
    for value, bid, p50, p99, delivered in rows:
        print(f"{value!s:>24} {bid:>12} {p50!s:>10} {p99!s:>10} {delivered:>10}")
    return 0


def cmd_emit(args):
    with open(args.summary) as fh:
        report = json.load(fh)
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    # text: one line per bearer plus run provenance
    print(f"seed={report['seed']} hash={report['config_hash']} "
          f"duration_us={report['duration_us']}")
    for bid, b in sorted(report["bearers"].items()):
        lat = b["latency_us"]
        print(f"  {bid}: in={b['packets_in']} out={b['delivered']} "
              f"aqm={b['aqm_drops']} residual={b['residual']} "
              f"p50={lat['p50']} p99={lat['p99']} p100={lat['p100']}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ransim",
        description="Deterministic RAN simulator (monolithic RANF and "
                    "CU/DU-split baseline modes)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=int, default=None, metavar="US")
    p.add_argument("--mode", choices=[cfgmod.MODE_SIXG, cfgmod.MODE_SPLIT],
                   default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--policy", action="append", metavar="FILE@TIME_US",
                   help="inject an orchestration policy at a given time")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a scenario across one parameter axis")
    p.add_argument("scenario")
    p.add_argument("--axis", required=True, metavar="KEY=V1,V2,...")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=[cfgmod.MODE_SIXG, cfgmod.MODE_SPLIT],
                   default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("emit", help="re-emit a recorded summary")
    p.add_argument("summary")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_emit)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
