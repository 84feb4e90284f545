"""Line reach of ``src/ransim``: print each executable line no run reached.

    python tools/reach.py                      # tier-1 tests and every workload
    python tools/reach.py --tests              # tier-1 tests only
    python tools/reach.py --pins               # golden pins only
    python tools/reach.py --pins --workloads   # golden pins and workloads
    python tools/reach.py --workloads split-lossy --seeds 7

Runs the tier-1 suite in this process (pytest), the golden pins of
``tests/test_golden.py`` (every report case, the TTI series and the
latency CDFs, each checked against its hash) without any other test, and/or
the benchmark workloads of ``bench/run.py`` (its ``WORKLOADS``, at their
own simulated length) once per seed, all under one ``sys.settrace`` hook
that records the lines of ``src/ransim`` it sees.  ``--pins`` lists the
lines that no pinned run reaches: a refactor of them moves no pin.  Each
line is printed as ``path:line: source``, then a count per file.
Executable lines are those the compiler assigns an instruction to, so a
line that runs only when an exception unwinds through it is listed too.

A code object stops being traced once all its lines are reached, so the
cost falls as coverage grows: the whole default run takes about seven
times as long as tier-1 alone.  Uses the standard library only, besides what the
suite and the workloads import.  Exits 1 if a test or a workload failed,
since its reach is then partial; a pin whose hash moved counts as failed.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ransim")
_UNSEEN = object()


def code_lines(code):
    """The line numbers that ``code`` itself (not nested code) runs."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path):
    """Every line of the file at ``path`` that some code object runs."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines |= code_lines(code)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Reach:
    """A ``sys.settrace`` hook recording the ``(file, line)`` pairs run
    in files under ``prefix``."""

    def __init__(self, prefix):
        self.prefix = prefix + os.sep
        self.hit = set()
        self._left = {}  # code -> its lines not reached yet, None if outside

    def _trace(self, frame, event, _arg):
        code = frame.f_code
        path = code.co_filename
        hit = self.hit
        left = self._left.get(code, _UNSEEN)
        if left is _UNSEEN:
            left = self._left[code] = {
                line for line in code_lines(code) if (path, line) not in hit
            } if path.startswith(self.prefix) else None
        if not left:
            return None
        # The call event's line: the def line, or a generator's resume line.
        left.discard(frame.f_lineno)
        hit.add((path, frame.f_lineno))

        def local(frame, event, _arg):
            if event == "line":
                line = frame.f_lineno
                left.discard(line)
                hit.add((path, line))
            return local

        return local

    def __enter__(self):
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


class _NoDeadline:
    """A pytest plugin that lifts the hypothesis deadline of the profile
    the suite loaded: tracing slows every example."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("reach", settings.default, deadline=None)
        settings.load_profile("reach")


def run_tests(pytest_args):
    """Tier-1 in this process; True if it passed."""
    import pytest
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
            os.path.join(ROOT, "tests"), *pytest_args]
    return pytest.main(args, plugins=[_NoDeadline]) == 0


def run_pins():
    """Every golden pin in this process; True if each kept its hash."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import test_golden as golden
    checks = [(f"pin {name}", golden.test_golden_fingerprint, (name,))
              for name in sorted(golden.CASES)]
    checks.append(("pin tti-series", golden.test_golden_tti_series, ()))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        checks += [(f"pin latency-cdf {name}", golden.test_golden_latency_cdf,
                    (name, Path(tmp)))
                   for name in sorted(golden.LATENCY_CDF)]
        for label, check, args in checks:
            try:
                check(*args)
                result = "ok"
            except AssertionError:
                result = "moved"
                ok = False
            print(f"{label}: {result}", flush=True)
    return ok


def run_workloads(names, seeds):
    """Each workload once per seed, as ``bench/run.py`` sets it up; True
    if every run finished and passed the benchmark's report check."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import run as bench  # imports ransim from src/ of this checkout
    ok = True
    for name in names or sorted(bench.WORKLOADS):
        for seed in seeds:
            rt, _ = bench.setup(json.dumps(bench.WORKLOADS[name](seed)))
            problems = bench.check_report(rt.run())
            print(f"workload {name} seed {seed}: "
                  + ("; ".join(problems) or "ok"), flush=True)
            ok = ok and not problems
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tests", action="store_true",
                    help="run the tier-1 suite (default: with the workloads)")
    ap.add_argument("--pins", action="store_true",
                    help="run the golden pins, and no other test")
    ap.add_argument("--workloads", nargs="*", metavar="NAME",
                    help="run these bench workloads, all if none is named")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 301])
    ap.add_argument("pytest_args", nargs="*",
                    help="extra pytest arguments, after --")
    args = ap.parse_args(argv)
    both = not args.tests and not args.pins and args.workloads is None
    ok = True
    with Reach(SRC) as reach:
        if args.tests or both:
            ok = run_tests(args.pytest_args) and ok
        if args.pins:
            ok = run_pins() and ok
        if args.workloads is not None or both:
            ok = run_workloads(args.workloads, args.seeds) and ok

    counts = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        missed = sorted(line for line in executable_lines(path)
                        if (path, line) not in reach.hit)
        with open(path) as fh:
            text = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        counts.append((rel, len(missed)))
    for rel, n in counts:
        print(f"{n:5d} unreached  {rel}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
