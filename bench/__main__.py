"""Command line of the performance ledger (see ``bench/README.md``).

    python3 -m bench run --workload W --seed N --seconds S --trace 0|1
    python3 -m bench run [--seed N] [--repeats R] [--trace] [--out F]
    python3 -m bench compare A.json B.json
    python3 -m bench report F.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from bench import results
from bench.spec import ROOT, check_emitted, load_contract, workload_spec

OUT_DIR = os.path.join(ROOT, "bench", "out")


def pin_to_one_cpu() -> None:
    """Keep every thread of this run on one CPU (the highest allowed).

    Only one thread runs Python at a time anyway; letting the threads of
    the ORB spread over cores adds cross-core GIL hand-offs that make the
    async plane ~40 % slower and three times noisier on the 2-core box,
    and a neighbour taking one core then slows every thread hand-off.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control on this platform: run unpinned


def run_one(args, contract) -> int:
    """Run one workload in this process; the last stdout line is its result."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("bench: no src/repro beside the benchmark; it measures a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)  # measure this checkout, not an installed copy
    pin_to_one_cpu()
    from bench.pipeline import run_workload

    spec = workload_spec(args.workload, args.seconds, contract.run_seconds, args.tiny)
    scratch = os.path.join(OUT_DIR, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        outcome = run_workload(
            args.workload, spec, args.seed, bool(args.trace), scratch,
            os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = contract.per_layer if args.trace else contract.end_to_end
    values = outcome.per_layer if args.trace else outcome.end_to_end
    check_emitted(declared, values)
    metrics = {
        name: {"value": value, "unit": declared[name].unit} for name, value in values.items()
    }
    print(f"bench: {args.workload}: host speed factor {outcome.host_speed_factor:.3f}",
          file=sys.stderr)
    for violation in outcome.violations:
        print(f"bench: {args.workload}: {violation}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload, or a whole result set")
    run.add_argument("--workload", choices=sorted(contract.workloads))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=float(contract.run_seconds))
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    run.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    run.add_argument("--repeats", type=int, default=10, help="untraced repeats per workload (set)")
    run.add_argument("--out", help="where to write the result set (set)")

    compare = commands.add_parser("compare", help="judge set B against set A")
    compare.add_argument("a")
    compare.add_argument("b")

    report = commands.add_parser("report", help="print the where-the-time-goes tables of a set")
    report.add_argument("path")

    args = parser.parse_args(argv)
    if args.command == "compare":
        return results.compare(args.a, args.b, contract)
    if args.command == "report":
        return results.report(args.path, contract)
    if args.workload:
        return run_one(args, contract)
    return results.run_set(args, contract)


if __name__ == "__main__":
    sys.exit(main())
