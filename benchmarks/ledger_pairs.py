"""Interleaved parent/change pairs of one ledger workload, with a verdict.

A performance PR has to show its claim the way section 8 of the
``choosing-metrics`` guide asks: pairs of runs of the parent commit and of
the change, alternating which side runs first (the host drifts by tens of
percent over minutes, so a drift must fall on both sides), each side's
median and quartiles, and the share of pairs the change won. This script
is that procedure, so that no PR hand-rolls it again::

    python3 benchmarks/ledger_pairs.py --parent <rev> --workload W --pairs N [--tiny]

It unpacks ``<rev>`` into a temporary directory (``git archive``: the
committed files only, and nothing is left behind in ``.git``), then runs
``python3 -m bench run --workload W --seed S --trace 0`` alternately in
that tree and in this one — odd pairs parent first, even pairs change
first, a fresh seed per pair — and prints, per end-to-end metric of
``BENCHMARK.json``, both sides' quartiles, the pairs won and a verdict:

- ``gain``        at least ten pairs were run, the change won at least 9/10
                  of them (ties count for neither side) and the medians
                  differ, in the metric's better direction, by more than
                  the distance between the parent's own quartiles;
- otherwise what ``python3 -m bench compare`` says (``bench.results.verdict``):
  ``unresolved`` where a side's interquartile distance is a larger share of
  its median than the metric's bound (unless every run of the change beats
  every run of the parent: ``better``), else ``worse`` / ``better`` /
  ``within`` for the change's median against the parent's and the bound.

Exit status 1 if any run printed ``"correct": false``. Standard library
plus the ledger's own ``quartiles`` / ``verdict`` / contract loader;
nothing under ``bench/`` is touched. Fewer than ten pairs (CI runs
one, ``--tiny``, so the script cannot rot) support no claim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# The ledger's own definitions, so that a verdict here and one from
# `python3 -m bench compare` cannot drift apart.
from bench.results import verdict  # noqa: E402
from bench.spec import load_contract  # noqa: E402
from bench.stats import quartiles  # noqa: E402


def unpack_revision(rev: str, into: str) -> None:
    """The committed files of ``rev``, as ``git archive`` gives them."""
    git = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", into], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or untar.returncode:
        raise SystemExit(f"ledger_pairs: could not unpack revision {rev!r}")


def run_once(tree: str, workload: str, seed: int, tiny: bool) -> dict:
    """One untraced ledger run in ``tree``; its result line as a dict."""
    command = [sys.executable, "-m", "bench", "run", "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"], result["correct"]
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"ledger_pairs: no result line from {' '.join(command)} in {tree}"
            f" (exit {done.returncode})"
        )
    return result


def judge(parent: list[float], change: list[float], better: str, bound: float):
    """(pairs won by the change, ties, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    improvement = sign * (median - quartiles(change)[1])
    if len(parent) >= 10 and won >= 0.9 * len(parent) and improvement > q3 - q1:
        return won, ties, "gain"
    return won, ties, verdict(parent, change, better, bound)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--out", help="also write every run's values here, as JSON")
    args = parser.parse_args(argv)

    declared = load_contract().end_to_end
    values = {side: {name: [] for name in declared} for side in ("parent", "change")}
    incorrect = 0
    parent_tree = tempfile.mkdtemp(prefix="ledger-parent-")
    try:
        unpack_revision(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed, args.tiny)
                if not result["correct"]:
                    incorrect += 1
                for name, series in values[side].items():
                    series.append(result["metrics"][name]["value"])
                print(f"pair {pair + 1}/{args.pairs} seed {seed} {side:6s}"
                      f" correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    print(f"{args.workload}: {args.pairs} pairs, parent {args.parent},"
          f" seeds {args.seed}..{args.seed + args.pairs - 1}"
          + (" (fewer than ten pairs: no claim can rest on this)" if args.pairs < 10 else ""))
    print(f"{'metric':30s} {'unit':>9s}  {'parent q1 / median / q3':>36s}"
          f"  {'change q1 / median / q3':>36s}  {'change':>7s}  won  verdict")
    for name, metric in declared.items():
        parent, change = values["parent"][name], values["change"][name]
        won, ties, outcome = judge(parent, change, metric.better, metric.bound)
        p, c = quartiles(parent), quartiles(change)
        delta = (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
        print(f"{name:30s} {metric.unit:>9s}"
              f"  {p[0]:>11.5g} {p[1]:>11.5g} {p[2]:>11.5g}"
              f"  {c[0]:>11.5g} {c[1]:>11.5g} {c[2]:>11.5g}"
              f"  {delta:>+7.1%}  {won}/{args.pairs}  {outcome}"
              + (f" ({ties} tied)" if ties else ""))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "parent": args.parent,
                       "first_seed": args.seed, "tiny": args.tiny, "values": values},
                      handle, indent=1)
    if incorrect:
        print(f"{incorrect} run(s) printed \"correct\": false", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
