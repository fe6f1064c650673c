"""Result sets: run one, validate its schema, compare two, report one.

A *set* is one JSON document: a fingerprint of machine and commit, and
per workload every metric with its unit, direction, bound, sample count
and the raw value of every repeat (summarised as median and quartiles,
never best-of-N). Each repeat ran in a fresh subprocess.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from bench import stats
from bench.spec import EXACT_COUNTS, RECIPES, ROOT, WORKLOADS, Contract, check_emitted

SCHEMA = "repro-bench-set/1"


# ----------------------------------------------------------------------
# Running a set


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _run_workload(name: str, args, trace: int) -> tuple[dict, float]:
    command = [
        sys.executable, "-m", "bench", "run", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.tiny:
        command.append("--tiny")
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: no result line (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{name}: run was not correct (exit {done.returncode})")
    return result, wall


def _summary(metric, values: list[float]) -> dict:
    q1, median, q3 = stats.quartiles(values)
    entry = {
        "unit": metric.unit, "better": metric.better, "samples": len(values),
        "median": median, "q1": q1, "q3": q3, "values": values,
    }
    if metric.bound is not None:
        entry["bound"] = metric.bound
    return entry


def run_set(args, contract: Contract) -> int:
    document = {
        "schema": SCHEMA,
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "loadavg_1m_start": os.getloadavg()[0],
        "workloads": {},
    }
    # Repeat by repeat, not workload by workload: a slow minute of the box
    # then costs one repeat of several workloads, not every repeat of one.
    runs: dict[str, list[dict]] = {name: [] for name in contract.workloads}
    walls: dict[str, list[float]] = {name: [] for name in contract.workloads}
    for repeat in range(args.repeats):
        for name in contract.workloads:
            print(f"bench: {name} repeat {repeat + 1}/{args.repeats}", file=sys.stderr)
            result, wall = _run_workload(name, args, trace=0)
            runs[name].append(result)
            walls[name].append(wall)
    for name in contract.workloads:
        entry = {
            "wall_s": walls[name],
            "attempted": [run["attempted"] for run in runs[name]],
            "failed": [run["failed"] for run in runs[name]],
            "end_to_end": {
                metric: _summary(
                    contract.end_to_end[metric],
                    [run["metrics"][metric]["value"] for run in runs[name]],
                )
                for metric in contract.end_to_end
            },
        }
        if args.trace:
            print(f"bench: {name} traced", file=sys.stderr)
            traced, wall = _run_workload(name, args, trace=1)
            entry["traced_wall_s"] = wall
            entry["per_layer"] = {
                metric: _summary(contract.per_layer[metric], [traced["metrics"][metric]["value"]])
                for metric in contract.per_layer
            }
        document["workloads"][name] = entry
    document["loadavg_1m_end"] = os.getloadavg()[0]
    validate(document, contract)
    text = json.dumps(document, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print_set(document)
    return 0


def print_set(document: dict) -> None:
    """Every metric by name, with unit, direction and bound."""
    for name, entry in document["workloads"].items():
        print(f"\n{name}")
        for kind in ("end_to_end", "per_layer"):
            for metric, summary in entry.get(kind, {}).items():
                bound = f" bound {summary['bound']:.0%}" if "bound" in summary else ""
                print(
                    f"  {metric:48s} {summary['median']:>14.4f} {summary['unit']:<9s}"
                    f" [{summary['q1']:.4f} .. {summary['q3']:.4f}] n={summary['samples']}"
                    f" {summary['better']} is better{bound}"
                )


def validate(document: dict, contract: Contract) -> None:
    """Schema check: names well-formed and exactly the contract's lists."""
    if document.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} document")
    if set(document["workloads"]) != set(contract.workloads):
        raise ValueError("set does not hold exactly the contract's workloads")
    for name, entry in document["workloads"].items():
        for kind, declared in (
            ("end_to_end", contract.end_to_end), ("per_layer", contract.per_layer)
        ):
            if kind not in entry:
                if kind == "end_to_end":
                    raise ValueError(f"{name}: no end-to-end metrics")
                continue
            emitted = entry[kind]
            check_emitted(declared, emitted)  # the declared names are checked on load
            for metric, summary in emitted.items():
                if summary["unit"] != declared[metric].unit:
                    raise ValueError(f"{name}.{metric}: unit differs from BENCHMARK.json")
                if summary["samples"] != len(summary["values"]) or not summary["values"]:
                    raise ValueError(f"{name}.{metric}: sample count does not match values")


# ----------------------------------------------------------------------
# Comparing two sets


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``within`` / ``better`` / ``worse`` / ``unresolved`` for B against A.

    B is worse (better) when its median is worse (better) than A's by
    more than ``bound`` of A's median. When either side's own spread is
    wider than the bound the difference cannot be resolved — unless every
    run of B reads better than every run of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a = stats.quartiles(a)[1]
    worsening = sign * (stats.quartiles(b)[1] - median_a) / abs(median_a)
    if max(stats.spread(a), stats.spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if all_better else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def compare(path_a: str, path_b: str, contract: Contract) -> int:
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    for document in (set_a, set_b):
        validate(document, contract)
    counts = {"within": 0, "better": 0, "worse": 0, "unresolved": 0}
    for name in contract.workloads:
        a, b = set_a["workloads"][name], set_b["workloads"][name]
        print(f"\n{name}")
        for metric, declared in contract.end_to_end.items():
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            outcome = verdict(va["values"], vb["values"], declared.better, declared.bound)
            counts[outcome] += 1
            change = (vb["median"] - va["median"]) / va["median"]
            print(
                f"  {outcome:10s} {metric:32s} {va['median']:>12.4f} -> {vb['median']:>12.4f}"
                f" {declared.unit:<9s} {change:+.1%} (bound {declared.bound:.0%},"
                f" spreads {stats.spread(va['values']):.1%} / {stats.spread(vb['values']):.1%})"
            )
        if "per_layer" in a and "per_layer" in b:
            for metric in sorted(EXACT_COUNTS):
                va, vb = a["per_layer"][metric]["values"], b["per_layer"][metric]["values"]
                outcome = "within" if va == vb else "worse"
                counts[outcome] += 1
                print(f"  {outcome:10s} {metric:32s} {va} -> {vb} (exact count)")
    print("\n" + ", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    return 1 if counts["worse"] else 0


# ----------------------------------------------------------------------
# Where the time goes


def report(path: str, contract: Contract) -> int:
    """Markdown tables ranked by time, from one set's traced runs — the
    README's "where the time goes" section is this output, verbatim.
    Layer and stage times are the traced run's, brought to reference
    speed with that run's own host-speed factor."""
    with open(path) as handle:
        document = json.load(handle)
    validate(document, contract)
    for name in contract.workloads:
        entry = document["workloads"][name]
        layer = {metric: summary["median"] for metric, summary in entry["per_layer"].items()}
        _report_call(name, entry["end_to_end"], layer)
        _report_journey(name, entry["end_to_end"], layer)
    return 0


def _report_call(name: str, e2e: dict, layer: dict) -> None:
    traffic = WORKLOADS[name].traffic
    factor = layer["driver.host_speed_factor"]
    per_call_us = 1e6 / e2e["monitored_calls_per_s"]["median"]
    rows = [
        (layer[metric] * times / 1e3 / factor, f"`{metric}` x {times}")
        for metric, times in RECIPES[traffic].items()
    ]
    if traffic == "collocated_nested":
        rows.append(
            (layer["driver.unmonitored_call_p50_us"] / factor, "bare calls (unmonitored p50)")
        )
    explained = sum(us for us, _ in rows)
    rows.append((per_call_us - explained, "not attributed (hand-offs, GIL, loop)"))
    print(f"\n**One monitored root call, `{name}`** — {per_call_us:.1f} µs per call\n")
    print("| layer | µs | share |\n|---|---:|---:|")
    for us, label in sorted(rows, reverse=True):
        print(f"| {label} | {us:.2f} | {us / per_call_us:.1%} |")


def _report_journey(name: str, e2e: dict, layer: dict) -> None:
    factor = layer["driver.host_speed_factor"]
    total = e2e["capture_to_report_s"]["median"]
    stages = [
        "collector.drain_s", "store.store.scan_spool_s", "store.store.compact_s",
        "analysis.statemachine.reconstruct_s", "analysis.latency.annotate_s",
        "analysis.cpu.annotate_s", "analysis.ccsg.build_s", "analysis.serialize.dscg_json_s",
        "analysis.xmlview.ccsg_xml_s",
    ]
    print(f"\n**One round's offline journey, `{name}`** — {total:.3f} s"
          " (`capture_to_report_s`, untraced median)\n")
    print("| stage | s (traced run) |\n|---|---:|")
    for metric in sorted(stages, key=layer.__getitem__, reverse=True):
        print(f"| `{metric}` | {layer[metric] / factor:.3f} |")
