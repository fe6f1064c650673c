"""What the ledger measures: the contract file and the workload sizes.

``BENCHMARK.json`` (repo root) names the workloads and metrics with their
units, directions and regression bounds; this module loads it and holds
what the contract file has no key for — the fixed operation counts of
each workload. Counts are constants, never calibrated at run time, so
two runs of one commit do the same work; the number of rounds scales
linearly with ``--seconds``, and a round is sized so that a run at
``run_seconds`` takes about that long on the 2-core reference box.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Per-layer counts that must repeat exactly between two runs of one
#: commit and seed (``compare`` reports any difference as ``worse``).
EXACT_COUNTS = frozenset({
    "driver.records_per_call",
    "store.query.frames_decoded.operation",
    "store.query.frames_decoded.chain_prefix",
    "store.query.groups_pruned.chain_prefix",
})


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median it may worsen by; None for per-layer
    bound: float | None


@dataclass(frozen=True)
class Contract:
    run_seconds: int
    workloads: dict[str, str]  # name -> why
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]


def load_contract(path: str = CONTRACT_PATH) -> Contract:
    with open(path) as handle:
        raw = json.load(handle)

    def metrics(key: str) -> dict[str, Metric]:
        out = {}
        for entry in raw[key]:
            out[entry["name"]] = Metric(
                entry["name"], entry["unit"], entry["better"], entry.get("bound")
            )
        return out

    contract = Contract(
        run_seconds=raw["run_seconds"],
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end=metrics("end_to_end"),
        per_layer=metrics("per_layer"),
    )
    for name in [*contract.workloads, *contract.end_to_end, *contract.per_layer]:
        if not NAME_RE.match(name):
            raise ValueError(f"BENCHMARK.json: bad name {name!r}")
    return contract


def check_emitted(declared: dict[str, Metric], emitted: dict) -> None:
    """A metric declared but not emitted, or emitted but not declared, is
    an error — the two lists may not drift apart."""
    missing = sorted(set(declared) - set(emitted))
    extra = sorted(set(emitted) - set(declared))
    if missing or extra:
        raise ValueError(
            f"metrics declared but not emitted: {missing}; emitted but not declared: {extra}"
        )


# ----------------------------------------------------------------------
# The call recipe behind ``driver.attributed_share``

PROBE_METRICS = (
    "core.monitor.stub_start_ns", "core.monitor.skel_start_ns",
    "core.monitor.skel_end_ns", "core.monitor.stub_end_ns",
)
_HOP = (
    "orb.fastcdr.marshal_args_ns", "orb.giop.encode_request_ns", "orb.runtime.dispatch_ns",
    "orb.fastcdr.unmarshal_args_ns", *PROBE_METRICS,
)
#: Per traffic shape: layer metric -> how many times one monitored root
#: call pays it. The channel round trips already contain the peer's frame
#: decode and reply encode. The sum over the measured per-call time is
#: ``driver.attributed_share``; the rest is what the ledger cannot yet
#: explain (thread hand-offs, the GIL).
RECIPES: dict[str, dict[str, int]] = {
    "remote_sync": {
        **dict.fromkeys(_HOP, 2),
        "orb.channel.mux_roundtrip_ns": 2,
        "orb.threading_policies.pool_handoff_ns": 2,
        "core.monitor.chain_start_ns": 1,
    },
    "collocated_nested": {**dict.fromkeys(PROBE_METRICS, 4), "core.monitor.chain_start_ns": 1},
    "async_fanout": {
        **dict.fromkeys(_HOP, 1),
        "orb.aio.channel.roundtrip_ns": 1,
        "core.monitor.chain_start_ns": 1,
    },
}


def recipe_us(traffic: str, layer: dict[str, float]) -> float:
    """Sum of the layer times along one monitored root call, in µs."""
    total_ns = sum(layer[metric] * times for metric, times in RECIPES[traffic].items())
    if traffic == "collocated_nested":
        total_ns += layer["driver.unmonitored_call_p50_us"] * 1e3  # the four bare calls
    return total_ns / 1e3


# ----------------------------------------------------------------------
# Workload sizes


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed operation counts of one workload at ``run_seconds``.

    Every workload runs the same pipeline, round after round — online
    ABBA blocks, the record's offline journey, queries over the run just
    sealed, a stream replay — because every run must report every metric;
    what differs is the traffic shape and the records the offline half
    carries. A round is sized once; ``--seconds`` only changes how many
    rounds run, so a metric means the same at any run length.
    """

    #: online traffic shape (see ``bench.worlds``)
    traffic: str
    #: rounds at ``run_seconds``; each ends in one ``collect()`` = one
    #: stored run, and every metric is a median over all rounds' samples
    rounds: int
    #: ABBA quads per round, and root calls per block (4 blocks a quad)
    quads_per_round: int
    block_roots: int
    #: only the last ``kept_quads`` of a round keep their probe records
    #: for the offline journey (earlier ones are drained, counted and
    #: dropped) — decouples how long the call is measured from how many
    #: records the journey must then carry
    kept_quads: int
    #: seeded synthetic chains added to each round's capture (4 processes
    #: on 2 hosts, 70 % flat / 20 % nested / 10 % oneway fork)
    synthetic_chains: int
    #: queries per shape and round (time window, operation, chain prefix
    #: over the round's run; the windows again across ``CROSS_RUNS`` runs)
    queries_per_round: int
    #: chains in flight in the replayed arrival order
    stream_interleave: int
    #: root calls before timing starts, per world
    warmup_roots: int = 300
    #: fewest blocks a block median may rest on
    min_blocks: int = 20

    def scaled(self, factor: float) -> "WorkloadSpec":
        return replace(self, rounds=max(CROSS_RUNS, round(self.rounds * factor)))


#: Share of records delivered late in the replayed arrival order.
STREAM_REORDER = 0.02
#: Stored runs one cross-run query spans (the newest ones).
CROSS_RUNS = 4

WORKLOADS: dict[str, WorkloadSpec] = {
    "remote_sync": WorkloadSpec(
        traffic="remote_sync", rounds=16, quads_per_round=4, block_roots=150,
        kept_quads=4, synthetic_chains=1500, queries_per_round=8, stream_interleave=8,
    ),
    "collocated_nested": WorkloadSpec(
        traffic="collocated_nested", rounds=16, quads_per_round=6, block_roots=300,
        kept_quads=2, synthetic_chains=0, queries_per_round=8, stream_interleave=64,
    ),
    "async_fanout": WorkloadSpec(
        traffic="async_fanout", rounds=16, quads_per_round=3, block_roots=512,
        kept_quads=2, synthetic_chains=1500, queries_per_round=8, stream_interleave=64,
    ),
}

#: ``--tiny``: every workload end to end in a couple of seconds, for the
#: smoke test. Too few blocks for a steady number, enough for every check.
TINY = {
    name: replace(
        spec, rounds=CROSS_RUNS, quads_per_round=2, kept_quads=min(spec.kept_quads, 2),
        block_roots=512 if spec.traffic == "async_fanout" else 90,
        synthetic_chains=min(spec.synthetic_chains, 200), queries_per_round=3,
        warmup_roots=50, min_blocks=4,
    )
    for name, spec in WORKLOADS.items()
}


def workload_spec(name: str, seconds: float, run_seconds: int, tiny: bool = False) -> WorkloadSpec:
    if tiny:
        return TINY[name]
    return WORKLOADS[name].scaled(seconds / run_seconds)
