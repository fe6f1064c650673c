"""Seeded, fully deterministic fault schedules.

A :class:`FaultPlan` is a pure function from ``(scope, index)`` to a
fault decision. "Scope" names an injection site (a network link such as
``client->server``, a process buffer, a component operation); "index" is
that site's own monotonically increasing operation counter. Decisions
are derived by hashing ``seed || scope || index || kind`` — no shared RNG
stream — so they are

- independent of thread interleavings across sites,
- reproducible from the seed alone (replay a failing run by re-running
  with its plan), and
- stable under insertion/removal of *other* sites.

Every plan serializes to/from JSON so a repro report can carry the exact
schedule that produced it.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field


class FaultKind(str, enum.Enum):
    """The fault taxonomy (see docs/fault-injection.md)."""

    # Message-level faults (network links).
    DROP = "drop"  # payload silently discarded
    DUPLICATE = "duplicate"  # payload delivered twice
    REORDER = "reorder"  # payload held and delivered after the next one
    CORRUPT = "corrupt"  # one byte flipped at a plan-chosen offset
    TRUNCATE = "truncate"  # payload cut short at a plan-chosen length
    RESET = "reset"  # connection closed instead of delivering
    DELAY = "delay"  # extra latency spike charged to the sender
    # Component-level faults.
    CRASH = "crash"  # component dies mid-call; end probes never fire
    # Probe-record delivery faults (probe -> collector path).
    RECORD_LOSS = "record_loss"  # a drained record is lost in transit
    COLLECT_FAIL = "collect_fail"  # a whole drain attempt fails (retryable)


#: Evaluation order when several message-fault rates are nonzero: the
#: first kind whose hash draw clears its rate wins, so one (scope, index)
#: yields at most one fault and the priority is explicit and stable.
MESSAGE_FAULT_PRIORITY: tuple[FaultKind, ...] = (
    FaultKind.RESET,
    FaultKind.DROP,
    FaultKind.DUPLICATE,
    FaultKind.REORDER,
    FaultKind.CORRUPT,
    FaultKind.TRUNCATE,
    FaultKind.DELAY,
)

_FRACTION_DENOM = float(1 << 53)


@dataclass
class FaultPlan:
    """Deterministic fault schedule derived from one integer seed."""

    seed: int
    #: Probability per message fault kind, 0.0 (never) .. 1.0 (always).
    rates: dict[FaultKind, float] = field(default_factory=dict)
    #: Probability that one drained probe record is lost in delivery.
    record_loss_rate: float = 0.0
    #: How many leading drain attempts per process fail transiently.
    collect_fail_attempts: int = 0
    #: ``"Interface::operation" -> k``: crash the hosting component on
    #: the k-th (1-based) dispatch of that operation.
    crash_calls: dict[str, int] = field(default_factory=dict)
    #: Extra latency charged by a DELAY fault, in nanoseconds.
    delay_ns: int = 1_000_000

    def __post_init__(self) -> None:
        self.rates = {FaultKind(kind): float(rate) for kind, rate in self.rates.items()}
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind.value} must be in [0, 1], got {rate}")
        if not 0.0 <= self.record_loss_rate <= 1.0:
            raise ValueError("record_loss_rate must be in [0, 1]")

    # ------------------------------------------------------------------
    # The deterministic draw

    def fraction(self, scope: str, index: int, salt: str = "") -> float:
        """A uniform draw in [0, 1) keyed by (seed, scope, index, salt)."""
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{scope}\x1f{index}\x1f{salt}".encode(),
            digest_size=8,
        ).digest()
        return (int.from_bytes(digest, "big") >> 11) / _FRACTION_DENOM

    def choice(self, scope: str, index: int, salt: str, n: int) -> int:
        """A deterministic integer in [0, n) (corrupt offsets, cut points)."""
        if n <= 0:
            return 0
        return int(self.fraction(scope, index, salt) * n)

    # ------------------------------------------------------------------
    # Message faults

    def message_fault(self, scope: str, index: int) -> FaultKind | None:
        """Which fault (if any) hits the ``index``-th message on ``scope``."""
        for kind in MESSAGE_FAULT_PRIORITY:
            rate = self.rates.get(kind, 0.0)
            if rate and self.fraction(scope, index, kind.value) < rate:
                return kind
        return None

    def schedule(self, scope: str, count: int) -> list[str]:
        """The first ``count`` message decisions for one scope.

        Useful for byte-identical schedule comparisons in tests and for
        embedding the effective schedule into repro reports.
        """
        return [
            (fault.value if (fault := self.message_fault(scope, i)) else "pass")
            for i in range(count)
        ]

    # ------------------------------------------------------------------
    # Record-delivery faults

    def loses_record(self, scope: str, index: int) -> bool:
        rate = self.record_loss_rate
        return bool(rate) and self.fraction(scope, index, "record_loss") < rate

    def drain_fails(self, scope: str, attempt: int) -> bool:
        """Whether drain ``attempt`` (0-based) on ``scope`` fails transiently."""
        return attempt < self.collect_fail_attempts

    # ------------------------------------------------------------------
    # Component crashes

    def crash_at(self, operation: str) -> int | None:
        """1-based call index at which ``operation``'s component dies."""
        return self.crash_calls.get(operation)

    # ------------------------------------------------------------------
    # Serialization (repro reports)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rates": {kind.value: rate for kind, rate in sorted(self.rates.items())},
            "record_loss_rate": self.record_loss_rate,
            "collect_fail_attempts": self.collect_fail_attempts,
            "crash_calls": dict(sorted(self.crash_calls.items())),
            "delay_ns": self.delay_ns,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data["seed"]),
            rates={FaultKind(k): float(v) for k, v in data.get("rates", {}).items()},
            record_loss_rate=float(data.get("record_loss_rate", 0.0)),
            collect_fail_attempts=int(data.get("collect_fail_attempts", 0)),
            crash_calls={str(k): int(v) for k, v in data.get("crash_calls", {}).items()},
            delay_ns=int(data.get("delay_ns", 1_000_000)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


class WindowedDelayPlan(FaultPlan):
    """DELAY every message on one link inside a seed-chosen index window.

    Unlike the rate-based schedules, the window is contiguous: a
    sustained latency regression (what persistence filtering is for)
    rather than isolated spikes. The window starts ``warmup`` plus a
    draw in ``[0, spread)`` keyed by ``draw`` from the base plan's seed,
    so different seeds move the incident around while one seed always
    reproduces it exactly. Every other decision is the base plan's.
    """

    def __init__(self, base: FaultPlan, scope: str, width: int,
                 delay_ns: int, warmup: int, spread: int, draw: str):
        super().__init__(
            seed=base.seed,
            rates=dict(base.rates),
            record_loss_rate=base.record_loss_rate,
            collect_fail_attempts=base.collect_fail_attempts,
            crash_calls=dict(base.crash_calls),
            delay_ns=delay_ns,
        )
        self._base = base
        self.window_scope = scope
        self.window_width = width
        self.window_start = warmup + self.choice(draw, 0, "start", max(1, spread))

    def message_fault(self, scope: str, index: int) -> FaultKind | None:
        if (
            scope == self.window_scope
            and self.window_start <= index < self.window_start + self.window_width
        ):
            return FaultKind.DELAY
        return self._base.message_fault(scope, index)
