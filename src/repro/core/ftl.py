"""The Function-Transportable Log (FTL).

The FTL is the paper's central data structure (Figure 3): a pair of

- ``global_function_id`` — the *Function UUID* identifying one causal
  chain, and
- ``event_seq_no`` — a counter incremented at every tracing event
  encountered along the chain.

It is the only datum transported through the virtual tunnel. Crucially it
is **constant size** — probes update it in place and never concatenate log
records onto it, which is what distinguishes it from the Trace-Object
baseline (related work [2], [21]) and lets chains grow without a message
size barrier.

Wire format: 16 bytes of UUID, 8 bytes of signed big-endian sequence
number (the sequence can legitimately be ``-1`` for a freshly forked chain
whose first event has not yet been numbered).
"""

from __future__ import annotations

import itertools
import struct
import uuid as _uuid
from dataclasses import dataclass, field

_WIRE = struct.Struct(">16sq")

#: Size in bytes of a marshalled FTL — constant, independent of chain length.
FTL_WIRE_SIZE = _WIRE.size


def random_uuid_factory() -> str:
    """Default Function-UUID source: RFC 4122 random UUIDs as 32-hex strings."""
    return _uuid.uuid4().hex


class SequentialUuidFactory:
    """Deterministic Function-UUID source for tests and seeded experiments.

    Produces ``<prefix><counter>`` padded to 32 hex characters, unique per
    factory instance and thread-safe: the counter is an ``itertools.count``
    whose ``__next__`` is atomic under the GIL, so minting takes no lock.
    Share one instance across every simulated process in a run to keep
    chain ids globally unique.
    """

    def __init__(self, prefix: str = "c0"):
        if len(prefix) > 8 or any(ch not in "0123456789abcdef" for ch in prefix):
            raise ValueError("prefix must be <=8 lowercase hex characters")
        width = 32 - len(prefix)
        self._next = itertools.count(1).__next__
        #: The first counter value that no longer fits beside the prefix.
        self._limit = 16**width
        self._format = f"{prefix}{{:0{width}x}}".format

    def __call__(self) -> str:
        counter = self._next()
        if counter >= self._limit:
            raise OverflowError("uuid counter exhausted the 32-hex space")
        return self._format(counter)


@dataclass(slots=True)
class FunctionTxLog:
    """One FTL instance, mutated in place as it travels the tunnel.

    ``to_bytes`` runs on every remote probe crossing, so the hex-decoded
    UUID half of the wire image is memoized on first use (the UUID is
    fixed for the instance's lifetime; only the sequence half changes).
    """

    chain_uuid: str
    event_seq_no: int = -1
    #: Memoized ``bytes.fromhex(chain_uuid)``; excluded from equality so
    #: a marshalled/unmarshalled pair still compares equal.
    _raw_uuid: bytes | None = field(default=None, repr=False, compare=False)

    def advance(self) -> int:
        """Consume the next event number and return it.

        Called by every probe: "event numbers are incremented along the
        function chain at each time a tracing event is encountered".
        """
        self.event_seq_no += 1
        return self.event_seq_no

    def fork_child(self, uuid_factory=random_uuid_factory) -> "FunctionTxLog":
        """Create the FTL for a fresh child chain (oneway dispatch).

        The child starts before its first event (``event_seq_no == -1``)
        so that the callee-side skeleton start probe numbers itself 0.
        """
        return FunctionTxLog(chain_uuid=uuid_factory(), event_seq_no=-1)

    def copy(self) -> "FunctionTxLog":
        return FunctionTxLog(self.chain_uuid, self.event_seq_no, self._raw_uuid)

    def to_bytes(self) -> bytes:
        """Marshal to the constant-size wire format."""
        raw = self._raw_uuid
        if raw is None:
            raw = self._raw_uuid = bytes.fromhex(self.chain_uuid)
        return _WIRE.pack(raw, self.event_seq_no)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "FunctionTxLog":
        """Unmarshal from the wire format."""
        if len(payload) != _WIRE.size:
            raise ValueError(f"FTL payload must be {_WIRE.size} bytes, got {len(payload)}")
        raw_uuid, seq = _WIRE.unpack(payload)
        return cls(chain_uuid=raw_uuid.hex(), event_seq_no=seq, _raw_uuid=bytes(raw_uuid))


def new_chain(uuid_factory=random_uuid_factory) -> FunctionTxLog:
    """Start a brand-new causal chain (a root invocation)."""
    return FunctionTxLog(chain_uuid=uuid_factory(), event_seq_no=-1)
