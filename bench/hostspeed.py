"""How fast the box is right now, from a fixed reference kernel.

The reference box is a 2-core slice of a shared host, and its speed
drifts: for a minute or for ten, *everything* — a root call, a
compaction, a query, a bare loop — runs 5 to 50 % slower and then
recovers. Medians over a run do not help (the whole run is slow), and
two ten-run sets of one commit then disagree by more than any bound.

So a run takes passes of the kernel below between its timed intervals,
all through the run, and every time and rate it reports end to end is
brought to reference speed: divided (a rate: multiplied) by the run's
host-speed factor, the median pass over what a pass takes on the quiet
reference box (``REFERENCE_NS``). The kernel lives here, in the
benchmark; no change under ``src/`` can make it faster or slower, so a
change to the program still moves a metric one to one.

Two things slow the box, and not together: contention for the core
(interpreter-bound work suffers: calls, frame scans) and for cache and
memory (allocation-heavy work suffers: compaction, graph building, JSON).
The kernel does some of each — across 36 runs on a restless evening it
brought the widest interquartile spread of any timed metric from 22 % of
the median to 7 %; either half alone left 14 % and 11 %.

What this cannot see: a program change that keeps a thread busy *between*
the calls the ledger makes would slow the kernel too and be partly
compensated away. ``driver.host_speed_factor`` (per-layer) is the run's
factor: it should read the same on parent and change.
"""

from __future__ import annotations

import statistics
import struct
import time
from operator import attrgetter, itemgetter

#: One kernel pass on the quiet reference box, ns.
REFERENCE_NS = 2_250_000

_FRAME = struct.Struct("<IqH")
_BY_KEY = attrgetter("key")
_FIRST = itemgetter(0)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def kernel() -> int:
    """One pass, in ns; fixed size, no input. First interpreter work on a
    small working set — slotted objects, attribute and dict access,
    struct packing — then allocation on a large one: thousands of short
    lived dicts, strings and lists, sorted and regrouped."""
    clock = time.perf_counter_ns
    pack, unpack = _FRAME.pack, _FRAME.unpack
    started = clock()
    table: dict[int, int] = {}
    cells = []
    for i in range(1500):
        cell = _Cell(i * 7919 % 1009, i)
        cells.append(cell)
        table[cell.key] = table.get(cell.key, 0) + cell.value
        _serial, product, _low = unpack(pack(i, cell.key * i, i & 0xFFFF))
        cell.value = product
    cells.sort(key=_BY_KEY)

    rows = [(i * 7919 % 1009, {"a": i, "b": str(i)}) for i in range(2500)]
    rows.sort(key=_FIRST)
    groups: dict[int, list[int]] = {}
    for key, row in rows:
        groups.setdefault(key, []).append(row["a"])
    return clock() - started


class HostSpeed:
    """Kernel passes taken all through one run."""

    def __init__(self):
        self.passes_ns: list[int] = []

    def sample(self) -> None:
        self.passes_ns.append(kernel())

    def factor(self) -> float:
        """How much slower than the quiet reference box this run ran."""
        return statistics.median(self.passes_ns) / REFERENCE_NS
