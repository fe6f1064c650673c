"""Unit tests for the Function-Transportable Log."""

import itertools
import sys
import threading
import uuid

import pytest

from repro.core.ftl import (
    FTL_WIRE_SIZE,
    FunctionTxLog,
    SequentialUuidFactory,
    new_chain,
    random_uuid_factory,
)


class TestFunctionTxLog:
    def test_new_chain_starts_before_first_event(self):
        ftl = new_chain()
        assert ftl.event_seq_no == -1

    def test_advance_increments(self):
        ftl = new_chain()
        assert ftl.advance() == 0
        assert ftl.advance() == 1
        assert ftl.event_seq_no == 1

    def test_fork_child_has_fresh_uuid_and_reset_seq(self):
        parent = new_chain()
        parent.advance()
        child = parent.fork_child()
        assert child.chain_uuid != parent.chain_uuid
        assert child.event_seq_no == -1
        assert parent.event_seq_no == 0

    def test_copy_is_independent(self):
        ftl = new_chain()
        ftl.advance()
        dup = ftl.copy()
        dup.advance()
        assert ftl.event_seq_no == 0
        assert dup.event_seq_no == 1

    def test_wire_roundtrip(self):
        ftl = FunctionTxLog(chain_uuid="ab" * 16, event_seq_no=12345)
        payload = ftl.to_bytes()
        assert len(payload) == FTL_WIRE_SIZE
        restored = FunctionTxLog.from_bytes(payload)
        assert restored == ftl

    def test_wire_roundtrip_negative_seq(self):
        ftl = FunctionTxLog(chain_uuid="00" * 16, event_seq_no=-1)
        assert FunctionTxLog.from_bytes(ftl.to_bytes()).event_seq_no == -1

    def test_wire_size_is_constant(self):
        ftl = new_chain()
        sizes = set()
        for _ in range(1000):
            ftl.advance()
            sizes.add(len(ftl.to_bytes()))
        assert sizes == {FTL_WIRE_SIZE}

    def test_from_bytes_rejects_bad_length(self):
        with pytest.raises(ValueError):
            FunctionTxLog.from_bytes(b"short")


class TestUuidFactories:
    def test_random_factory_unique(self):
        seen = {random_uuid_factory() for _ in range(100)}
        assert len(seen) == 100
        assert all(len(u) == 32 for u in seen)

    def test_sequential_factory_deterministic(self):
        f1 = SequentialUuidFactory("ab")
        f2 = SequentialUuidFactory("ab")
        assert [f1() for _ in range(5)] == [f2() for _ in range(5)]

    def test_sequential_factory_unique_and_hex(self):
        factory = SequentialUuidFactory()
        values = [factory() for _ in range(50)]
        assert len(set(values)) == 50
        for value in values:
            assert len(value) == 32
            bytes.fromhex(value)  # must be valid hex

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            SequentialUuidFactory("xyz")
        with pytest.raises(ValueError):
            SequentialUuidFactory("a" * 9)

    def test_thread_safety(self):
        factory = SequentialUuidFactory()
        results = []

        def worker():
            results.extend(factory() for _ in range(200))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 800

    @staticmethod
    def _old_formula(prefix: str, counter: int) -> str:
        """The factory's output as it was first specified: the prefix, then
        the counter in lowercase hex, zero-padded between them to 32."""
        body = f"{counter:x}"
        return prefix + "0" * (32 - len(prefix) - len(body)) + body

    @pytest.mark.parametrize("prefix", ["", "c0", "5e", "abcdef01"])
    def test_sequential_factory_matches_the_old_formula(self, prefix):
        limit = 16 ** (32 - len(prefix))
        for counter in (1, 15, 16, 2**32, 2**64, limit - 1):
            if counter >= limit:
                continue
            factory = SequentialUuidFactory(prefix)
            factory._next = itertools.count(counter).__next__
            minted = factory()
            assert minted == self._old_formula(prefix, counter)
            assert len(minted) == 32

    def test_sequential_factory_counts_from_one(self):
        factory = SequentialUuidFactory("c0")
        assert [factory() for _ in range(3)] == [
            self._old_formula("c0", n) for n in (1, 2, 3)
        ]

    @pytest.mark.parametrize("prefix", ["", "c0", "abcdef01"])
    def test_sequential_factory_overflows_at_the_limit(self, prefix):
        factory = SequentialUuidFactory(prefix)
        factory._next = itertools.count(16 ** (32 - len(prefix))).__next__
        with pytest.raises(OverflowError):
            factory()

    def test_sequential_factory_is_unique_under_contention(self):
        factory = SequentialUuidFactory("ab")
        per_thread = [[] for _ in range(8)]

        def worker(out):
            for _ in range(5000):
                out.append(factory())

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(out,)) for out in per_thread]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(previous)
        minted = [value for out in per_thread for value in out]
        assert len(minted) == 40000
        assert len(set(minted)) == 40000

    def test_random_factory_is_rfc4122_version_4(self):
        minted = [random_uuid_factory() for _ in range(10000)]
        assert len(set(minted)) == 10000
        for value in minted:
            assert len(value) == 32
            assert value == value.lower()
            parsed = uuid.UUID(value)
            assert parsed.version == 4
            assert parsed.variant == uuid.RFC_4122
            assert parsed.hex == value
