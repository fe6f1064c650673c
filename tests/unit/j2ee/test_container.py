"""Unit tests for the J2EE-like container."""

import threading
import time

import pytest

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.j2ee import Container, EjbError, Jndi, bean_kind, remote_methods, stateful, stateless
from repro.platform import Host, PlatformKind, SimProcess, VirtualClock


@stateless
class Echo:
    def ping(self, n):
        return n

    def shout(self, text):
        return text.upper()

    def _internal(self):
        return "hidden"


@stateful
class Counter:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
        return self.count


def make_env(prefix="ea"):
    clock = VirtualClock()
    process = SimProcess("svr", Host("h", PlatformKind.HPUX_11, clock=clock))
    MonitoringRuntime(
        process,
        MonitorConfig(mode=MonitorMode.CAUSALITY,
                      uuid_factory=SequentialUuidFactory(prefix)),
    )
    return clock, process, Container(process, "c1")


class TestBeanModel:
    def test_kind_detection(self):
        assert bean_kind(Echo) == "stateless"
        assert bean_kind(Counter) == "stateful"

    def test_undecorated_rejected(self):
        class Plain:
            def m(self):
                return 1

        with pytest.raises(TypeError):
            bean_kind(Plain)

    def test_remote_interface_by_reflection(self):
        assert remote_methods(Echo) == ("ping", "shout")

    def test_private_methods_not_exported(self):
        assert "_internal" not in remote_methods(Echo)

    def test_methodless_bean_rejected(self):
        @stateless
        class Empty:
            pass

        with pytest.raises(TypeError):
            remote_methods(Empty)


class TestStateless:
    def test_invoke_through_proxy(self):
        clock, process, container = make_env()
        handle = container.deploy(Echo)
        jndi = Jndi()
        jndi.bind("echo", container, handle)
        proxy = jndi.lookup("echo", process)
        assert proxy.ping(7) == 7
        assert proxy.shout("hi") == "HI"
        assert process.shutdown() == []

    def test_pool_shares_instances_across_calls(self):
        clock, process, container = make_env("eb")

        created = []

        @stateless
        class Tracked:
            def __init__(self):
                created.append(self)

            def whoami(self):
                return id(self)

        handle = container.deploy(Tracked)
        proxy = Jndi()
        jndi = Jndi()
        jndi.bind("t", container, handle)
        p = jndi.lookup("t", process)
        ids = {p.whoami() for _ in range(10)}
        assert len(created) == container.stateless_pool_size
        assert ids <= {id(instance) for instance in created}
        assert process.shutdown() == []

    def test_private_method_not_callable(self):
        clock, process, container = make_env("ec")
        handle = container.deploy(Echo)
        jndi = Jndi()
        jndi.bind("echo", container, handle)
        proxy = jndi.lookup("echo", process)
        with pytest.raises(AttributeError):
            proxy._internal()
        assert process.shutdown() == []

    def test_exceptions_propagate(self):
        clock, process, container = make_env("ed")

        @stateless
        class Bomb:
            def go(self):
                raise ValueError("boom")

        handle = container.deploy(Bomb)
        jndi = Jndi()
        jndi.bind("bomb", container, handle)
        with pytest.raises(ValueError, match="boom"):
            jndi.lookup("bomb", process).go()
        assert process.shutdown() == []

    def test_args_are_serialized_copies(self):
        clock, process, container = make_env("ee")

        @stateless
        class Taker:
            def take(self, data):
                data.append("server")
                return data

        handle = container.deploy(Taker)
        jndi = Jndi()
        jndi.bind("taker", container, handle)
        original = ["client"]
        result = jndi.lookup("taker", process).take(original)
        assert original == ["client"]
        assert result == ["client", "server"]
        assert process.shutdown() == []


class TestStateful:
    def test_state_preserved_per_handle(self):
        clock, process, container = make_env("ef")
        handle = container.deploy(Counter)
        jndi = Jndi()
        jndi.bind("counter", container, handle)
        proxy = jndi.lookup("counter", process)
        assert [proxy.bump() for _ in range(3)] == [1, 2, 3]
        assert process.shutdown() == []

    def test_handles_are_isolated(self):
        clock, process, container = make_env("f0")
        first = container.deploy(Counter)
        second = container.create_handle("Counter")
        jndi = Jndi()
        jndi.bind("a", container, first)
        jndi.bind("b", container, second)
        a = jndi.lookup("a", process)
        b = jndi.lookup("b", process)
        a.bump()
        a.bump()
        assert b.bump() == 1
        assert process.shutdown() == []

    def test_create_handle_rejects_stateless(self):
        clock, process, container = make_env("f1")
        container.deploy(Echo)
        with pytest.raises(EjbError):
            container.create_handle("Echo")
        assert process.shutdown() == []


class TestContainerLifecycle:
    def test_duplicate_deploy_rejected(self):
        clock, process, container = make_env("f2")
        container.deploy(Echo)
        with pytest.raises(EjbError):
            container.deploy(Echo)
        assert process.shutdown() == []

    def test_unknown_jndi_name(self):
        clock, process, container = make_env("f3")
        with pytest.raises(EjbError):
            Jndi().lookup("ghost", process)
        assert process.shutdown() == []

    def test_duplicate_jndi_bind_rejected(self):
        clock, process, container = make_env("f4")
        handle = container.deploy(Echo)
        jndi = Jndi()
        jndi.bind("echo", container, handle)
        with pytest.raises(EjbError):
            jndi.bind("echo", container, handle)
        assert process.shutdown() == []

    def test_concurrent_clients(self):
        clock, process, container = make_env("f5")
        handle = container.deploy(Echo)
        jndi = Jndi()
        jndi.bind("echo", container, handle)
        proxy = jndi.lookup("echo", process)
        results = []
        threads = [
            threading.Thread(target=lambda i=i: results.append(proxy.ping(i)))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(results) == list(range(8))
        assert process.shutdown() == []

    def test_process_shutdown_stops_the_container_workers(self):
        # The container registers with its process, so shutdown wakes its
        # workers instead of waiting out the join budget on their inbox.
        _, process, container = make_env()
        assert container.invoke(process, container.deploy(Echo), "ping", (1,), {}, True) == 1
        started = time.monotonic()
        assert process.shutdown() == []
        assert time.monotonic() - started < 1.5
