"""Integration: observations O1/O2 — causality survives every threading policy."""

import threading

import pytest

from repro.analysis import reconstruct_from_records
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb, ThreadPerConnection, ThreadPerRequest, ThreadPool

IDL = """
module TP {
  interface Svc {
    long step(in long depth);
  };
};
"""


def run_workload(cluster, policy, clients=4, calls=3):
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)
    server = cluster.process(f"server-{policy.name}")
    server_orb = Orb(server, cluster.network, policy=policy, registry=registry)

    class SvcImpl(compiled.Svc):
        self_stub = None

        def step(self, depth):
            cluster.clock.consume(500)
            if depth > 0:
                return self.self_stub.step(depth - 1) + 1
            return 0

    impl = SvcImpl()
    ref = server_orb.activate(impl)
    impl.self_stub = server_orb.resolve(ref)

    threads = []
    for index in range(clients):
        client = cluster.process(f"client-{policy.name}-{index}")
        orb = Orb(client, cluster.network, registry=registry)
        stub = orb.resolve(ref)

        def work(stub=stub):
            for _ in range(calls):
                assert stub.step(2) == 2

        threads.append(threading.Thread(target=work))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    records = []
    for process in cluster.processes:
        records.extend(process.log_buffer.drain())
    return reconstruct_from_records(records)


@pytest.mark.parametrize(
    "policy_factory",
    [ThreadPerRequest, ThreadPerConnection, lambda: ThreadPool(size=2)],
    ids=["thread-per-request", "thread-per-connection", "thread-pool"],
)
def test_chains_never_intertwine(cluster, policy_factory):
    dscg = run_workload(cluster, policy_factory())
    stats = dscg.stats()
    # 4 client threads: each produces one chain of 3 sibling roots with
    # 2 nested recursion levels each = 3 nodes per root.
    assert stats["chains"] == 4
    assert stats["nodes"] == 4 * 3 * 3
    assert stats["abnormal_events"] == 0
    assert stats["max_depth"] == 3
    for tree in dscg.chains.values():
        assert len(tree.roots) == 3


def test_thread_per_request_does_not_keep_finished_threads(cluster):
    # One thread per call served: the server process must not go on
    # tracking every thread it ever spawned.
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)
    server = cluster.process("server-tpr")
    server_orb = Orb(server, cluster.network, policy=ThreadPerRequest(),
                     registry=registry)

    class SvcImpl(compiled.Svc):
        def step(self, depth):
            return depth

    ref = server_orb.activate(SvcImpl())
    client = cluster.process("client-tpr")
    stub = Orb(client, cluster.network, registry=registry).resolve(ref)
    calls = 300
    for index in range(calls):
        assert stub.step(index) == index
    tracked = server._threads
    live = sum(1 for thread in tracked if thread.is_alive())
    assert len(tracked) <= 2 * live + 16 < calls
    server.shutdown()
    assert not any(thread.is_alive() for thread in server._threads)


def test_pool_threads_are_recycled_with_fresh_ftls(cluster):
    # A pool of ONE thread serves every request; the single recycled
    # thread must be re-annotated with each incoming call's FTL (O2).
    dscg = run_workload(cluster, ThreadPool(size=1), clients=3, calls=2)
    assert dscg.stats()["abnormal_events"] == 0
    assert dscg.stats()["chains"] == 3
    server_threads = set()
    for node in dscg.walk():
        entity = node.server_thread
        if entity is not None and "server" in entity[0]:
            server_threads.add(entity)
    # every top-level dispatch ran on the same recycled pool thread
    top_level_threads = {
        node.server_thread
        for tree in dscg.chains.values()
        for node in tree.roots
    }
    assert len(top_level_threads) == 1
