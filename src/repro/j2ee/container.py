"""The J2EE-like container: deployment, pooling, dispatch, naming.

Differences from the other two runtimes, on purpose:

- **no IDL**: remote interfaces come from reflection over the bean class
  (dynamic proxies), so this exercises the probes without any generated
  code;
- **container-managed threading**: one fixed worker pool per container
  dispatches every incoming call (observation O1 holds — workers block on
  nested outbound calls, they never pump);
- **instance pooling**: stateless beans are served by any free pooled
  instance, stateful beans by their handle's dedicated instance with
  calls serialized per handle.

Causality: the dynamic proxy fires probes 1/4, the container dispatch
fires probes 2/3, and the FTL rides the call message — identical
semantics to the CORBA/COM paths, which is the point of the paper's
future-work claim.
"""

from __future__ import annotations

import copy
import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import Domain
from repro.core.records import OperationInfo
from repro.errors import ReproError
from repro.j2ee.beans import (
    STATEFUL,
    STATELESS,
    BeanHandle,
    bean_kind,
    remote_methods,
)
from repro.platform.process import SimProcess


class EjbError(ReproError):
    """Raised for container lifecycle and dispatch failures."""


@dataclass
class _Deployment:
    bean_name: str
    bean_class: type
    kind: str
    methods: tuple[str, ...]
    #: stateless: the shared instance pool; stateful: per-handle instances
    free_instances: "queue.Queue[Any]" = field(default_factory=queue.Queue)
    stateful_instances: dict[str, Any] = field(default_factory=dict)
    stateful_locks: dict[str, threading.Lock] = field(default_factory=dict)


@dataclass
class _EjbCall:
    deployment: _Deployment
    handle: BeanHandle
    method: str
    args: tuple
    kwargs: dict
    ftl: bytes | None
    done: threading.Event = field(default_factory=threading.Event)
    value: Any = None
    error: BaseException | None = None
    reply_ftl: bytes | None = None


def _op_info(deployment: _Deployment, handle: BeanHandle, method: str) -> OperationInfo:
    """One ``OperationInfo`` per (bean handle, method), kept on the handle."""
    info = handle.op_infos.get(method)
    if info is None:
        info = handle.op_infos[method] = OperationInfo(
            handle.bean_name, method, handle.object_id,
            deployment.bean_class.__name__, Domain.J2EE,
        )
    return info


class Container:
    """One EJB-style container bound to a simulated process."""

    _handle_counter = itertools.count(1)

    def __init__(
        self,
        process: SimProcess,
        name: str | None = None,
        instrumented: bool = True,
        worker_threads: int = 4,
        stateless_pool_size: int = 3,
        call_timeout: float = 30.0,
    ):
        if worker_threads < 1 or stateless_pool_size < 1:
            raise EjbError("worker_threads and stateless_pool_size must be >= 1")
        self.process = process
        self.name = name or f"{process.name}-container"
        self.instrumented = instrumented
        self.stateless_pool_size = stateless_pool_size
        self.call_timeout = call_timeout
        self._deployments: dict[str, _Deployment] = {}
        self._inbox: "queue.Queue[_EjbCall | None]" = queue.Queue()
        self._lock = threading.Lock()
        self._stopping = False
        self._worker_idents: set[int] = set()
        self._workers = [
            process.spawn_thread(self._worker, name=f"ejb-{self.name}-{i}")
            for i in range(worker_threads)
        ]
        process.attach(self)

    # ------------------------------------------------------------------
    # Deployment

    def deploy(
        self,
        bean_class: type,
        bean_name: str | None = None,
        factory: Callable[[], Any] | None = None,
    ) -> BeanHandle:
        """Deploy a session bean; returns a handle for remote use.

        ``factory`` builds instances (defaults to the class with no
        arguments). Stateless beans are instantiated
        ``stateless_pool_size`` times up front; stateful beans once per
        handle (see :meth:`create_handle`).
        """
        kind = bean_kind(bean_class)
        bean_name = bean_name or bean_class.__name__
        methods = remote_methods(bean_class)
        factory = factory or bean_class
        with self._lock:
            if bean_name in self._deployments:
                raise EjbError(f"bean {bean_name!r} already deployed in {self.name}")
            deployment = _Deployment(
                bean_name=bean_name, bean_class=bean_class, kind=kind, methods=methods
            )
            self._deployments[bean_name] = deployment
        if kind == STATELESS:
            for _ in range(self.stateless_pool_size):
                deployment.free_instances.put(factory())
            handle_id = f"{bean_name}.pool"
            return BeanHandle(self.name, bean_name, handle_id, methods)
        # Stateful: the deploy-time handle owns the first instance.
        return self.create_handle(bean_name, factory)

    def create_handle(
        self, bean_name: str, factory: Callable[[], Any] | None = None
    ) -> BeanHandle:
        """Create a new stateful-bean handle with its own instance."""
        deployment = self._deployment(bean_name)
        if deployment.kind != STATEFUL:
            raise EjbError(f"{bean_name} is stateless; handles are not per-client")
        factory = factory or deployment.bean_class
        handle_id = f"{bean_name}.{next(self._handle_counter)}"
        with self._lock:
            deployment.stateful_instances[handle_id] = factory()
            deployment.stateful_locks[handle_id] = threading.Lock()
        return BeanHandle(self.name, bean_name, handle_id, deployment.methods)

    def _deployment(self, bean_name: str) -> _Deployment:
        with self._lock:
            deployment = self._deployments.get(bean_name)
        if deployment is None:
            raise EjbError(f"no bean {bean_name!r} deployed in {self.name}")
        return deployment

    # ------------------------------------------------------------------
    # Dispatch (server side: probes 2/3)

    def _worker(self) -> None:
        self._worker_idents.add(threading.get_ident())
        while True:
            call = self._inbox.get()
            if call is None:
                return
            self._execute(call)
            call.done.set()

    def hosts_current_thread(self) -> bool:
        return threading.get_ident() in self._worker_idents

    def _execute(self, call: _EjbCall) -> None:
        monitor = self.process.monitor if self.instrumented else None
        op = _op_info(call.deployment, call.handle, call.method)
        skel_ctx = monitor.skel_start(op, call.ftl) if monitor is not None else None
        try:
            call.value = self._invoke_bean(call)
        except BaseException as exc:  # noqa: BLE001 — forwarded to caller
            call.error = exc
        call.reply_ftl = monitor.skel_end(skel_ctx) if monitor is not None else None

    def _invoke_bean(self, call: _EjbCall) -> Any:
        deployment = call.deployment
        if deployment.kind == STATELESS:
            try:
                instance = deployment.free_instances.get(timeout=self.call_timeout)
            except queue.Empty:
                raise EjbError(
                    f"stateless pool of {deployment.bean_name} exhausted"
                ) from None
            try:
                return getattr(instance, call.method)(*call.args, **call.kwargs)
            finally:
                deployment.free_instances.put(instance)
        instance = deployment.stateful_instances.get(call.handle.handle_id)
        if instance is None:
            raise EjbError(f"stale stateful handle {call.handle.handle_id}")
        lock = deployment.stateful_locks[call.handle.handle_id]
        with lock:  # stateful contract: calls serialized per handle
            return getattr(instance, call.method)(*call.args, **call.kwargs)

    # ------------------------------------------------------------------
    # Client side (probes 1/4) — used by the dynamic proxy

    def invoke(
        self,
        client_process: SimProcess,
        handle: BeanHandle,
        method: str,
        args: tuple,
        kwargs: dict,
        client_instrumented: bool,
    ) -> Any:
        deployment = self._deployment(handle.bean_name)
        if method not in deployment.methods:
            raise EjbError(f"{handle.bean_name} exports no method {method!r}")
        monitor = client_process.monitor if client_instrumented else None
        op = _op_info(deployment, handle, method)
        ctx = monitor.stub_start(op) if monitor is not None else None
        call = _EjbCall(
            deployment=deployment,
            handle=handle,
            method=method,
            args=copy.deepcopy(args),  # RMI serialization analogue
            kwargs=copy.deepcopy(kwargs),
            ftl=ctx.request_ftl_payload if ctx is not None else None,
        )
        self._inbox.put(call)
        if not call.done.wait(self.call_timeout):
            raise EjbError(f"call to {handle.bean_name}.{method} timed out")
        if monitor is not None:
            monitor.stub_end(ctx, call.reply_ftl)
        if call.error is not None:
            raise call.error
        return copy.deepcopy(call.value)

    def shutdown(self) -> None:
        self._stopping = True
        for _ in self._workers:
            self._inbox.put(None)


class DynamicProxy:
    """Client-side dynamic proxy over a bean handle (EJB remote stub)."""

    def __init__(self, container: Container, handle: BeanHandle,
                 client_process: SimProcess, instrumented: bool = True):
        self._container = container
        self._handle = handle
        self._client_process = client_process
        self._instrumented = instrumented

    @property
    def handle(self) -> BeanHandle:
        return self._handle

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in self._handle.methods:
            raise AttributeError(f"{self._handle.bean_name} has no method {name!r}")

        def call(*args, **kwargs):
            return self._container.invoke(
                self._client_process, self._handle, name, args, kwargs,
                self._instrumented,
            )

        call.__name__ = name
        return call

    def __repr__(self) -> str:
        return f"<ejb proxy {self._handle!r} from {self._client_process.name}>"


class Jndi:
    """A naming service: bean names to (container, handle) bindings."""

    def __init__(self):
        self._bindings: dict[str, tuple[Container, BeanHandle]] = {}
        self._lock = threading.Lock()

    def bind(self, name: str, container: Container, handle: BeanHandle) -> None:
        with self._lock:
            if name in self._bindings:
                raise EjbError(f"JNDI name already bound: {name!r}")
            self._bindings[name] = (container, handle)

    def lookup(
        self, name: str, client_process: SimProcess, instrumented: bool = True
    ) -> DynamicProxy:
        with self._lock:
            binding = self._bindings.get(name)
        if binding is None:
            raise EjbError(f"JNDI name not found: {name!r}")
        container, handle = binding
        return DynamicProxy(container, handle, client_process, instrumented)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._bindings)
