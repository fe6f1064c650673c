"""The ORPC channel: proxies, dispatch, probes, and channel hooks.

The channel is where the paper's COM story happens:

- instrumented **proxies** fire the stub start/end probes (probes 1/4);
- the **stub-manager dispatch** inside the target apartment fires the
  skeleton start/end probes (probes 2/3);
- the FTL rides the call message — COM's ORPC channel-hook extension
  point — crossing apartments, processes and (simulated) machines;
- with ``causality_hooks=True`` the channel saves the dispatching
  thread's current FTL before an incoming call and restores it after —
  "only a very limited amount of instrumentation before and after call
  sending and dispatching is required to the COM infrastructure"
  (Section 2.2). With hooks off, STA nested pumping mingles chains,
  which the analyzer then reports as abnormal events.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.com.apartments import Apartment, CallMessage, ReplySlot
from repro.com.interfaces import ComInterface, ComObject
from repro.core.events import Domain
from repro.core.records import OperationInfo
from repro.errors import ComError, ComponentCrash, InterfaceNotSupported
from repro.telemetry.metrics import NULL_COUNTER, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

# Framework self-metrics (no-ops until repro.telemetry.enable()).
_CALLS = {"direct": NULL_COUNTER, "channel": NULL_COUNTER}
_DISPATCHES = NULL_COUNTER
_DISPATCH_ERRORS = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _DISPATCHES, _DISPATCH_ERRORS
    registry = registry or NULL_REGISTRY
    calls = registry.counter(
        "repro_orpc_calls_total",
        "COM ORPC proxy calls, by path (direct = same apartment).",
        labels=("path",),
    )
    _CALLS["direct"] = calls.labels("direct")
    _CALLS["channel"] = calls.labels("channel")
    _DISPATCHES = registry.counter(
        "repro_orpc_dispatches_total",
        "Server-side ORPC stub-manager dispatches.",
    )
    _DISPATCH_ERRORS = registry.counter(
        "repro_orpc_dispatch_errors_total",
        "ORPC dispatches whose implementation raised an exception.",
    )


class ObjectIdentity:
    """Server-side identity of one exported object."""

    def __init__(self, obj: ComObject, apartment: Apartment, runtime):
        self.obj = obj
        self.apartment = apartment
        self.runtime = runtime
        self._op_infos: dict[tuple[str, str], OperationInfo] = {}

    @property
    def object_id(self) -> str:
        return f"{self.runtime.process.name}.{self.obj.instance_id}"

    def op_info(self, interface: ComInterface, method: str) -> OperationInfo:
        """The one ``OperationInfo`` of (this object, interface, method).

        The probes cache their site on it, so it is built once and dies
        with the identity instead of being rebuilt on every call.
        """
        key = (interface.name, method)
        info = self._op_infos.get(key)
        if info is None:
            info = self._op_infos[key] = OperationInfo(
                interface.name, method, self.object_id, self.obj.component, Domain.COM
            )
        return info


class Proxy:
    """Client-side interface pointer to an object in another apartment."""

    def __init__(
        self,
        identity: ObjectIdentity,
        interface: ComInterface,
        client_runtime,
    ):
        self._identity = identity
        self._interface = interface
        self._client_runtime = client_runtime

    @property
    def interface(self) -> ComInterface:
        return self._interface

    def query_interface(self, interface: ComInterface) -> "Proxy":
        if not self._identity.obj.supports(interface):
            raise InterfaceNotSupported(
                f"{type(self._identity.obj).__name__} does not support {interface.name}"
            )
        return Proxy(self._identity, interface, self._client_runtime)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in self._interface.methods:
            raise AttributeError(
                f"{self._interface.name} has no method {name!r}"
            )

        def call(*args, **kwargs):
            return invoke_through_channel(
                self._client_runtime, self._identity, self._interface, name, args, kwargs
            )

        call.__name__ = name
        return call

    def __repr__(self) -> str:
        return f"<proxy {self._interface.name} -> {self._identity.object_id}>"


def invoke_through_channel(
    client_runtime,
    identity: ObjectIdentity,
    interface: ComInterface,
    method: str,
    args: tuple,
    kwargs: dict,
) -> Any:
    """One synchronous ORPC call: proxy side.

    Same-apartment calls are direct (COM semantics: no marshalling when
    the caller already lives in the object's apartment).
    """
    apartment = identity.apartment
    monitor = client_runtime.process.monitor if client_runtime.instrumented else None
    op = identity.op_info(interface, method)

    if apartment.hosts_current_thread():
        # Direct call within the apartment — degenerate probe pairs, like
        # the CORBA collocated case.
        _CALLS["direct"].inc()
        if monitor is not None:
            site, ftl = monitor.collocated_call_start(op)
            try:
                return getattr(identity.obj, method)(*args, **kwargs)
            finally:
                monitor.collocated_call_end(site, ftl)
        return getattr(identity.obj, method)(*args, **kwargs)

    # Probe 1: stub start (client side of the channel).
    _CALLS["channel"].inc()
    ctx = monitor.stub_start(op) if monitor is not None else None

    server_runtime = identity.runtime
    marshalled_args = copy.deepcopy(args)
    marshalled_kwargs = copy.deepcopy(kwargs)

    def dispatch(message: CallMessage):
        return _dispatch_on_server(
            server_runtime, identity, interface, method,
            marshalled_args, marshalled_kwargs, message.ftl,
        )

    slot = ReplySlot()
    caller_apartment = client_runtime.apartment_of_current_thread()
    message = CallMessage(
        dispatch=dispatch,
        reply_slot=slot,
        reply_apartment=caller_apartment,
        ftl=ctx.request_ftl_payload if ctx is not None else None,
    )
    apartment.post(message)

    # Wait — on an STA thread this pumps nested dispatches (the hazard).
    if caller_apartment is not None:
        caller_apartment.wait_for_reply(slot, client_runtime.call_timeout)
    else:
        if not slot.done.wait(client_runtime.call_timeout):
            raise ComError("outbound COM call timed out")

    # Probe 4: stub end (reads the thread's FTL from TSS — mingles when
    # hooks are off and the pump dispatched another chain meanwhile).
    if monitor is not None:
        monitor.stub_end(ctx, slot.ftl)
    if slot.error is not None:
        raise slot.error
    return copy.deepcopy(slot.value)


def _dispatch_on_server(
    server_runtime,
    identity: ObjectIdentity,
    interface: ComInterface,
    method: str,
    args: tuple,
    kwargs: dict,
    ftl: bytes | None,
):
    """Server side of the channel: stub-manager dispatch with probes 2/3."""
    monitor = server_runtime.process.monitor if server_runtime.instrumented else None
    op = identity.op_info(interface, method)
    saved_ftl = None
    hooks = server_runtime.causality_hooks and monitor is not None
    if hooks:
        # Channel hook, dispatch enter: save the thread's current FTL so a
        # nested dispatch cannot mingle the chain being pumped over.
        saved_ftl = monitor.current_ftl()
    skel_ctx = monitor.skel_start(op, ftl) if monitor is not None else None
    _DISPATCHES.inc()
    error: BaseException | None = None
    value: Any = None
    try:
        hook = server_runtime.process.fault_hook
        if hook is not None:
            hook.on_dispatch(interface.name, method)
        value = getattr(identity.obj, method)(*args, **kwargs)
    except ComponentCrash as crash:
        # Injected component death mid-call: the skeleton-end probe never
        # fires (the component is gone), but the apartment thread — which
        # models the *host* process's message pump — survives and reports
        # the death to the caller as a channel error.
        _DISPATCH_ERRORS.inc()
        if hooks and saved_ftl is not None:
            monitor.bind_ftl(saved_ftl)
        return None, ComError(f"server component crashed: {crash}"), None
    except BaseException as exc:  # noqa: BLE001 — forwarded to the caller
        error = exc
        _DISPATCH_ERRORS.inc()
    reply_ftl = monitor.skel_end(skel_ctx) if monitor is not None else None
    if hooks and saved_ftl is not None:
        # Channel hook, dispatch exit: restore the interrupted chain.
        monitor.bind_ftl(saved_ftl)
    return value, error, reply_ftl
