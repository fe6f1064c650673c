"""Runtime support for IDL-generated stubs and skeletons.

The code generator emits subclasses of :class:`StubBase` and
:class:`SkeletonBase`; the probe calls appear explicitly in the generated
method bodies (that is the paper's source-level instrumentation), while
marshalling, transport and the result-tuple convention live here.

Result convention (follows the OMG Python mapping): a servant method
receives the ``in``/``inout`` parameters in declaration order and returns

- nothing (``None``) if the operation is void with no out parameters,
- the single result if exactly one of {non-void return, out parameters}
  yields one value,
- a tuple ``(return_value, out1, out2, ...)`` otherwise.
"""

from __future__ import annotations

import inspect
import threading
from typing import TYPE_CHECKING, Any

from repro.core.events import Domain
from repro.core.records import OperationInfo
from repro.errors import ComponentCrash, MarshalError, OrbError, RemoteApplicationError
from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.fastcdr import MarshalPlan

if TYPE_CHECKING:  # repro.idl sits above repro.orb: type names only
    from repro.idl.semantics import ResolvedInterface, ResolvedOperation
from repro.orb.giop import ReplyMessage, ReplyStatus, RequestMessage
from repro.orb.refs import ObjectRef


class InterfaceRegistry:
    """Global map from scoped interface name to its generated classes.

    Populated when a compiled IDL module is loaded; used by
    ``Orb.resolve`` to pick the stub class for an incoming object
    reference (e.g. a callback parameter).
    """

    def __init__(self):
        self._entries: dict[str, dict[str, type]] = {}
        self._lock = threading.Lock()

    def register(
        self, interface: str, stub_class: type, skeleton_class: type, servant_base: type
    ) -> None:
        with self._lock:
            self._entries[interface] = {
                "stub": stub_class,
                "skeleton": skeleton_class,
                "servant": servant_base,
            }

    def stub_class(self, interface: str) -> type:
        with self._lock:
            try:
                return self._entries[interface]["stub"]
            except KeyError:
                raise OrbError(f"no stub registered for interface {interface}") from None

    def skeleton_class(self, interface: str) -> type:
        with self._lock:
            try:
                return self._entries[interface]["skeleton"]
            except KeyError:
                raise OrbError(f"no skeleton registered for interface {interface}") from None


#: Process-wide registry shared by every compiled IDL module.
GLOBAL_INTERFACE_REGISTRY = InterfaceRegistry()


def _args_plan(op: "ResolvedOperation") -> MarshalPlan:
    """The operation's compiled argument plan, built at first use."""
    plan = op.__dict__.get("_args_plan")
    if plan is None:
        plan = op.__dict__["_args_plan"] = MarshalPlan(
            [param.idl_type for param in op.in_params]
        )
    return plan


def _result_plan(op: "ResolvedOperation") -> MarshalPlan:
    """Compiled plan for [return?] + out parameters, built at first use."""
    plan = op.__dict__.get("_result_plan")
    if plan is None:
        types = [] if op.return_type.is_void else [op.return_type]
        types.extend(param.idl_type for param in op.out_params)
        plan = op.__dict__["_result_plan"] = MarshalPlan(types)
    return plan


def _marshal_args(op: "ResolvedOperation", values: tuple) -> bytes | bytearray:
    """Encode the in/inout arguments of one invocation."""
    plan = _args_plan(op)
    if len(values) != plan.arity:
        raise MarshalError(
            f"{op.name} expects {plan.arity} argument(s), got {len(values)}"
        )
    return plan.marshal(values)


def _unmarshal_args(op: "ResolvedOperation", body) -> tuple:
    return _args_plan(op).unmarshal(body)


def _result_values(op: "ResolvedOperation", result: Any) -> list:
    """Normalize a servant return value into [return?] + outs order."""
    slots = _result_plan(op).arity
    if slots == 0:
        if result is not None:
            raise MarshalError(f"{op.name} is void but servant returned {result!r}")
        return []
    if slots == 1:
        return [result]
    if not isinstance(result, tuple) or len(result) != slots:
        raise MarshalError(
            f"{op.name} must return a {slots}-tuple (return value then out parameters)"
        )
    return list(result)


def _marshal_result(op: "ResolvedOperation", result: Any) -> bytes | bytearray:
    values = _result_values(op, result)
    return _result_plan(op).marshal(values)


def _unmarshal_result(op: "ResolvedOperation", body) -> Any:
    values = _result_plan(op).unmarshal(body)
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return values


def _marshal_user_exception(op: "ResolvedOperation", exc: Exception) -> bytes:
    encoder = CdrEncoder()
    for exc_type in op.raises:
        if isinstance(exc, exc_type.py_class):
            encoder.write_string(exc_type.idl_name)
            exc_type.marshal(encoder, exc)
            return encoder.getvalue()
    raise MarshalError(f"{type(exc).__name__} is not declared in {op.name}'s raises clause")


def _unmarshal_user_exception(op: "ResolvedOperation", body: bytes) -> Exception:
    decoder = CdrDecoder(body)
    exc_name = decoder.read_string()
    for exc_type in op.raises:
        if exc_type.idl_name == exc_name:
            exc = exc_type.unmarshal(decoder)
            decoder.expect_exhausted()
            return exc
    return RemoteApplicationError(exc_name, "undeclared user exception")


def _marshal_system_exception(exc: BaseException) -> bytes:
    encoder = CdrEncoder()
    encoder.write_string(type(exc).__name__)
    encoder.write_string(str(exc))
    return encoder.getvalue()


def _unmarshal_system_exception(body: bytes) -> RemoteApplicationError:
    decoder = CdrDecoder(body)
    exc_type = decoder.read_string()
    message = decoder.read_string()
    return RemoteApplicationError(exc_type, message)


class _OperationInfos(dict):
    """One stub's or skeleton's :class:`OperationInfo` per operation name.

    Generated code reads ``self._op_infos["op"]``: a hit is a C-level dict
    subscript, and ``__missing__`` builds the entry on the first read.
    ``OperationInfo`` is frozen, so one instance per (stub, op) is safely
    shared across every probe of every call.
    """

    __slots__ = ("_interface", "_object_id", "_component")

    def __init__(self, interface: str, object_id: str, component: str):
        super().__init__()
        self._interface = interface
        self._object_id = object_id
        self._component = component

    def __missing__(self, name: str) -> OperationInfo:
        info = self[name] = OperationInfo(
            interface=self._interface,
            operation=name,
            object_id=self._object_id,
            component=self._component,
            domain=Domain.CORBA,
        )
        return info


class StubBase:
    """Client-side proxy base; generated subclasses add one method per op."""

    _interface: str = "?"
    _resolved: "ResolvedInterface"
    _instrumented: bool = False

    def __init__(self, orb, object_ref: ObjectRef):
        self._orb = orb
        self.object_ref = object_ref
        self._op_infos = _OperationInfos(
            self._interface, object_ref.object_key, object_ref.component
        )

    # -- helpers used by generated code --------------------------------

    @property
    def _monitor(self):
        return self._orb.process.monitor

    def _op(self, name: str) -> "ResolvedOperation":
        return self._resolved.operation(name)

    def _semantics_args(self, op_name: str, args: tuple) -> dict:
        """Application-semantics payload for probe 1 (parameters); the
        generated code calls it only while the monitor captures semantics."""
        return {"operation": op_name, "args": [repr(a) for a in args]}

    def _remote_call(self, op_name: str, args: tuple, ctx) -> ReplyMessage:
        body = _marshal_args(self._op(op_name), args)
        ftl = ctx.request_ftl_payload if ctx is not None else None
        return self._orb.send_request(
            self.object_ref, op_name, body, oneway=False, ftl=ftl
        )

    def _oneway_call(self, op_name: str, args: tuple, ctx) -> None:
        body = _marshal_args(self._op(op_name), args)
        ftl = ctx.request_ftl_payload if ctx is not None else None
        self._orb.send_request(self.object_ref, op_name, body, oneway=True, ftl=ftl)

    async def _remote_call_async(self, op_name: str, args: tuple, ctx) -> ReplyMessage:
        """Awaitable twin of :meth:`_remote_call` (asyncio plane)."""
        body = _marshal_args(self._op(op_name), args)
        ftl = ctx.request_ftl_payload if ctx is not None else None
        return await self._orb.send_request_async(
            self.object_ref, op_name, body, oneway=False, ftl=ftl
        )

    async def _oneway_call_async(self, op_name: str, args: tuple, ctx) -> None:
        body = _marshal_args(self._op(op_name), args)
        ftl = ctx.request_ftl_payload if ctx is not None else None
        await self._orb.send_request_async(
            self.object_ref, op_name, body, oneway=True, ftl=ftl
        )

    def _decode_reply(self, op_name: str, reply: ReplyMessage) -> Any:
        op = self._op(op_name)
        if reply.status is ReplyStatus.OK:
            return _unmarshal_result(op, reply.body)
        if reply.status is ReplyStatus.USER_EXCEPTION:
            raise _unmarshal_user_exception(op, reply.body)
        raise _unmarshal_system_exception(reply.body)

    def _call_servant(self, servant, op_name: str, args: tuple) -> Any:
        """Direct collocated invocation (bypassing the skeleton)."""
        hook = self._orb.process.fault_hook
        if hook is not None:
            # Collocated calls still dispatch "into" the component; a
            # plan-scheduled crash fires here, mid-call.
            hook.on_dispatch(self._interface, op_name)
        method = getattr(servant, op_name)
        result = method(*args)
        # Validate the result shape so collocated and remote calls agree.
        _result_values(self._op(op_name), result)
        return result

    def _collocated_call_plain(self, op_name: str, servant, args: tuple) -> Any:
        return self._call_servant(servant, op_name, args)

    def _collocated_call_probed(self, op_name: str, servant, args: tuple) -> Any:
        """Collocated call with the degenerate probe pairs of Section 2.2."""
        monitor = self._monitor
        if monitor is None:
            return self._call_servant(servant, op_name, args)
        site, ftl = monitor.collocated_call_start(self._op_infos[op_name])
        try:
            result = self._call_servant(servant, op_name, args)
        except ComponentCrash:
            # The component died mid-call: probes 3 and 4 never fire (the
            # process that would run them is gone). The open frame shows
            # up as a partial chain in the analyzer — by design.
            raise
        except BaseException:
            monitor.collocated_call_end(site, ftl)
            raise
        monitor.collocated_call_end(site, ftl)
        return result

    async def _call_servant_async(self, servant, op_name: str, args: tuple) -> Any:
        """Direct collocated invocation awaiting an async servant method."""
        hook = self._orb.process.fault_hook
        if hook is not None:
            hook.on_dispatch(self._interface, op_name)
        result = getattr(servant, op_name)(*args)
        if inspect.isawaitable(result):
            result = await result
        _result_values(self._op(op_name), result)
        return result

    async def _collocated_call_plain_async(
        self, op_name: str, servant, args: tuple
    ) -> Any:
        return await self._call_servant_async(servant, op_name, args)

    async def _collocated_call_probed_async(
        self, op_name: str, servant, args: tuple
    ) -> Any:
        """Async collocated call with the degenerate probe pairs.

        Probe semantics match :meth:`_collocated_call_probed`; the FTL
        lives in the calling task's context, so the ``await`` suspension
        cannot leak it to other tasks sharing the loop thread.
        """
        monitor = self._monitor
        if monitor is None:
            return await self._call_servant_async(servant, op_name, args)
        site, ftl = monitor.collocated_call_start(self._op_infos[op_name])
        try:
            result = await self._call_servant_async(servant, op_name, args)
        except ComponentCrash:
            raise
        except BaseException:
            monitor.collocated_call_end(site, ftl)
            raise
        monitor.collocated_call_end(site, ftl)
        return result

    def __repr__(self) -> str:
        return f"<stub {self._interface} -> {self.object_ref.to_url()}>"


class SkeletonBase:
    """Server-side dispatcher base; generated subclasses add _dispatch_*."""

    _interface: str = "?"
    _resolved: "ResolvedInterface"
    _instrumented: bool = False

    def __init__(self, servant, orb, object_key: str, component: str = ""):
        self.servant = servant
        self._orb = orb
        self.object_key = object_key
        self.component = component or type(servant).__name__
        self._op_infos = _OperationInfos(self._interface, object_key, self.component)
        self._dispatch_cache: dict[str, Any] = {}

    @property
    def _monitor(self):
        return self._orb.process.monitor

    def _op(self, name: str) -> "ResolvedOperation":
        return self._resolved.operation(name)

    def dispatch(self, request: RequestMessage) -> ReplyMessage | None:
        """Route a decoded request to the generated per-operation handler."""
        operation = request.operation
        handler = self._dispatch_cache.get(operation)
        if handler is None:
            handler = getattr(self, f"_dispatch_{operation}", None)
            if handler is not None:
                self._dispatch_cache[operation] = handler
        if handler is None:
            if request.oneway:
                return None
            return ReplyMessage(
                request_id=request.request_id,
                status=ReplyStatus.SYSTEM_EXCEPTION,
                body=_marshal_system_exception(
                    OrbError(f"unknown operation {request.operation!r} on {self._interface}")
                ),
            )
        return handler(request)

    # -- helpers used by generated code --------------------------------

    def _decode_args(self, op_name: str, body: bytes) -> tuple:
        args = _unmarshal_args(self._op(op_name), body)
        return tuple(self._orb.localize(value) for value in args)

    def _semantics_outcome(self, status: ReplyStatus, result: Any) -> dict:
        """Application-semantics payload for probe 3 (result/exception); the
        generated code calls it only while the monitor captures semantics."""
        if status is ReplyStatus.OK:
            return {"status": "ok", "result": repr(result)}
        return {"status": status.name.lower(), "exception": repr(result)}

    def _execute(self, op_name: str, args: tuple) -> tuple[ReplyStatus, Any]:
        """Run the servant method, classifying the outcome.

        An injected :class:`ComponentCrash` is a ``BaseException`` and
        deliberately escapes this classifier: a dead component sends no
        reply and fires no further probes.
        """
        op = self._op(op_name)
        declared = tuple(exc_type.py_class for exc_type in op.raises)
        hook = self._orb.process.fault_hook
        if hook is not None:
            hook.on_dispatch(self._interface, op_name)
        try:
            result = getattr(self.servant, op_name)(*args)
            return ReplyStatus.OK, result
        except declared as exc:  # user exception listed in raises(...)
            return ReplyStatus.USER_EXCEPTION, exc
        except Exception as exc:  # anything else is a system exception
            return ReplyStatus.SYSTEM_EXCEPTION, exc

    async def _execute_async(self, op_name: str, args: tuple) -> tuple[ReplyStatus, Any]:
        """Awaitable twin of :meth:`_execute` for async servant methods.

        The classification happens around the ``await`` as well, so a
        declared exception raised after a suspension point still maps to
        USER_EXCEPTION; :class:`ComponentCrash` escapes either way.
        """
        op = self._op(op_name)
        declared = tuple(exc_type.py_class for exc_type in op.raises)
        hook = self._orb.process.fault_hook
        if hook is not None:
            hook.on_dispatch(self._interface, op_name)
        try:
            result = getattr(self.servant, op_name)(*args)
            if inspect.isawaitable(result):
                result = await result
            return ReplyStatus.OK, result
        except declared as exc:  # user exception listed in raises(...)
            return ReplyStatus.USER_EXCEPTION, exc
        except Exception as exc:  # anything else is a system exception
            return ReplyStatus.SYSTEM_EXCEPTION, exc

    def _encode_reply(
        self,
        op_name: str,
        request: RequestMessage,
        status: ReplyStatus,
        result: Any,
        ftl: bytes | None,
    ) -> ReplyMessage | None:
        if request.oneway:
            return None
        op = self._op(op_name)
        if status is ReplyStatus.OK:
            try:
                body = _marshal_result(op, result)
            except MarshalError as exc:
                status = ReplyStatus.SYSTEM_EXCEPTION
                body = _marshal_system_exception(exc)
        elif status is ReplyStatus.USER_EXCEPTION:
            body = _marshal_user_exception(op, result)
        else:
            body = _marshal_system_exception(result)
        return ReplyMessage(
            request_id=request.request_id, status=status, body=body, ftl=ftl
        )

    def __repr__(self) -> str:
        return f"<skeleton {self._interface} key={self.object_key}>"
