"""Exception hierarchy shared across the repro packages.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch framework failures without also swallowing application
exceptions that legitimately propagate through remote calls.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all framework errors."""


class IdlError(ReproError):
    """Base class for IDL compiler errors."""


class IdlSyntaxError(IdlError):
    """Raised by the lexer or parser on malformed IDL source."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class IdlSemanticError(IdlError):
    """Raised by semantic analysis (unknown types, duplicate names, ...)."""


class MarshalError(ReproError):
    """Raised when a value cannot be marshalled or unmarshalled."""


class TransportError(ReproError):
    """Raised when a network endpoint cannot deliver a message."""


class TransientCollectorError(ReproError):
    """A retryable failure on the probe-log -> collector delivery path.

    The collector treats this as "the transport hiccuped, the records are
    still in the process buffer" and retries with backoff; anything else
    raised during a drain is a real bug and propagates.
    """


class ComponentCrash(BaseException):
    """A simulated component death injected mid-call.

    Deliberately *not* a :class:`ReproError` (nor even an ``Exception``):
    a crashed component cannot run its own error handling, so the generic
    ``except Exception`` recovery paths in skeletons and servants must not
    be able to catch and mask it. Only the fault-aware dispatch layers
    (ORB request dispatch, the COM channel) handle it — by dropping the
    call on the floor exactly as a dead process would.
    """

    def __init__(self, component: str, operation: str, call_index: int):
        self.component = component
        self.operation = operation
        self.call_index = call_index
        super().__init__(
            f"injected crash of {component} during call #{call_index} to {operation}"
        )


class ObjectNotFound(ReproError):
    """Raised when an object reference does not resolve to a servant."""


class OrbError(ReproError):
    """Raised for ORB lifecycle and dispatch failures."""


class ComError(ReproError):
    """Raised for COM runtime failures (apartments, QueryInterface, ...)."""


class InterfaceNotSupported(ComError):
    """COM E_NOINTERFACE: QueryInterface for an unimplemented IID."""


class BridgeError(ReproError):
    """Raised when the CORBA/COM bridge cannot forward a call."""


class RemoteApplicationError(ReproError):
    """An exception raised by a remote servant, re-raised at the caller.

    Carries the remote exception's repr so the caller can distinguish
    application failures from framework failures.
    """

    def __init__(self, exc_type: str, message: str):
        self.exc_type = exc_type
        self.message = message
        super().__init__(f"{exc_type}: {message}")


class MonitorError(ReproError):
    """Raised for monitoring runtime misconfiguration."""


class StoreError(ReproError):
    """Raised by storage backends on unusable files or misuse."""


class AnalysisError(ReproError):
    """Raised by the off-line analyzer on unusable monitoring data."""
