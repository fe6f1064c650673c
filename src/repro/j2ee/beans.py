"""Bean model for the J2EE-like container.

The paper's first listed future effort is "to investigate the adoption of
our monitoring techniques to the J2EE-based applications" (Section 6).
This package is that adoption: a third remote-invocation infrastructure,
deliberately different from both the CORBA ORB (no IDL — remote
interfaces are discovered by reflection, as EJB dynamic proxies do) and
the COM runtime (no apartments — the container owns a worker pool), yet
instrumented with the *same* four probes and FTL tunnel.

Beans declare their kind:

- ``@stateless`` — the container keeps a pool of interchangeable
  instances; any free instance serves any call (the EJB stateless
  session-bean contract);
- ``@stateful`` — one instance per handle, calls serialized per handle.
"""

from __future__ import annotations

import inspect
from typing import Callable

STATELESS = "stateless"
STATEFUL = "stateful"


def stateless(cls: type) -> type:
    """Mark a class as a stateless session bean."""
    cls._ejb_kind = STATELESS
    return cls


def stateful(cls: type) -> type:
    """Mark a class as a stateful session bean."""
    cls._ejb_kind = STATEFUL
    return cls


def bean_kind(cls: type) -> str:
    kind = getattr(cls, "_ejb_kind", None)
    if kind not in (STATELESS, STATEFUL):
        raise TypeError(
            f"{cls.__name__} is not a session bean; decorate it with"
            " @stateless or @stateful"
        )
    return kind


def remote_methods(cls: type) -> tuple[str, ...]:
    """The bean's remote interface, discovered by reflection.

    Every public instance method is exported — the dynamic-proxy
    equivalent of an EJB remote interface. Names starting with ``_`` stay
    container-private.
    """
    methods = []
    for name, member in inspect.getmembers(cls, predicate=callable):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or inspect.ismethod(member):
            methods.append(name)
    if not methods:
        raise TypeError(f"bean {cls.__name__} exports no public methods")
    return tuple(sorted(methods))


class BeanHandle:
    """Client-side handle naming one deployed bean (EJBObject analogue)."""

    def __init__(self, container_name: str, bean_name: str, handle_id: str,
                 methods: tuple[str, ...]):
        self.container_name = container_name
        self.bean_name = bean_name
        self.handle_id = handle_id
        self.methods = methods
        #: method -> the container's one ``OperationInfo`` for it (the
        #: probes cache their site there); dies with the handle.
        self.op_infos: dict = {}

    @property
    def object_id(self) -> str:
        return f"{self.container_name}.{self.handle_id}"

    def __repr__(self) -> str:
        return f"<bean handle {self.bean_name} @ {self.object_id}>"
