"""Per-process COM runtime: apartments, class objects, object export.

The runtime plays the role of the paper's "embedded infrastructure
similar to COM": it creates apartments, instantiates coclasses inside
them, exports object identities, and mediates every cross-apartment call
through the ORPC channel (:mod:`repro.com.orpc`).

``instrumented`` switches the probe-bearing proxies/dispatch on or off
(the codegen flag analogue); ``causality_hooks`` switches the runtime
instrumentation that prevents STA chain mingling — the paper's fix, which
the ablation benchmark toggles.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.com.apartments import Apartment, Mta, Sta
from repro.com.guids import clsid_for
from repro.com.interfaces import ComInterface, ComObject, IUNKNOWN
from repro.com.orpc import ObjectIdentity, Proxy
from repro.errors import ComError, InterfaceNotSupported
from repro.platform.process import SimProcess


class ClassFactory:
    """COM class object: creates instances of one coclass."""

    def __init__(self, coclass: type[ComObject], runtime: "ComRuntime"):
        self.coclass = coclass
        self.runtime = runtime
        self.clsid = clsid_for(coclass.__name__)

    def create_instance(self, apartment: Apartment, *args, **kwargs) -> ObjectIdentity:
        obj = self.coclass(*args, **kwargs)
        return self.runtime.export(obj, apartment)


class ComRuntime:
    """COM services for one simulated process."""

    def __init__(
        self,
        process: SimProcess,
        instrumented: bool = True,
        causality_hooks: bool = True,
        call_timeout: float = 30.0,
    ):
        self.process = process
        self.instrumented = instrumented
        self.causality_hooks = causality_hooks
        self.call_timeout = call_timeout
        self._apartments: list[Apartment] = []
        self._thread_apartments: dict[int, Apartment] = {}
        self._factories: dict[str, ClassFactory] = {}
        self._lock = threading.Lock()
        process.attach(self)

    # ------------------------------------------------------------------
    # Apartments

    def create_sta(self, label: str) -> Sta:
        sta = Sta(self.process, label)
        with self._lock:
            self._apartments.append(sta)
            self._thread_apartments[sta._thread.ident] = sta
        return sta

    def create_mta(self, label: str = "mta", size: int = 4) -> Mta:
        mta = Mta(self.process, label, size)
        with self._lock:
            self._apartments.append(mta)
            for thread in mta._threads:
                self._thread_apartments[thread.ident] = mta
        return mta

    def apartment_of_current_thread(self) -> Apartment | None:
        with self._lock:
            return self._thread_apartments.get(threading.get_ident())

    # ------------------------------------------------------------------
    # Class objects and instances

    def register_class(self, coclass: type[ComObject]) -> ClassFactory:
        factory = ClassFactory(coclass, self)
        with self._lock:
            self._factories[factory.clsid] = factory
        return factory

    def get_class_object(self, coclass_or_clsid) -> ClassFactory:
        clsid = (
            coclass_or_clsid
            if isinstance(coclass_or_clsid, str)
            else clsid_for(coclass_or_clsid.__name__)
        )
        with self._lock:
            factory = self._factories.get(clsid)
        if factory is None:
            raise ComError(f"class not registered: {clsid}")
        return factory

    def create_object(
        self, coclass: type[ComObject], apartment: Apartment, *args, **kwargs
    ) -> ObjectIdentity:
        """CoCreateInstance equivalent (auto-registering the class)."""
        clsid = clsid_for(coclass.__name__)
        with self._lock:
            factory = self._factories.get(clsid)
        if factory is None:
            factory = self.register_class(coclass)
        return factory.create_instance(apartment, *args, **kwargs)

    def export(self, obj: ComObject, apartment: Apartment) -> ObjectIdentity:
        """Export an existing object from an apartment."""
        if apartment not in self._apartments:
            raise ComError("apartment does not belong to this runtime")
        return ObjectIdentity(obj, apartment, self)

    # ------------------------------------------------------------------
    # Proxies

    def proxy_for(
        self, identity: ObjectIdentity, interface: ComInterface | None = None
    ) -> Proxy:
        """Obtain an interface pointer usable from this process."""
        if interface is None:
            implements = identity.obj.implements
            if len(implements) != 1:
                raise ComError(
                    "object implements several interfaces; pass interface= explicitly"
                )
            interface = implements[0]
        if interface != IUNKNOWN and not identity.obj.supports(interface):
            raise InterfaceNotSupported(
                f"{type(identity.obj).__name__} does not support {interface.name}"
            )
        return Proxy(identity, interface, self)

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        with self._lock:
            apartments = list(self._apartments)
        for apartment in apartments:
            apartment.shutdown()
