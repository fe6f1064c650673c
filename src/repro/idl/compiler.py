"""IDL compiler driver.

Ties the pipeline together: lexer → parser → semantic analysis → code
generation → module loading. The ``instrument`` flag is the paper's
back-end compilation flag (Section 2.3); both variants can be compiled
from the same IDL source in one process and used side by side.
"""

from __future__ import annotations

import itertools
import sys
import types
from dataclasses import dataclass, field
from typing import Any

_module_counter = itertools.count(1)

from repro.idl.codegen import generate_python, render_internal_idl
from repro.idl.parser import parse_idl
from repro.idl.semantics import ResolvedSpec, analyze
from repro.idl.types import IdlType
from repro.orb.runtime import GLOBAL_INTERFACE_REGISTRY, InterfaceRegistry


@dataclass
class CompiledIdl:
    """The product of one IDL compilation.

    Generated classes are reachable as attributes (``compiled.Foo``,
    ``compiled.FooStub``) or through :attr:`namespace`. :attr:`source`
    holds the generated Python text, :attr:`internal_idl` the Figure-3
    style rewritten interface text.
    """

    spec: ResolvedSpec
    instrumented: bool
    source: str
    internal_idl: str
    namespace: dict[str, Any] = field(default_factory=dict)
    async_mode: bool = False

    def __getattr__(self, name: str) -> Any:
        try:
            return self.namespace[name]
        except KeyError:
            raise AttributeError(name) from None


def _type_table(resolved: ResolvedSpec) -> dict[str, IdlType]:
    table: dict[str, IdlType] = {}
    table.update(resolved.structs)
    table.update(resolved.enums)
    table.update(resolved.exceptions)
    table.update(resolved.typedefs)
    return table


def compile_idl(
    source: str,
    instrument: bool = True,
    registry: InterfaceRegistry | None = None,
    async_mode: bool = False,
) -> CompiledIdl:
    """Compile IDL source text into live Python stub/skeleton classes.

    ``registry`` defaults to the process-wide interface registry; pass a
    private :class:`InterfaceRegistry` to isolate compilations (the tests
    do this when compiling the same IDL twice with different flags).
    With ``async_mode=True`` the emitted stubs/skeletons are coroutines
    for the asyncio data plane (``channel="asyncio"`` +
    :class:`~repro.orb.threading_policies.AsyncioDispatch`); the probe
    placement is unchanged.
    """
    spec_ast = parse_idl(source)
    resolved = analyze(spec_ast)
    python_source = generate_python(spec_ast, resolved, instrument, async_mode=async_mode)
    internal_idl = render_internal_idl(resolved, instrument)
    registry = registry if registry is not None else GLOBAL_INTERFACE_REGISTRY

    # The generated code must live in a real sys.modules entry: the
    # dataclasses machinery resolves cls.__module__ through sys.modules.
    module_name = f"repro.idl._generated_{next(_module_counter)}"
    module = types.ModuleType(module_name)
    module.__dict__.update(
        {
            "_T": _type_table(resolved),
            "_SPEC": resolved,
            "register_interface": registry.register,
        }
    )
    sys.modules[module_name] = module
    code = compile(python_source, f"<{module_name}>", "exec")
    exec(code, module.__dict__)  # noqa: S102 — executing our own generated code
    return CompiledIdl(
        spec=resolved,
        instrumented=instrument,
        source=python_source,
        internal_idl=internal_idl,
        namespace=module.__dict__,
        async_mode=async_mode,
    )
