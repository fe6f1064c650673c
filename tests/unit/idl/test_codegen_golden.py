"""Golden tests for the instrumented back-end: the exact methods it emits.

Each case compiles an IDL snippet and asserts that every expected block
appears verbatim in the generated module (:func:`assert_generate`), so a
change to what the generated code runs per call — another helper call, a
lookup moved back into a method — shows up as a diff here. The probe path
reads the stub's or skeleton's ``OperationInfo`` by subscript
(``self._op_infos["op"]``): no method call per call. The semantics helpers
(``_semantics_args`` / ``_semantics_outcome``) run only behind the mode's
semantics flag, so a remote call with semantics off enters neither.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.idl import parse_idl
from repro.idl.codegen import generate_python
from repro.idl.semantics import analyze

TWO_OPERATIONS = """
module Gold {
  interface Svc {
    long work(in long x, in string tag);
    oneway void notify(in long n);
  };
};
"""


def assert_generate(idl: str, *expected: str, instrument: bool = True,
                    async_mode: bool = False) -> str:
    """Generate ``idl`` and assert each ``expected`` block (dedented, then
    indented as a class member) appears verbatim; returns the source."""
    spec = parse_idl(idl)
    source = generate_python(spec, analyze(spec), instrument, async_mode=async_mode)
    for block in expected:
        member = textwrap.indent(textwrap.dedent(block).strip("\n"), "    ")
        assert member in source, f"not generated:\n{member}\n--- in ---\n{source}"
    return source


def test_instrumented_sync_stub_method():
    assert_generate(TWO_OPERATIONS, '''
        def work(self, x, tag):
            """long work(in long x, in string tag)"""
            _servant = self._orb.collocated_servant(self.object_ref)
            if _servant is not None:
                # Collocated: stub/skeleton probes degenerate (Sec. 2.2)
                return self._collocated_call_probed("work", _servant, (x, tag))
            _monitor = self._monitor
            # Probe 1: stub start — causality capture + local readings
            _ctx = _monitor.stub_start(self._op_infos["work"], semantics=self._semantics_args("work", (x, tag)) if _monitor.config.mode.flags[2] else None) if _monitor else None
            _reply = self._remote_call("work", (x, tag), _ctx)
            # Probe 4: stub end — response ready to return to client
            if _monitor is not None:
                _monitor.stub_end(_ctx, _reply.ftl)
            return self._decode_reply("work", _reply)
    ''')


def test_instrumented_oneway_stub_method():
    assert_generate(TWO_OPERATIONS, '''
        def notify(self, n):
            """oneway void notify(in long n)"""
            _monitor = self._monitor
            # Probe 1: stub start — forks the child causal chain
            _ctx = _monitor.stub_start(self._op_infos["notify"], oneway=True) if _monitor else None
            self._oneway_call("notify", (n,), _ctx)
            # Probe 4: stub end — stub-side oneway return
            if _monitor is not None:
                _monitor.stub_end(_ctx, None)
    ''')


def test_instrumented_skeleton_methods():
    assert_generate(TWO_OPERATIONS, '''
        def _dispatch_work(self, request):
            """Dispatch long work(in long x, in string tag)"""
            _monitor = self._monitor
            # Probe 2: skeleton start — refreshes this task's FTL
            _ctx = _monitor.skel_start(self._op_infos["work"], request.ftl, oneway=False) if _monitor else None
            _args = self._decode_args("work", request.body)
            _status, _result = self._execute("work", _args)
            # Probe 3: skeleton end — function execution concluded
            _ftl = _monitor.skel_end(_ctx, semantics=self._semantics_outcome(_status, _result) if _monitor.config.mode.flags[2] else None) if _monitor else None
            return self._encode_reply("work", request, _status, _result, _ftl)
    ''', '''
        def _dispatch_notify(self, request):
            """Dispatch oneway void notify(in long n)"""
            _monitor = self._monitor
            # Probe 2: skeleton start — refreshes this task's FTL
            _ctx = _monitor.skel_start(self._op_infos["notify"], request.ftl, oneway=True) if _monitor else None
    ''')


def test_async_sync_stub_method():
    assert_generate(TWO_OPERATIONS, '''
        async def work(self, x, tag):
            """long work(in long x, in string tag)"""
            _servant = self._orb.collocated_servant(self.object_ref)
            if _servant is not None:
                # Collocated: stub/skeleton probes degenerate (Sec. 2.2)
                return await self._collocated_call_probed_async("work", _servant, (x, tag))
            _monitor = self._monitor
            # Probe 1: stub start — causality capture + local readings
            _ctx = _monitor.stub_start(self._op_infos["work"], semantics=self._semantics_args("work", (x, tag)) if _monitor.config.mode.flags[2] else None) if _monitor else None
            _reply = await self._remote_call_async("work", (x, tag), _ctx)
            # Probe 4: stub end — response ready to return to client
            if _monitor is not None:
                _monitor.stub_end(_ctx, _reply.ftl)
            return self._decode_reply("work", _reply)
    ''', async_mode=True)


@pytest.mark.parametrize("async_mode", [False, True])
@pytest.mark.parametrize("instrument", [False, True])
def test_no_back_end_looks_the_op_info_up_by_method(instrument, async_mode):
    source = assert_generate(TWO_OPERATIONS, instrument=instrument, async_mode=async_mode)
    assert "_op_info(" not in source
    assert source.count('self._op_infos["') == (4 if instrument else 0)
