"""The cluster service daemon, driven through the CLI end to end.

``repro cluster up`` leaves a detached daemon behind a state directory;
``status``, ``run``, ``collect`` and ``down`` are separate CLI
invocations that find it through the state file. This test walks one
cluster through its whole life and checks what lands in the stores.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time

from repro.cli import main
from repro.store import SegmentStore

#: Records per monitored ring call (request + reply on each side).
RECORDS_PER_CALL = 4


def _collected(path, run_id):
    store = SegmentStore(path)
    try:
        meta = next(m for m in store.runs() if m.run_id == run_id)
        return store.record_count(run_id), meta.extra["loss"]
    finally:
        store.close()


def test_up_status_run_collect_drain_down(tmp_path, capsys):
    state = str(tmp_path / "state")
    state_file = os.path.join(state, "state.json")
    assert main(["cluster", "up", "--state", state, "--workers", "2"]) == 0
    with open(state_file) as handle:
        daemon_pid = json.load(handle)["pid"]
    capsys.readouterr()
    try:
        assert main(["cluster", "status", "--state", state]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["alive"] == {"0": True, "1": True}

        assert main(["cluster", "run", "--state", state, "--calls", "2"]) == 0
        collected = str(tmp_path / "collected")
        assert main([
            "cluster", "collect", "--state", state, collected, "--store", "segment",
        ]) == 0
        assert _collected(collected, "cluster")[0] == 2 * 2 * RECORDS_PER_CALL

        assert main(["cluster", "run", "--state", state, "--calls", "2"]) == 0
        drained = str(tmp_path / "drained")
        assert main([
            "cluster", "down", "--state", state, "--drain-into", drained,
            "--store", "segment",
        ]) == 0
        records, loss = _collected(drained, "drain")
        assert records == 2 * 2 * RECORDS_PER_CALL
        assert loss["records_uncollected"] == 0
        # The daemon removes its state file once the reply has gone out.
        deadline = time.monotonic() + 30.0
        while os.path.exists(state_file) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(state_file)
    finally:
        if os.path.exists(state_file):
            with contextlib.suppress(ProcessLookupError):
                os.kill(daemon_pid, signal.SIGKILL)
