"""End-to-end tests of the multi-process supervisor.

Each test boots a real supervisor with real worker subprocesses
(``python -m repro.server.worker``) over a shared on-disk result store, and
talks to the public port through the project's own HTTP/WebSocket client
plumbing — the full acceptance path of the network serving layer.
"""

import asyncio
import json
import os
import signal
import time

from repro.benchlib.paper_example import (
    PAPER_EXAMPLE_MINIMAL_COST,
    paper_example_circuit,
)
from repro.circuit.qasm.writer import to_qasm
from repro.server import wire
from repro.server.supervisor import Supervisor

QASM_SECOND = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
cx q[0],q[2];
cx q[3],q[0];
cx q[1],q[2];
cx q[2],q[0];
"""


def run(coroutine):
    return asyncio.run(coroutine)


async def _request(port, method, target, body=None, timeout=120.0):
    status, _headers, payload = await wire.http_request(
        "127.0.0.1", port, method, target, body=body, timeout=timeout
    )
    return status, json.loads(payload)


def _submit_body(qasm, name):
    return json.dumps(
        {
            "type": "submit-request",
            "version": 1,
            "payload": {
                "qasm": qasm,
                "arch": "ibm_qx4",
                "engine": "dp",
                "circuit_name": name,
            },
        }
    ).encode()


class TestSupervisorEndToEnd:
    def test_paper_example_cache_hit_and_stream(self, tmp_path):
        """The PR's acceptance scenario against a 2-worker supervisor.

        The paper example maps to its known minimal cost over HTTP; a
        resubmission is served from the shared store as a cache hit; and
        the fanned-in WebSocket stream reports both jobs' transitions with
        worker-namespaced ids.
        """

        async def scenario():
            async with Supervisor(
                workers=2, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                stream = await wire.open_websocket(
                    "127.0.0.1", port, "/v1/stream"
                )
                paper_qasm = to_qasm(paper_example_circuit())

                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(paper_qasm, "paper_example"),
                )
                first_id = envelope["payload"]["job_id"]
                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{first_id}/result?wait=120"
                )
                assert status == 200
                result = envelope["payload"]["result"]
                assert result["optimal"] is True
                assert result["objective"] == PAPER_EXAMPLE_MINIMAL_COST

                # Same circuit again: whichever worker it routes to, the
                # shared SQLite store answers without re-solving.
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(paper_qasm, "paper_example"),
                )
                second_id = envelope["payload"]["job_id"]
                assert second_id != first_id
                _status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{second_id}/result?wait=120"
                )
                assert envelope["payload"]["provenance"]["cache_hit"] is True

                transitions = {first_id: [], second_id: []}
                deadline = time.monotonic() + 30
                while (
                    "done" not in transitions[first_id]
                    or "done" not in transitions[second_id]
                ):
                    assert time.monotonic() < deadline, transitions
                    message = await asyncio.wait_for(
                        stream.receive(), timeout=10
                    )
                    assert message is not None
                    event = json.loads(message)
                    assert event["type"] == "stream-event"
                    payload = event["payload"]
                    if payload["job_id"] in transitions:
                        transitions[payload["job_id"]].append(
                            payload["status"]
                        )
                await stream.close()
                assert transitions[first_id][0] == "queued"
                assert transitions[first_id][-1] == "done"
                # Every public job id carries its worker's namespace.
                assert all("-job-" in job_id for job_id in transitions)

        run(scenario())

    def test_stream_reconnect_catches_up_via_since_cursor(self, tmp_path):
        """A late subscriber replays missed transitions with ``?since=<seq>``.

        The first job runs to completion with *no* subscriber attached; a
        fresh connection with ``?since=0`` then replays the full retained
        ring (queued → done for the first job), and a reconnect carrying
        the last seen cursor receives only the second job's transitions.
        """

        async def scenario():
            async with Supervisor(
                workers=1, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                paper_qasm = to_qasm(paper_example_circuit())

                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(paper_qasm, "before_subscribe"),
                )
                first_id = envelope["payload"]["job_id"]
                status, _envelope = await _request(
                    port, "GET", f"/v1/jobs/{first_id}/result?wait=120"
                )
                assert status == 200

                # Give the fan-in pump a moment to mirror the transitions
                # into the replay ring.
                deadline = time.monotonic() + 10
                while supervisor.server._stream_seq == 0:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)

                # Late subscriber: the job already finished, yet ?since=0
                # replays its whole history in seq order.
                stream = await wire.open_websocket(
                    "127.0.0.1", port, "/v1/stream?since=0"
                )
                statuses = []
                last_seq = 0
                while "done" not in statuses:
                    message = await asyncio.wait_for(
                        stream.receive(), timeout=10
                    )
                    assert message is not None
                    event = json.loads(message)
                    assert event["seq"] > last_seq
                    last_seq = event["seq"]
                    if event["payload"]["job_id"] == first_id:
                        statuses.append(event["payload"]["status"])
                await stream.close()
                assert statuses[0] == "queued"
                assert statuses[-1] == "done"

                # Second job while disconnected, then reconnect with the
                # last seen cursor: only newer transitions arrive.
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(QASM_SECOND, "after_reconnect"),
                )
                second_id = envelope["payload"]["job_id"]
                status, _envelope = await _request(
                    port, "GET", f"/v1/jobs/{second_id}/result?wait=120"
                )
                assert status == 200

                stream = await wire.open_websocket(
                    "127.0.0.1", port, f"/v1/stream?since={last_seq}"
                )
                catch_up = []
                while "done" not in catch_up:
                    message = await asyncio.wait_for(
                        stream.receive(), timeout=10
                    )
                    assert message is not None
                    event = json.loads(message)
                    assert event["seq"] > last_seq
                    assert event["payload"]["job_id"] == second_id
                    catch_up.append(event["payload"]["status"])
                await stream.close()
                assert catch_up[0] == "queued"
                assert catch_up[-1] == "done"

        run(scenario())

    def test_routing_spreads_and_stats_aggregate(self, tmp_path):
        async def scenario():
            async with Supervisor(
                workers=2, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                ids = []
                for index, qasm in enumerate(
                    (to_qasm(paper_example_circuit()), QASM_SECOND)
                ):
                    _status, envelope = await _request(
                        port, "POST", "/v1/jobs",
                        _submit_body(qasm, f"spread_{index}"),
                    )
                    ids.append(envelope["payload"]["job_id"])
                for job_id in ids:
                    status, _envelope = await _request(
                        port, "GET", f"/v1/jobs/{job_id}/result?wait=120"
                    )
                    assert status == 200
                # Two back-to-back submissions land on two distinct workers
                # (load-aware routing with an optimistic depth bump).
                assert {job_id.split("-", 1)[0] for job_id in ids} == {
                    "w0", "w1"
                }

                status, envelope = await _request(port, "GET", "/v1/stats")
                assert status == 200
                payload = envelope["payload"]
                assert payload["role"] == "supervisor"
                assert payload["stats"]["workers"] == 2
                assert set(payload["workers"]) == {"w0", "w1"}
                submitted = sum(
                    worker_stats["submitted"]
                    for worker_stats in payload["workers"].values()
                )
                assert submitted == 2

                # The invalidation broadcast reaches every worker's LRU.
                status, envelope = await _request(
                    port, "POST", "/v1/cache/prune", b""
                )
                assert status == 200
                report = envelope["payload"]
                assert set(report["per_worker"]) == {"w0", "w1"}
                assert report["memory_dropped"] >= 1

        run(scenario())

    def test_killed_worker_restarts_and_serves_again(self, tmp_path):
        """kill -9 on a worker: the supervisor restarts it, no job is lost.

        Completed results live in the shared store; the restarted worker
        keeps serving new submissions under the same worker id.
        """

        async def scenario():
            async with Supervisor(
                workers=2, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                paper_qasm = to_qasm(paper_example_circuit())
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(paper_qasm, "pre_kill"),
                )
                job_id = envelope["payload"]["job_id"]
                status, _envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/result?wait=120"
                )
                assert status == 200

                victim = supervisor.workers[0]
                old_pid = victim.pid
                os.kill(old_pid, signal.SIGKILL)

                deadline = time.monotonic() + 60
                while not (victim.healthy and victim.pid != old_pid):
                    assert time.monotonic() < deadline, "no restart observed"
                    await asyncio.sleep(0.25)
                assert victim.restarts >= 1

                # The fleet keeps serving; the pre-kill result survives in
                # the shared store, so this resubmission is a cache hit even
                # if it routes to the freshly restarted worker.
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(paper_qasm, "post_kill"),
                )
                new_id = envelope["payload"]["job_id"]
                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{new_id}/result?wait=120"
                )
                assert status == 200
                assert envelope["payload"]["provenance"]["cache_hit"] is True

                status, envelope = await _request(port, "GET", "/v1/healthz")
                assert status == 200
                assert envelope["payload"]["ok"] is True
                workers = envelope["payload"]["workers"]
                assert workers["w0"]["restarts"] >= 1

        run(scenario())


def _alive(pid):
    """True while *pid* runs (a reaped or zombie process counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_when_their_supervisor_is_killed(tmp_path):
    """A worker's stdin closes with its supervisor, and then it exits."""
    import select
    import subprocess
    import sys
    from pathlib import Path

    import repro

    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "listen", "--workers", "1",
         "--port", "0", "--cache-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=environment,
    )
    worker_pid = None
    try:
        ready, _, _ = select.select([supervisor.stdout], [], [], 60)
        assert ready, "no readiness line"
        worker_pid = json.loads(supervisor.stdout.readline())["workers"][0]["pid"]
        assert _alive(worker_pid)
        supervisor.kill()
        supervisor.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _alive(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(worker_pid)
    finally:
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.wait()
        supervisor.stdout.close()
        if worker_pid is not None and _alive(worker_pid):
            os.kill(worker_pid, signal.SIGKILL)
