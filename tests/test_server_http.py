"""End-to-end tests of one JobServer: HTTP lifecycle, WebSocket stream, drain.

Everything runs against a real listening socket on an ephemeral loopback
port — requests travel through the hand-rolled HTTP/1.1 and RFC 6455
WebSocket plumbing in :mod:`repro.server.wire`, not through test doubles.
"""

import asyncio
import json
import os
import time

import pytest

from repro.arch.devices import ibm_qx4
from repro.circuit.qasm.writer import to_qasm
from repro.benchlib.paper_example import paper_example_circuit
from repro.exact.dp_mapper import DPMapper
from repro.pipeline.registry import DEFAULT_REGISTRY
from repro.server import wire
from repro.server.app import JobServer
from repro.service.service import MappingService
from repro.service.store import ResultStore

EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "thread")

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
cx q[1],q[0];
cx q[2],q[3];
cx q[3],q[1];
"""


def run(coroutine):
    return asyncio.run(coroutine)


def _server(**kwargs):
    store = kwargs.pop("store", None)
    service = MappingService(
        ibm_qx4(),
        engine=kwargs.pop("engine", "dp"),
        workers=kwargs.pop("workers", 2),
        executor=EXECUTOR,
        store=store,
    )
    return JobServer(service, **kwargs)


async def _request(port, method, target, body=None):
    status, _headers, payload = await wire.http_request(
        "127.0.0.1", port, method, target, body=body
    )
    return status, json.loads(payload)


def _submit_body(qasm=QASM, name="http_test", engine="dp"):
    return json.dumps(
        {
            "type": "submit-request",
            "version": 1,
            "payload": {
                "qasm": qasm,
                "arch": "ibm_qx4",
                "engine": engine,
                "circuit_name": name,
            },
        }
    ).encode()


class _SlowMapper:
    """Registry-compatible mapper with a controllable delay."""

    delay = 0.4

    def __init__(self, coupling):
        self.coupling = coupling

    def map(self, circuit):
        time.sleep(type(self).delay)
        return DPMapper(self.coupling).map(circuit)


@pytest.fixture()
def slow_engine(monkeypatch):
    _SlowMapper.delay = 0.4
    monkeypatch.setattr(
        DEFAULT_REGISTRY, "_factories", dict(DEFAULT_REGISTRY._factories)
    )
    DEFAULT_REGISTRY.register(
        "slow_test_engine",
        lambda coupling, **options: _SlowMapper(coupling),
        overwrite=True,
    )
    return "slow_test_engine"


class TestJobLifecycle:
    def test_submit_result_status_roundtrip(self):
        async def scenario():
            async with _server() as server:
                port = server.port
                status, envelope = await _request(
                    port, "POST", "/v1/jobs", _submit_body()
                )
                assert status == 202
                assert envelope["type"] == "job-status"
                job_id = envelope["payload"]["job_id"]

                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/result?wait=60"
                )
                assert status == 200
                assert envelope["type"] == "result-payload"
                assert envelope["payload"]["result"]["optimal"] is True

                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}"
                )
                assert status == 200
                assert envelope["payload"]["status"] == "done"
                assert envelope["payload"]["added_cost"] is not None

        run(scenario())

    def test_paper_example_is_proven_optimal_over_http(self):
        from repro.benchlib.paper_example import PAPER_EXAMPLE_MINIMAL_COST

        async def scenario():
            async with _server() as server:
                body = _submit_body(
                    qasm=to_qasm(paper_example_circuit()),
                    name="paper_example",
                )
                _status, envelope = await _request(
                    server.port, "POST", "/v1/jobs", body
                )
                job_id = envelope["payload"]["job_id"]
                status, envelope = await _request(
                    server.port, "GET", f"/v1/jobs/{job_id}/result?wait=120"
                )
                assert status == 200
                result = envelope["payload"]["result"]
                assert result["optimal"] is True
                assert result["objective"] == PAPER_EXAMPLE_MINIMAL_COST

        run(scenario())

    def test_resubmission_is_served_from_the_store(self):
        async def scenario():
            async with _server() as server:
                port = server.port
                for expect_hit in (False, True):
                    _status, envelope = await _request(
                        port, "POST", "/v1/jobs", _submit_body()
                    )
                    job_id = envelope["payload"]["job_id"]
                    _status, envelope = await _request(
                        port, "GET", f"/v1/jobs/{job_id}/result?wait=60"
                    )
                    hit = envelope["payload"]["provenance"].get(
                        "cache_hit", False
                    )
                    assert hit is expect_hit

        run(scenario())

    def test_result_before_completion_returns_202_status(self, slow_engine):
        async def scenario():
            async with _server(engine=slow_engine) as server:
                port = server.port
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs", _submit_body(engine=slow_engine)
                )
                job_id = envelope["payload"]["job_id"]
                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/result"
                )
                assert status == 202
                assert envelope["type"] == "job-status"
                assert envelope["payload"]["status"] in ("queued", "running")
                # Let the job finish so teardown drains cleanly.
                await _request(port, "GET", f"/v1/jobs/{job_id}/result?wait=60")

        run(scenario())


class TestObservability:
    def test_stats_and_healthz(self):
        async def scenario():
            async with _server() as server:
                port = server.port
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs", _submit_body()
                )
                job_id = envelope["payload"]["job_id"]
                await _request(port, "GET", f"/v1/jobs/{job_id}/result?wait=60")

                status, envelope = await _request(port, "GET", "/v1/stats")
                assert status == 200
                stats = envelope["payload"]["stats"]
                assert stats["queue_depth"] == 0
                assert stats["in_flight"] == 0
                assert stats["per_engine"]["dp"]["submitted"] == 1
                assert stats["per_engine"]["dp"]["solved"] == 1
                assert stats["latency"]["count"] == 1
                assert stats["latency"]["p50_seconds"] >= 0.0
                assert stats["latency"]["p99_seconds"] >= stats["latency"][
                    "p50_seconds"
                ]
                assert stats["server"]["worker_id"] == "w0"

                status, envelope = await _request(port, "GET", "/v1/healthz")
                assert status == 200
                payload = envelope["payload"]
                assert payload["ok"] is True
                assert payload["role"] == "worker"
                assert payload["pid"] == os.getpid()

        run(scenario())

    def test_prune_endpoint_flushes_memory(self, tmp_path):
        async def scenario():
            store = ResultStore.at(str(tmp_path))
            async with _server(store=store) as server:
                port = server.port
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs", _submit_body()
                )
                job_id = envelope["payload"]["job_id"]
                await _request(port, "GET", f"/v1/jobs/{job_id}/result?wait=60")

                status, envelope = await _request(
                    port, "POST", "/v1/cache/prune", b""
                )
                assert status == 200
                assert envelope["type"] == "prune-report"
                assert envelope["payload"]["memory_dropped"] == 1
                # Disk rows survive a memory-only flush.
                assert store.stats()["disk_entries"] == 1

        run(scenario())

    def test_prune_on_a_sick_store_is_a_store_error(self, tmp_path):
        import sqlite3

        async def scenario():
            store = ResultStore.at(str(tmp_path))
            with sqlite3.connect(str(store.path)) as conn:
                conn.execute("DROP TABLE results")
            async with _server(store=store) as server:
                body = json.dumps({
                    "type": "prune-request", "version": 1,
                    "payload": {"ttl_seconds": 60},
                }).encode()
                status, envelope = await _request(
                    server.port, "POST", "/v1/cache/prune", body
                )
                assert status == 500
                assert envelope["type"] == "error"
                assert envelope["payload"]["error_code"] == "store-error"
                assert not store.degraded

        run(scenario())


class TestErrorSurface:
    def test_error_responses(self):
        async def scenario():
            async with _server() as server:
                port = server.port
                cases = [
                    ("GET", "/v1/jobs/nope", None, 404, "job-not-found"),
                    ("GET", "/v1/bogus", None, 404, "not-found"),
                    ("DELETE", "/v1/jobs", None, 405, "method-not-allowed"),
                    ("POST", "/v1/jobs", b"{not json", 400, "protocol-error"),
                    ("GET", "/v1/stream", None, 400, "protocol-error"),
                ]
                for method, target, body, want_status, want_code in cases:
                    status, envelope = await _request(
                        port, method, target, body
                    )
                    assert status == want_status, (method, target)
                    assert envelope["type"] == "error"
                    assert envelope["payload"]["error_code"] == want_code

        run(scenario())

    def test_unparseable_qasm_is_a_protocol_error(self):
        async def scenario():
            async with _server() as server:
                status, envelope = await _request(
                    server.port, "POST", "/v1/jobs",
                    _submit_body(qasm="definitely not qasm"),
                )
                assert status == 400
                assert envelope["payload"]["error_code"] == "protocol-error"
                assert "parse" in envelope["payload"]["message"]

        run(scenario())

    def test_wrong_message_type_rejected(self):
        async def scenario():
            async with _server() as server:
                body = json.dumps(
                    {"type": "prune-request", "version": 1, "payload": {}}
                ).encode()
                status, envelope = await _request(
                    server.port, "POST", "/v1/jobs", body
                )
                assert status == 400
                assert "submit-request" in envelope["payload"]["message"]

        run(scenario())

    def test_version_mismatch_surfaces_supported_versions(self):
        async def scenario():
            async with _server() as server:
                body = json.dumps(
                    {
                        "type": "submit-request",
                        "version": 99,
                        "payload": {"qasm": QASM},
                    }
                ).encode()
                status, envelope = await _request(
                    server.port, "POST", "/v1/jobs", body
                )
                assert status == 400
                details = envelope["payload"]["details"]
                assert details["supported_versions"] == [1]

        run(scenario())


class TestStream:
    def test_stream_sees_job_transitions(self):
        async def scenario():
            async with _server() as server:
                port = server.port
                socket = await wire.open_websocket(
                    "127.0.0.1", port, "/v1/stream"
                )
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs", _submit_body()
                )
                job_id = envelope["payload"]["job_id"]
                await _request(port, "GET", f"/v1/jobs/{job_id}/result?wait=60")

                seen = []
                while len(seen) < 3:
                    message = await asyncio.wait_for(
                        socket.receive(), timeout=10
                    )
                    assert message is not None
                    event = json.loads(message)
                    assert event["type"] == "stream-event"
                    assert event["payload"]["worker"] == "w0"
                    if event["payload"]["job_id"] == job_id:
                        seen.append(event["payload"]["status"])
                await socket.close()
                assert seen == ["queued", "running", "done"]

        run(scenario())


class TestDrain:
    def test_server_drain_finishes_in_flight_and_fails_queued(
        self, slow_engine
    ):
        """The PR's robustness contract: no job is lost across a drain.

        With a single service worker and three slow jobs, stopping mid-run
        must (a) finish whatever was dispatched, (b) fail what was still
        queued with a structured service-unavailable error, and (c) reject
        new submissions while draining.
        """

        async def scenario():
            server = _server(engine=slow_engine, workers=1)
            await server.start()
            port = server.port
            job_ids = []
            bodies = [
                _submit_body(
                    qasm=QASM.replace("cx q[3],q[1];", f"cx q[{i}],q[3];"),
                    name=f"drain_{i}", engine=slow_engine,
                )
                for i in (0, 1, 2)
            ]
            for body in bodies:
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs", body
                )
                job_ids.append(envelope["payload"]["job_id"])
            # Let the first batch reach the solver.
            await asyncio.sleep(0.1)
            service = server.service
            await server.stop(drain=True)

            statuses = [service.status(job_id) for job_id in job_ids]
            terminal = {"done", "failed"}
            assert all(s["status"] in terminal for s in statuses)
            failed = [s for s in statuses if s["status"] == "failed"]
            for snapshot in failed:
                assert snapshot["error"]["code"] == "service-unavailable"
            done = [s for s in statuses if s["status"] == "done"]
            assert done, "at least the in-flight batch must finish"
            return statuses

        run(scenario())

    def test_draining_server_rejects_new_submissions(self, slow_engine):
        async def scenario():
            async with _server(engine=slow_engine, workers=1) as server:
                _status, envelope = await _request(
                    server.port, "POST", "/v1/jobs",
                    _submit_body(engine=slow_engine),
                )
                job_id = envelope["payload"]["job_id"]
                service = server.service
                await asyncio.sleep(0.05)
                stop_task = asyncio.ensure_future(service.stop(drain=True))
                await asyncio.sleep(0.05)
                from repro.service.errors import ServiceUnavailable

                with pytest.raises(ServiceUnavailable):
                    await service.submit(paper_example_circuit())
                await stop_task
                assert service.status(job_id)["status"] == "done"

        run(scenario())
