"""Chaos and fault-tolerance tests: injection, durability, cancellation.

Unit coverage for :mod:`repro.faults` (deterministic, replayable fault
schedules), the result store's busy-retry/circuit-breaker policy, and the
durable :class:`~repro.service.store.JobJournal`; service-level coverage
for cooperative cancellation and server-enforced deadlines; and end-to-end
chaos scenarios against a real multi-process supervisor — ``kill -9`` on a
worker mid-backlog with at-least-once redelivery under the original public
job id, and a SIGTERM drain racing a worker crash.

The end-to-end invariant throughout: **every accepted job reaches a
terminal state** — a result, or a structured error — never a silent
disappearance.
"""

import asyncio
import json
import os
import signal
import sqlite3
import time

import pytest

from repro import faults
from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.benchlib.generators import (
    benchmark_circuit,
    random_clifford_t_circuit,
    random_cnot_circuit,
)
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm.writer import to_qasm
from repro.exact.dp_mapper import DPMapper
from repro.exact.encoding import clear_skeleton_cache
from repro.server import wire
from repro.server.supervisor import Supervisor
from repro.service.errors import (
    DeadlineExceededError,
    JobCancelledError,
    StoreError,
)
from repro.service.fingerprint import job_fingerprint
from repro.service.service import DONE, FAILED, MappingService
from repro.service.store import (
    ARTIFACT_PAYLOAD_VERSION,
    BREAKER_THRESHOLD,
    BUSY_RETRY_LIMIT,
    JobJournal,
    ResultStore,
)


@pytest.fixture(autouse=True)
def _always_disarm():
    """No test leaks an armed fault into the next one (or the suite)."""
    faults.disarm()
    yield
    faults.disarm()


def run(coroutine):
    return asyncio.run(coroutine)


def _result(seed=1):
    circuit = random_clifford_t_circuit(3, 4, 6, seed=seed)
    return DPMapper(ibm_qx4()).map(circuit)


def _fingerprint(result):
    return job_fingerprint(result.original_circuit, ibm_qx4(), "dp", {})


async def _request(port, method, target, body=None, timeout=120.0, retries=0):
    status, _headers, payload = await wire.http_request(
        "127.0.0.1", port, method, target, body=body, timeout=timeout,
        retries=retries,
    )
    return status, json.loads(payload)


def _submit_body(qasm, name, engine="dp", arch="ibm_qx4", options=None):
    payload = {
        "qasm": qasm,
        "arch": arch,
        "engine": engine,
        "circuit_name": name,
    }
    if options:
        payload["options"] = options
    return json.dumps(
        {"type": "submit-request", "version": 1, "payload": payload}
    ).encode()


#: A circuit the exact SAT mapper chews on for tens of seconds on the
#: QX4 — encoding is cheap and nearly all the time is interruptible solver
#: work, which is what cancellation/deadline tests need (they interrupt it
#: long before it finishes).
def _hard_qasm(seed=11):
    return to_qasm(random_cnot_circuit(5, 24, seed=seed, locality=0.7))


class TestFaultInjection:
    def test_disarmed_is_a_noop(self):
        assert faults.ARMED is False
        assert faults.fire("store.put") is None
        assert faults.fired_counts() == {}

    def test_fail_mode_raises_at_the_point(self):
        faults.arm("store.put:fail")
        assert faults.ARMED is True
        with pytest.raises(faults.FaultInjectedError) as info:
            faults.fire("store.put")
        assert info.value.point == "store.put"
        # An armed fault is point-scoped: other points stay clean.
        assert faults.fire("store.get") is None

    def test_injected_error_is_a_connection_error(self):
        # Retry paths guarding process boundaries must treat an injected
        # failure exactly like a real one.
        assert issubclass(faults.FaultInjectedError, ConnectionError)

    def test_drop_and_corrupt_are_returned_to_the_call_site(self):
        faults.arm("wire.read:drop,wire.write:corrupt")
        assert faults.fire("wire.read") == "drop"
        assert faults.fire("wire.write") == "corrupt"

    def test_delay_mode_stalls(self):
        faults.arm("solver.step:delay")
        started = time.perf_counter()
        assert faults.fire("solver.step") == "delay"
        assert time.perf_counter() - started >= faults.DELAY_SECONDS * 0.5

    def test_probabilistic_schedule_is_replayable(self):
        def schedule():
            faults.arm("store.get:drop:0.5:42")
            return [faults.active("store.get") for _ in range(40)]

        first, second = schedule(), schedule()
        assert first == second
        assert "drop" in first and None in first  # genuinely probabilistic

    def test_prefix_arms_every_matching_point(self):
        faults.arm("store.*:delay")
        for point in ("store.put", "store.get", "store.journal"):
            assert faults.active(point) == "delay"
        assert faults.active("wire.read") is None

    def test_bad_specs_fail_loudly(self):
        for spec in (
            "store.put",                # missing mode
            "store.put:explode",        # unknown mode
            "no.such.point:fail",       # unknown point
            "bogus.*:fail",             # prefix matching nothing
            "store.put:fail:1.5",       # probability outside [0, 1]
        ):
            with pytest.raises(ValueError):
                faults.arm(spec)

    def test_mangle_flips_exactly_one_byte(self):
        faults.arm("wire.read:corrupt")
        data = b"0123456789"
        mangled = faults.mangle("wire.read", data)
        assert len(mangled) == len(data)
        assert sum(a != b for a, b in zip(data, mangled)) == 1

    def test_fired_counts_feed_the_ledger(self):
        faults.arm("store.put:delay")
        faults.fire("store.put")
        faults.fire("store.put")
        assert faults.fired_counts() == {"store.put": 2}

    def test_environment_arming(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "wire.write:drop:0.25:9")
        faults._arm_from_environment()
        assert faults.ARMED is True
        modes = {faults.active("wire.write") for _ in range(40)}
        assert modes == {"drop", None}


class TestStoreBreaker:
    def test_put_failure_keeps_memory_tier_and_raises(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        result = _result()
        fingerprint = _fingerprint(result)
        faults.arm("store.put:fail")
        with pytest.raises(StoreError):
            store.put(fingerprint, result)
        # Degraded mode's promise: same-process lookups keep hitting.
        assert store.get(fingerprint) is result
        faults.disarm()
        stats = store.stats()
        assert stats["disk_errors"] >= 1
        assert stats["busy_retries"] >= 1  # injected faults retry first

    def test_breaker_trips_after_consecutive_failures(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        faults.arm("store.put:fail")
        for seed in range(BREAKER_THRESHOLD):
            with pytest.raises(StoreError):
                store.put(_fingerprint(_result(seed + 10)), _result(seed + 10))
        assert store.degraded is True
        assert store.stats()["breaker_trips"] == 1
        # Breaker open: puts bypass the (still-faulty) disk entirely and
        # succeed memory-only instead of stalling every job on retries.
        quiet = _result(99)
        store.put(_fingerprint(quiet), quiet)
        assert store.get(_fingerprint(quiet)) is quiet
        assert store.stats()["degraded"] is True

    def test_get_failure_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite", max_memory_entries=0)
        result = _result()
        fingerprint = _fingerprint(result)
        store.put(fingerprint, result)
        faults.arm("store.get:fail")
        assert store.get(fingerprint) is None  # degraded, not broken
        faults.disarm()
        assert store.get(fingerprint) is not None


def _sat_job(coupling, store, circuit, **options):
    """One SAT job through a service over *store*: (result, job status)."""

    async def scenario():
        clear_skeleton_cache()
        async with MappingService(
            coupling, engine="sat", store=store, engine_options=options or None
        ) as service:
            job = await service.submit(circuit)
            result = await service.result(job, timeout=120)
            return result, service.status(job)

    return run(scenario())


def _with_singles(skeleton):
    """*skeleton*'s CNOTs with single-qubit gates around them: the same
    encoding skeleton (artifact rows hit), a different job (results miss)."""
    circuit = QuantumCircuit(skeleton.num_qubits)
    for index, gate in enumerate(skeleton.cnot_gates()):
        if index % 3 == 0:
            circuit.h(gate.control)
        circuit.cx(gate.control, gate.target)
    return circuit


def _artifact_payload(bound):
    return {
        "version": ARTIFACT_PAYLOAD_VERSION,
        "x_var_limit": 4,
        "spot_var_count": 2,
        "clauses": [[1, -2]],
        "bounds": {"[[0,1]]": bound},
        "schedule": None,
        "objective": None,
    }


class TestSickStore:
    """Every disk access on a job's path degrades through the breaker."""

    def test_dropped_tables_do_not_fail_a_sat_job(self, tmp_path):
        circuit = benchmark_circuit("ex-1_166")
        healthy, _ = _sat_job(
            ibm_qx4(), ResultStore(tmp_path / "healthy.sqlite"), circuit
        )
        path = tmp_path / "sick.sqlite"
        store = ResultStore(path)
        with sqlite3.connect(path) as conn:
            conn.execute("DROP TABLE results")
            conn.execute("DROP TABLE artifacts")
        result, status = _sat_job(ibm_qx4(), store, circuit)
        assert status["status"] == DONE
        assert result.added_cost == healthy.added_cost
        stats = store.stats()
        # The job lookup, the seed's bound-oracle read and the artifact
        # lookup each fail once; the third failure opens the breaker and
        # the result and artifact writes stay in memory.
        assert stats["disk_errors"] == BREAKER_THRESHOLD == 3
        assert stats["breaker_trips"] == 1
        assert stats["artifact_misses"] == 1
        assert status["provenance"]["store_degraded"] is True
        assert "store_error" not in status["provenance"]

    def test_get_faults_during_warm_sweep_open_the_breaker(self, tmp_path):
        skeleton = random_cnot_circuit(3, 8, seed=8000)
        path = tmp_path / "results.sqlite"
        cold, _ = _sat_job(
            sweep_grid8(), ResultStore(path), skeleton, use_subsets=True
        )
        store = ResultStore(path)
        faults.arm("store.get:fail")
        warm, status = _sat_job(
            sweep_grid8(), store, _with_singles(skeleton), use_subsets=True
        )
        # One attempt plus the retries for each of the job lookup, the
        # bound-oracle read and the first artifact lookup; the breaker then
        # opens and the other families' lookups skip the disk.
        assert faults.fired_counts()["store.get"] == (
            (BUSY_RETRY_LIMIT + 1) * BREAKER_THRESHOLD
        )
        assert store.degraded is True
        assert warm.statistics["artifact_hits"] == 0
        assert warm.statistics["artifact_misses"] >= 2
        assert status["status"] == DONE
        assert warm.added_cost == cold.added_cost

    def test_put_artifact_with_open_breaker_stays_in_memory(self, tmp_path):
        path = tmp_path / "a.sqlite"
        store = ResultStore(path)
        faults.arm("store.put:fail")
        for index in range(BREAKER_THRESHOLD):
            with pytest.raises(StoreError):
                store.put_artifact(f"sick-{index}", _artifact_payload(1))
        assert store.degraded is True
        fired = faults.fired_counts()
        store.put_artifact("key", _artifact_payload(2))
        store.put_artifact("key", _artifact_payload(3))
        assert faults.fired_counts() == fired  # the disk was not touched
        assert store.get_artifact("key")["bounds"] == {"[[0,1]]": 3}
        with sqlite3.connect(path) as conn:
            assert conn.execute("SELECT COUNT(*) FROM artifacts").fetchone() == (0,)


class TestJobJournal:
    def test_record_assign_terminal_lifecycle(self, tmp_path):
        journal = JobJournal.at(tmp_path)
        journal.record("w0-job-000001", b'{"submit": 1}', "w0")
        entry = journal.get("w0-job-000001")
        assert entry["state"] == "accepted"
        assert entry["body"] == b'{"submit": 1}'
        assert [e["public_id"] for e in journal.unfinished()] == [
            "w0-job-000001"
        ]
        assert journal.unfinished("w0")[0]["worker_id"] == "w0"
        assert journal.unfinished("w1") == []
        journal.mark_terminal("w0-job-000001")
        assert journal.unfinished() == []
        assert journal.get("w0-job-000001")["state"] == "terminal"

    def test_redelivery_bumps_counter_and_reassigns(self, tmp_path):
        journal = JobJournal.at(tmp_path)
        journal.record("w0-job-000002", b"{}", "w0")
        journal.redelivered("w0-job-000002", "w1")
        entry = journal.get("w0-job-000002")
        assert entry["worker_id"] == "w1"
        assert entry["redeliveries"] == 1
        # Still unfinished until the redelivered run completes.
        assert journal.unfinished("w1") != []

    def test_terminal_error_code_is_persisted(self, tmp_path):
        journal = JobJournal.at(tmp_path)
        journal.record("w0-job-000003", b"{}")
        journal.mark_terminal("w0-job-000003", error_code="service-unavailable")
        assert journal.get("w0-job-000003")["error_code"] == (
            "service-unavailable"
        )

    def test_survives_reopen(self, tmp_path):
        JobJournal.at(tmp_path).record("w0-job-000004", b'{"x": 1}')
        fresh = JobJournal.at(tmp_path)
        assert fresh.get("w0-job-000004")["body"] == b'{"x": 1}'

    def test_journal_fault_surfaces_as_store_error(self, tmp_path):
        journal = JobJournal.at(tmp_path)
        faults.arm("store.journal:fail")
        with pytest.raises(StoreError):
            journal.record("w0-job-000005", b"{}")


class TestWireRetries:
    def test_dead_port_raises_retryable_wire_error(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more

        async def scenario():
            with pytest.raises(wire.RetryableWireError) as info:
                await wire.http_request(
                    "127.0.0.1", port, "GET", "/v1/healthz", retries=2
                )
            return info.value

        error = run(scenario())
        assert error.retryable is True
        assert error.status == 503

    def test_injected_write_fault_consumes_every_retry(self):
        """An armed wire.write fault is retried like a real refused socket."""
        faults.arm("wire.write:fail")

        async def scenario():
            with pytest.raises(wire.RetryableWireError):
                await wire.http_request(
                    "127.0.0.1", 1, "GET", "/v1/healthz", retries=2
                )

        run(scenario())
        # Initial attempt + exactly the two requested retries.
        assert faults.fired_counts() == {"wire.write": 3}


class TestCancellationAndDeadlines:
    def test_cancel_running_sat_job_interrupts_quickly(self):
        """Cancellation reaches a hard SAT solve at a conflict boundary.

        The 8-qubit instance would run for minutes; the whole scenario —
        including service shutdown, which waits for the executor — must
        finish fast because ``cancel`` interrupts the solver cooperatively.
        """

        async def scenario():
            service = MappingService(
                ibm_qx4(), engine="sat", executor="thread", workers=1
            )
            async with service:
                from repro.circuit.qasm.parser import parse_qasm

                job_id = await service.submit(parse_qasm(_hard_qasm()))
                deadline = time.monotonic() + 30
                while service.status(job_id)["status"] != "running":
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.02)
                snapshot = service.cancel(job_id, reason="chaos test")
                assert snapshot["status"] == FAILED
                with pytest.raises(JobCancelledError):
                    await service.result(job_id, timeout=30)
                assert service.status(job_id)["provenance"]["cancelled"] is True

        started = time.perf_counter()
        run(scenario())
        # Shutdown waited for the solver thread: cooperative interrupt is
        # what makes this fast instead of minutes.
        assert time.perf_counter() - started < 60

    def test_time_limit_fails_with_deadline_exceeded(self):
        async def scenario():
            service = MappingService(
                ibm_qx4(), engine="sat", executor="thread", workers=1
            )
            async with service:
                from repro.circuit.qasm.parser import parse_qasm

                job_id = await service.submit(
                    parse_qasm(_hard_qasm(seed=4)),
                    options={"time_limit": 0.4},
                )
                with pytest.raises(DeadlineExceededError) as info:
                    await service.result(job_id, timeout=60)
                status = service.status(job_id)
                assert status["provenance"]["time_limit"] == 0.4
                assert status["provenance"]["deadline_enforced"] is True
                return info.value

        error = run(scenario())
        assert error.code == "deadline-exceeded"

    def test_delete_route_cancels_over_http(self, tmp_path):
        """DELETE /v1/jobs/{id} fails a running job with ``job-cancelled``."""

        async def scenario():
            async with Supervisor(
                workers=1, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(
                        _hard_qasm(seed=5), "cancel_me",
                        engine="sat", arch="ibm_qx4",
                    ),
                )
                job_id = envelope["payload"]["job_id"]
                cancel_body = json.dumps({
                    "type": "cancel-request",
                    "version": 1,
                    "payload": {"job_id": job_id, "reason": "chaos test"},
                }).encode()
                status, envelope = await _request(
                    port, "DELETE", f"/v1/jobs/{job_id}", cancel_body
                )
                assert status == 200
                assert envelope["payload"]["status"] == "failed"

                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/result?wait=30"
                )
                assert status == 499
                assert envelope["payload"]["error_code"] == "job-cancelled"

                # Cancelling a terminal job is an idempotent no-op.
                status, envelope = await _request(
                    port, "DELETE", f"/v1/jobs/{job_id}", cancel_body
                )
                assert status == 200
                assert envelope["payload"]["status"] == "failed"

        started = time.perf_counter()
        run(scenario())
        assert time.perf_counter() - started < 90

    def test_http_time_limit_maps_to_504(self, tmp_path):
        async def scenario():
            async with Supervisor(
                workers=1, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(
                        _hard_qasm(seed=6), "expire_me",
                        engine="sat", arch="ibm_qx4",
                        options={"time_limit": 0.4},
                    ),
                )
                job_id = envelope["payload"]["job_id"]
                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/result?wait=60"
                )
                assert status == 504
                assert envelope["payload"]["error_code"] == "deadline-exceeded"

        started = time.perf_counter()
        run(scenario())
        assert time.perf_counter() - started < 90


class TestChaosEndToEnd:
    def test_killed_worker_jobs_redeliver_under_original_id(self, tmp_path):
        """kill -9 mid-backlog: every accepted job still reaches a result.

        Jobs queued on the killed worker are redelivered to a live worker
        from the durable journal, **under the same public id** — the client
        keeps polling the id it was given and never learns anything died.
        """

        async def scenario():
            async with Supervisor(
                workers=2, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                job_ids = []
                for index in range(10):
                    qasm = to_qasm(
                        random_cnot_circuit(4, 16, seed=500 + index)
                    )
                    _status, envelope = await _request(
                        port, "POST", "/v1/jobs",
                        _submit_body(qasm, f"chaos_{index}"),
                    )
                    job_ids.append(envelope["payload"]["job_id"])
                assert any(job_id.startswith("w0-") for job_id in job_ids)

                os.kill(supervisor.workers[0].pid, signal.SIGKILL)

                # Poll every job to a terminal result, riding out the
                # redelivery window (dead worker: transient 404/502/refused
                # connections are all expected and all recoverable).
                deadline = time.monotonic() + 120
                for job_id in job_ids:
                    while True:
                        assert time.monotonic() < deadline, job_id
                        try:
                            status, envelope = await _request(
                                port, "GET",
                                f"/v1/jobs/{job_id}/result?wait=15",
                                retries=3,
                            )
                        except wire.RetryableWireError:
                            await asyncio.sleep(0.25)
                            continue
                        if status == 200:
                            payload = envelope["payload"]
                            assert payload["job_id"] == job_id
                            assert payload["result"]["objective"] >= 0
                            break
                        await asyncio.sleep(0.25)

                status, envelope = await _request(port, "GET", "/v1/stats")
                stats = envelope["payload"]["stats"]
                assert stats["journal_enabled"] is True
                assert stats["restarts"] >= 1

            # After the run, the durable journal agrees: nothing unfinished.
            journal = JobJournal.at(tmp_path)
            assert journal.unfinished() == []

        run(scenario())

    def test_finished_job_killed_worker_result_replays_lazily(self, tmp_path):
        """Poll a *finished* job after its worker is killed: still a 200.

        The supervisor keeps every finished job's result, so the answer
        survives its worker's death under the original public id, and
        nothing is re-run to produce it.
        """

        async def scenario():
            async with Supervisor(
                workers=1, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                qasm = to_qasm(random_cnot_circuit(4, 16, seed=900))
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs", _submit_body(qasm, "lazy")
                )
                job_id = envelope["payload"]["job_id"]
                status, envelope = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/result?wait=30"
                )
                assert status == 200
                first = envelope["payload"]["result"]["objective"]

                os.kill(supervisor.workers[0].pid, signal.SIGKILL)
                # Wait for the replacement worker to come up.
                deadline = time.monotonic() + 60
                while True:
                    assert time.monotonic() < deadline
                    try:
                        _s, envelope = await _request(
                            port, "GET", "/v1/stats", retries=2
                        )
                    except wire.RetryableWireError:
                        await asyncio.sleep(0.25)
                        continue
                    stats = envelope["payload"]["stats"]
                    if stats["restarts"] >= 1 and stats["healthy_workers"] >= 1:
                        break
                    await asyncio.sleep(0.25)

                # The restarted worker never heard of the job; the
                # supervisor still answers for it under the same id.
                deadline = time.monotonic() + 60
                while True:
                    assert time.monotonic() < deadline
                    try:
                        status, envelope = await _request(
                            port, "GET",
                            f"/v1/jobs/{job_id}/result?wait=15", retries=2,
                        )
                    except wire.RetryableWireError:
                        await asyncio.sleep(0.25)
                        continue
                    if status == 200:
                        break
                    await asyncio.sleep(0.25)
                payload = envelope["payload"]
                assert payload["job_id"] == job_id
                assert payload["result"]["objective"] == first

                _s, envelope = await _request(port, "GET", "/v1/stats")
                assert envelope["payload"]["stats"]["redeliveries"] == 0

        run(scenario())

    def test_sigterm_drain_racing_worker_crash(self, tmp_path):
        """A worker dies during shutdown: its jobs settle, stop() returns.

        The killed worker's queued jobs are journalled terminal as
        ``service-unavailable`` instead of being redelivered into a
        draining fleet, and shutdown completes promptly instead of hanging
        on a corpse.
        """

        async def scenario():
            supervisor = Supervisor(
                workers=2, engine="dp", cache_dir=str(tmp_path)
            )
            await supervisor.start()
            port = supervisor.port
            job_ids = []
            for index in range(8):
                qasm = to_qasm(random_cnot_circuit(4, 16, seed=800 + index))
                _status, envelope = await _request(
                    port, "POST", "/v1/jobs",
                    _submit_body(qasm, f"drain_{index}"),
                )
                job_ids.append(envelope["payload"]["job_id"])
            # Crash one worker and immediately drain: the race the
            # supervisor must win without hanging or losing bookkeeping.
            os.kill(supervisor.workers[0].pid, signal.SIGKILL)
            started = time.perf_counter()
            await supervisor.stop()
            assert time.perf_counter() - started < 60

        run(scenario())
        journal = JobJournal.at(tmp_path)
        # Every journalled job is terminal — the killed worker's pending
        # ones settled with the structured service-unavailable verdict,
        # the rest either finished or were swept at shutdown.
        assert journal.unfinished() == []
        codes = set(_journal_error_codes(tmp_path))
        assert codes <= {None, "service-unavailable"}

    def test_submit_journals_one_row_before_the_202(self, tmp_path):
        """One journal commit per accepted submit, its worker already set."""

        async def scenario():
            async with Supervisor(
                workers=1, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                qasm = to_qasm(random_cnot_circuit(3, 4, seed=901))
                status, envelope = await _request(
                    supervisor.port, "POST", "/v1/jobs",
                    _submit_body(qasm, "journalled"),
                )
                assert status == 202
                job_id = envelope["payload"]["job_id"]
                rows = _journal_rows(tmp_path)
                assert [row[0] for row in rows] == [job_id]
                assert rows[0][1] == "w0"
                await _request(
                    supervisor.port, "GET", f"/v1/jobs/{job_id}/result?wait=30"
                )

        run(scenario())

    def test_delete_of_a_redelivered_job_cancels_only_that_job(
        self, tmp_path, monkeypatch
    ):
        """kill -9 under a backlog, then DELETE one job that moved.

        Every id names one job for its whole life, whichever worker runs
        it: the cancelled job ends ``job-cancelled`` (499) and every other
        job still answers with its own result.
        """
        # Each solver conflict stalls, so these small SAT jobs are still
        # running when their worker dies, and again after redelivery.  Each
        # still needs a refutation below DP's schedule (30 to 131
        # conflicts; a job DP's schedule closes outright never stalls).
        monkeypatch.setenv(faults.ENV_VAR, "solver.step:delay")
        circuits = [
            random_cnot_circuit(4, 5, seed=738),
            random_cnot_circuit(3, 4, seed=708),
            random_cnot_circuit(4, 4, seed=707),
            random_cnot_circuit(3, 6, seed=712),
            random_cnot_circuit(3, 4, seed=726),
            random_cnot_circuit(4, 5, seed=721),
        ]

        async def scenario():
            async with Supervisor(
                workers=2, engine="sat", cache_dir=str(tmp_path)
            ) as supervisor:
                port = supervisor.port
                job_ids = []
                for index, circuit in enumerate(circuits):
                    _status, envelope = await _request(
                        port, "POST", "/v1/jobs",
                        _submit_body(to_qasm(circuit), f"moved_{index}",
                                     engine="sat"),
                    )
                    job_ids.append(envelope["payload"]["job_id"])
                moved = [i for i in job_ids if i.startswith("w0-")]
                victim = moved[0]  # the slowest circuit
                os.kill(supervisor.workers[0].pid, signal.SIGKILL)

                # Wait until every job of the dead worker runs elsewhere.
                deadline = time.monotonic() + 60
                while True:
                    assert time.monotonic() < deadline, "no redelivery"
                    _s, envelope = await _request(port, "GET", "/v1/stats")
                    if envelope["payload"]["stats"]["redeliveries"] >= len(
                        moved
                    ):
                        break
                    await asyncio.sleep(0.05)
                status, envelope = await _request(
                    port, "DELETE", f"/v1/jobs/{victim}"
                )
                assert status == 200
                assert envelope["payload"]["job_id"] == victim

                for job_id in job_ids:
                    status, envelope = await _request(
                        port, "GET", f"/v1/jobs/{job_id}/result?wait=120",
                        timeout=150,
                    )
                    if job_id == victim:
                        assert status == 499
                        assert envelope["payload"]["error_code"] == (
                            "job-cancelled"
                        )
                    else:
                        assert status == 200, envelope
                        assert envelope["payload"]["job_id"] == job_id

        run(scenario())

    def test_dispatch_drop_is_retried_on_the_other_worker(self, tmp_path):
        """worker.dispatch faults: a dropped submit moves to the sibling.

        Each submit either lands (202, then its result) or, when both
        workers dropped it, answers the structured ``upstream-failed``.
        """

        async def scenario():
            async with Supervisor(
                workers=2, engine="dp", cache_dir=str(tmp_path)
            ) as supervisor:
                faults.arm("worker.dispatch:drop:0.5:3")
                outcomes = []
                for index in range(10):
                    before = faults.fired_counts().get("worker.dispatch", 0)
                    qasm = to_qasm(random_cnot_circuit(3, 4, seed=950 + index))
                    status, envelope = await _request(
                        supervisor.port, "POST", "/v1/jobs",
                        _submit_body(qasm, f"dropped_{index}"),
                    )
                    drops = (
                        faults.fired_counts().get("worker.dispatch", 0) - before
                    )
                    if status == 202:
                        job_id = envelope["payload"]["job_id"]
                        result_status, _ = await _request(
                            supervisor.port, "GET",
                            f"/v1/jobs/{job_id}/result?wait=30",
                        )
                        assert result_status == 200
                    else:
                        assert status == 502
                        assert envelope["payload"]["error_code"] == (
                            "upstream-failed"
                        )
                        assert drops == 2
                    outcomes.append((status, drops))
                return outcomes, faults.fired_counts()["worker.dispatch"]

        outcomes, fired = run(scenario())
        assert (202, 1) in outcomes  # landed on the sibling after a drop
        assert fired >= 1


def _journal_error_codes(tmp_path):
    import sqlite3

    with sqlite3.connect(str(tmp_path / "results.sqlite")) as conn:
        return [
            row[0]
            for row in conn.execute(
                "SELECT error_code FROM job_journal"
            ).fetchall()
        ]


def _journal_rows(tmp_path):
    import sqlite3

    with sqlite3.connect(str(tmp_path / "results.sqlite")) as conn:
        return conn.execute(
            "SELECT public_id, worker_id FROM job_journal"
        ).fetchall()
