"""Tests for the async MappingService: job semantics, caching, routing.

The executor of the service's worker pool, which maps each job as one
task, is selectable via the ``REPRO_TEST_EXECUTOR`` environment variable
(``thread``/``process``), so CI can run this module once per pool type
without duplicating the tests.
"""

import asyncio
import os
import time

import pytest

from repro.arch.devices import ibm_qx2, ibm_qx4, ibm_qx5
from repro.benchlib.generators import random_clifford_t_circuit
from repro.benchlib.paper_example import paper_example_cnot_skeleton
from repro.circuit.circuit import QuantumCircuit
from repro.exact.dp_mapper import DPMapper
from repro.pipeline.registry import DEFAULT_REGISTRY
from repro.service.errors import (
    JobNotFoundError,
    MappingFailedError,
    RoutingError,
    ServiceStateError,
)
from repro.service.fingerprint import job_fingerprint
from repro.service.service import DONE, FAILED, MappingService
from repro.service.store import ResultStore

EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "thread")


def run(coroutine):
    return asyncio.run(coroutine)


def _circuit(seed=7):
    return random_clifford_t_circuit(3, 4, 6, seed=seed)


def _service(**kwargs):
    kwargs.setdefault("engine", "dp")
    kwargs.setdefault("executor", EXECUTOR)
    kwargs.setdefault("workers", 2)
    couplings = kwargs.pop("couplings", ibm_qx4())
    return MappingService(couplings, **kwargs)


class _CountingMapper:
    """Registry-compatible mapper that counts its map() invocations.

    Each call appends a line to :attr:`log`, so calls made in the worker
    processes of the process executor are counted too.
    """

    log = None

    def __init__(self, coupling):
        self.coupling = coupling

    def map(self, circuit):
        with open(type(self).log, "a") as handle:
            handle.write("map\n")
        return DPMapper(self.coupling).map(circuit)


def _mapper_calls():
    return len(_CountingMapper.log.read_text().splitlines())


class _SlowMapper:
    """Registry-compatible mapper that sleeps before mapping."""

    def __init__(self, coupling):
        self.coupling = coupling

    def map(self, circuit):
        time.sleep(1.0)
        return DPMapper(self.coupling).map(circuit)


class _ExitingMapper:
    """Registry-compatible mapper that ends its process without a word."""

    def __init__(self, coupling):
        self.coupling = coupling

    def map(self, circuit):
        os._exit(3)


def _register(monkeypatch, name, mapper_class):
    """Register *mapper_class* under *name* for one test only."""
    monkeypatch.setattr(
        DEFAULT_REGISTRY, "_factories", dict(DEFAULT_REGISTRY._factories)
    )
    DEFAULT_REGISTRY.register(
        name, lambda coupling, **options: mapper_class(coupling), overwrite=True,
    )
    return name


@pytest.fixture()
def counting_engine(monkeypatch, tmp_path):
    _CountingMapper.log = tmp_path / "mapper-calls.log"
    _CountingMapper.log.write_text("")
    return _register(monkeypatch, "counting_test_engine", _CountingMapper)


class TestSubmitResult:
    def test_submit_and_result(self):
        async def scenario():
            async with _service() as service:
                job_id = await service.submit(_circuit())
                result = await service.result(job_id, timeout=60)
                status = service.status(job_id)
                return result, status

        result, status = run(scenario())
        assert result.engine == "dp"
        assert status["status"] == DONE
        assert status["provenance"]["cache_hit"] is False
        assert status["provenance"]["executor"] == EXECUTOR
        assert "elapsed_seconds" in status["provenance"]

    def test_unknown_job_raises_structured_error(self):
        async def scenario():
            async with _service() as service:
                with pytest.raises(JobNotFoundError) as excinfo:
                    service.status("job-999999")
                return excinfo.value

        error = run(scenario())
        assert error.code == "job-not-found"

    def test_submit_before_start_raises(self):
        service = _service()
        with pytest.raises(ServiceStateError):
            run(service.submit(_circuit()))

    def test_structured_failure_for_unmappable_circuit(self):
        # The DP engine refuses exhaustive enumeration on the 16-qubit QX5;
        # the service must surface that as a structured per-job failure.
        async def failing():
            async with _service(couplings=ibm_qx5()) as service:
                wide = QuantumCircuit(16, name="wide")
                wide.cx(0, 15)
                job_id = await service.submit(wide)
                with pytest.raises(MappingFailedError) as excinfo:
                    await service.result(job_id, timeout=60)
                return service.status(job_id), excinfo.value

        status, error = run(failing())
        assert status["status"] == FAILED
        assert error.code == "mapping-failed"
        assert status["error"]["code"] == "mapping-failed"


class TestResultCaching:
    def test_repeated_submit_served_from_store_without_mapper(self, counting_engine):
        """PR acceptance gate: the second identical job never hits a mapper."""

        async def scenario():
            store = ResultStore()
            async with _service(engine=counting_engine, store=store) as service:
                first = await service.submit(_circuit())
                result_one = await service.result(first, timeout=60)
                calls_after_first = _mapper_calls()
                second = await service.submit(_circuit())
                result_two = await service.result(second, timeout=60)
                return (
                    calls_after_first,
                    _mapper_calls(),
                    result_one,
                    result_two,
                    service.status(second),
                    service.stats(),
                )

        calls_one, calls_two, result_one, result_two, status, stats = run(scenario())
        assert calls_one == 1
        assert calls_two == 1  # no mapper invocation for the second submit
        assert status["provenance"]["cache_hit"] is True
        assert result_two.added_cost == result_one.added_cost
        assert stats["cache_hits"] == 1
        assert stats["solved"] == 1

    def test_default_optimizer_named_explicitly_is_a_store_hit(self):
        # {"optimizer": "core"} names the default descent, so it is the same
        # job as {} and shares its result-cache key.
        async def scenario():
            async with _service(engine="sat", store=ResultStore()) as service:
                first = await service.submit(
                    _circuit(), options={"optimizer": "core"}
                )
                await service.result(first, timeout=60)
                second = await service.submit(_circuit(), options={})
                await service.result(second, timeout=60)
                third = await service.submit(
                    _circuit(), options={"optimizer": "linear"}
                )
                await service.result(third, timeout=60)
                return [
                    service.status(job) for job in (first, second, third)
                ]

        first, second, third = run(scenario())
        assert first["fingerprint"] == second["fingerprint"]
        assert first["provenance"]["cache_hit"] is False
        assert second["provenance"]["cache_hit"] is True
        # Another descent is another job.
        assert third["fingerprint"] != first["fingerprint"]
        assert third["provenance"]["cache_hit"] is False

    def test_persistent_store_shared_across_service_instances(self, tmp_path,
                                                              counting_engine):
        async def scenario():
            path = tmp_path / "results.sqlite"
            async with _service(
                engine=counting_engine, store=ResultStore(path)
            ) as service:
                job = await service.submit(_circuit())
                await service.result(job, timeout=60)
            # New service, new store object, same file: still a cache hit.
            async with _service(
                engine=counting_engine, store=ResultStore(path)
            ) as service:
                job = await service.submit(_circuit())
                await service.result(job, timeout=60)
                return _mapper_calls(), service.status(job)

        calls, status = run(scenario())
        assert calls == 1
        assert status["provenance"]["cache_hit"] is True

    def test_inflight_duplicates_coalesce(self, counting_engine):
        async def scenario():
            async with _service(engine=counting_engine) as service:
                first = await service.submit(_circuit())
                second = await service.submit(_circuit())
                results = await asyncio.gather(
                    service.result(first, timeout=60),
                    service.result(second, timeout=60),
                )
                return (
                    _mapper_calls(),
                    results,
                    service.status(second),
                    service.stats(),
                )

        calls, results, status, stats = run(scenario())
        assert calls == 1  # one solve fulfilled both jobs
        assert results[0].added_cost == results[1].added_cost
        assert stats["coalesced"] == 1
        assert status["provenance"]["coalesced_with"].startswith("job-")
        # Coalescing is reported distinctly from a store hit.
        assert status["provenance"]["coalesced"] is True
        assert status["provenance"]["cache_hit"] is False

    def test_identical_jobs_share_fingerprint(self):
        circuit = _circuit()
        fp_one = job_fingerprint(circuit, ibm_qx4(), "dp", {})
        fp_two = job_fingerprint(_circuit(), ibm_qx4(), "dp", {})
        assert fp_one == fp_two


class TestBatchAndRouting:
    def test_submit_many_preserves_order_and_maps_all(self):
        async def scenario():
            circuits = [_circuit(seed) for seed in range(4)]
            async with _service() as service:
                job_ids = await service.submit_many(circuits)
                results = [
                    await service.result(job_id, timeout=120) for job_id in job_ids
                ]
                return circuits, job_ids, results

        circuits, job_ids, results = run(scenario())
        assert len(job_ids) == len(set(job_ids)) == 4
        expected = [DPMapper(ibm_qx4()).map(c).added_cost for c in circuits]
        assert [r.added_cost for r in results] == expected

    def test_routing_picks_smallest_fitting_device(self):
        async def scenario():
            couplings = {"qx2": ibm_qx2(), "qx5": ibm_qx5()}
            async with _service(couplings=couplings, engine="sabre") as service:
                small = await service.submit(_circuit())
                wide = QuantumCircuit(9, name="wide")
                wide.cx(0, 8)
                big = await service.submit(wide)
                await service.result(small, timeout=60)
                await service.result(big, timeout=60)
                return service.status(small)["arch"], service.status(big)["arch"]

        small_arch, big_arch = run(scenario())
        assert small_arch == "qx2"  # 5 qubits suffice
        assert big_arch == "qx5"  # only the 16-qubit device fits

    def test_explicit_arch_is_honoured_and_checked(self):
        async def scenario():
            couplings = {"qx2": ibm_qx2(), "qx5": ibm_qx5()}
            async with _service(couplings=couplings, engine="sabre") as service:
                job = await service.submit(_circuit(), arch="qx5")
                await service.result(job, timeout=60)
                arch = service.status(job)["arch"]
                wide = QuantumCircuit(9)
                wide.cx(0, 8)
                with pytest.raises(RoutingError):
                    await service.submit(wide, arch="qx2")
                with pytest.raises(RoutingError):
                    await service.submit(_circuit(), arch="nonexistent")
                return arch

        assert run(scenario()) == "qx5"

    def test_mixed_batch_failure_isolation(self):
        async def scenario():
            async with _service() as service:
                good = await service.submit(_circuit())
                too_big = QuantumCircuit(9, name="too_big")
                too_big.cx(0, 8)
                with pytest.raises(RoutingError):
                    await service.submit(too_big)  # no fitting device
                result = await service.result(good, timeout=60)
                return result

        assert run(scenario()).engine == "dp"

    def test_jobs_listing_and_stats(self):
        async def scenario():
            async with _service() as service:
                await service.submit(_circuit())
                await service.submit(_circuit(seed=8))
                for job in service.jobs():
                    await service.result(job["job_id"], timeout=60)
                return service.jobs(), service.stats()

        jobs, stats = run(scenario())
        assert len(jobs) == 2
        assert all(job["status"] == DONE for job in jobs)
        assert stats["submitted"] == 2
        assert stats["devices"] == ["ibm_qx4"]
        assert stats["store"]["puts"] >= 1


class TestWorkerPool:
    def test_a_job_waits_queued_for_a_free_worker(self, monkeypatch):
        # ``workers`` bounds the jobs that solve at once: with one worker
        # the second job stays in the queue until the first is done.
        engine = _register(monkeypatch, "slow_test_engine", _SlowMapper)

        async def scenario():
            async with _service(engine=engine, workers=1) as service:
                first = await service.submit(_circuit(seed=1))
                while service.status(first)["status"] != "running":
                    await asyncio.sleep(0.01)
                second = await service.submit(_circuit(seed=2))
                await asyncio.sleep(0.2)
                waiting = service.status(second)["status"], service.load()
                await service.result(first, timeout=60)
                await service.result(second, timeout=60)
                return waiting, service.status(first), service.status(second)

        (status, load), first, second = run(scenario())
        assert first["fingerprint"] != second["fingerprint"]
        assert status == "queued"
        assert load == {"queue_depth": 1, "in_flight": 1}
        assert first["status"] == second["status"] == DONE

    def test_a_dead_process_worker_fails_its_job_only(self, monkeypatch):
        engine = _register(monkeypatch, "exiting_test_engine", _ExitingMapper)

        async def scenario():
            async with _service(executor="process") as service:
                doomed = await service.submit(_circuit(), engine=engine)
                with pytest.raises(MappingFailedError) as excinfo:
                    await service.result(doomed, timeout=60)
                after = await service.submit(_circuit())
                result = await service.result(after, timeout=60)
                return excinfo.value, service.status(doomed), result

        error, doomed, result = run(scenario())
        assert error.code == "mapping-failed"
        assert doomed["status"] == FAILED
        assert doomed["error"]["details"]["error_type"] == "BrokenProcessPool"
        assert result.engine == "dp"


class TestSeedingAcrossExecutors:
    def test_sat_resubmission_is_model_seeded(self):
        """A SAT job after a DP job of the same circuit, under either executor.

        The SAT engine seeds its family with DP's schedule itself.  Every
        job is mapped on the service's pool, so under the process executor
        the seed resolution (the artifact handle) is pickled into the
        workers.
        """

        async def scenario():
            circuits = [paper_example_cnot_skeleton(), _circuit()]
            async with _service() as service:
                dp_jobs = await service.submit_many(circuits)
                dp_results = [
                    await service.result(job_id, timeout=120) for job_id in dp_jobs
                ]
                sat_jobs = await asyncio.gather(
                    *(service.submit(c, engine="sat") for c in circuits)
                )
                sat_results = [
                    await service.result(job_id, timeout=120)
                    for job_id in sat_jobs
                ]
                provenances = [
                    service.status(job_id)["provenance"] for job_id in sat_jobs
                ]
                return dp_results, sat_results, provenances

        dp_results, sat_results, provenances = run(scenario())
        # The paper example's seed meets its structural lower bound and
        # closes without a solver call; the other needs one probe.
        pins = [(0, 1), (1, 0)]
        for dp, sat, provenance, (iterations, closed) in zip(
            dp_results, sat_results, provenances, pins
        ):
            assert provenance["cache_hit"] is False
            assert provenance["executor"] == EXECUTOR
            assert sat.statistics["artifact_seeding"] == 1
            assert sat.added_cost == dp.added_cost
            assert sat.optimal
            assert sat.statistics["solver_iterations"] == iterations
            assert sat.statistics["families_closed"] == closed

    def test_pipeline_batch_carries_seeds_into_workers(self):
        """A two-circuit batch always goes through the worker pool."""
        from repro.pipeline.bounds import BoundProviderChain
        from repro.pipeline.pipeline import MappingPipeline

        qx4 = ibm_qx4()
        circuits = [paper_example_cnot_skeleton(), _circuit()]
        dp_results = [DPMapper(qx4).map(circuit) for circuit in circuits]
        items = MappingPipeline(
            qx4, engine="sat", workers=2, executor=EXECUTOR,
            seeds=BoundProviderChain(ResultStore()),
        ).map_many(circuits)
        # As above: the paper example closes, the other runs one probe.
        for dp, item, iterations in zip(dp_results, items, (0, 1)):
            assert item.ok, item.error
            assert item.result.added_cost == dp.added_cost
            assert item.result.statistics["families_dp_seeded"] == 1
            assert item.result.statistics["solver_iterations"] == iterations
            assert item.result.statistics["artifact_seeding"] == 1
