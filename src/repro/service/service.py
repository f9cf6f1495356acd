"""Asynchronous mapping service with job semantics and result caching.

:class:`MappingService` is the front end a long-running deployment talks to:
callers ``submit`` circuits and get a job id back immediately; a background
dispatcher hands each queued job, as one task, to the service's one
long-lived thread or process pool whenever one of its ``workers`` is free,
where :func:`~repro.pipeline.pipeline.map_circuit` maps it;
``status``/``result`` expose per-job state and provenance.

Three layers keep repeated work off the solvers:

1. **Result store** — every submission is first looked up in the
   :class:`~repro.service.store.ResultStore` by its content-addressed
   :func:`~repro.service.fingerprint.job_fingerprint`; a hit completes the
   job synchronously without touching any mapper.
2. **In-flight coalescing** — a submission whose fingerprint is already
   queued or solving attaches to the existing job instead of solving twice;
   both jobs complete from the one result.
3. **Artifact seeding** — exact solves that do have to run are handed the
   seed resolver's (:class:`~repro.pipeline.bounds.BoundProviderChain`)
   **solve-artifact cache** handle over the store's skeleton-keyed
   artifact table, so even a circuit the fleet has never seen warm-starts
   from the learned clauses and proven family bounds of structurally
   identical past jobs; per-job hit rates land in provenance
   and aggregate in :meth:`MappingService.stats`.  (Within DP's state
   limit the SAT engine starts every family at DP's schedule itself, so a
   stored result of the same circuit would add nothing.)

The service can front **multiple coupling maps** (the first step toward
device sharding): register several devices and each submission is routed to
the requested one, or — when no target is named — to the smallest registered
device that fits the circuit.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.result import MappingResult
from repro.pipeline.bounds import BoundProviderChain
from repro.pipeline.pipeline import _map_circuit_task, executor_type
from repro.pipeline.registry import resolve_mapper_name
from repro.sat.control import SolveControl
from repro.service.errors import (
    DeadlineExceededError,
    InvalidResultError,
    JobCancelledError,
    JobNotFoundError,
    MappingFailedError,
    RoutingError,
    ServiceError,
    ServiceStateError,
    ServiceUnavailable,
)
from repro.service.fingerprint import (
    canonical_options,
    coupling_fingerprint,
    job_fingerprint,
)
from repro.service.store import ResultStore

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: How many recent job completions the rolling latency window keeps.
LATENCY_WINDOW = 512


@dataclass
class Job:
    """One mapping request tracked by the service.

    Attributes:
        job_id: Service-unique identifier returned by ``submit``.
        fingerprint: Content-addressed key of the (circuit, arch, engine,
            options) tuple; identical jobs share it.
        circuit: The submitted circuit.
        arch_name: Name the routed coupling map is registered under.
        engine: Resolved engine name for this job.
        options: Engine options for this job.
        status: One of ``queued``, ``running``, ``done``, ``failed``.
        result: The mapping result once ``done``.
        error: The structured failure once ``failed``.
        provenance: How the result came to be (cache hit/miss, coalescing,
            elapsed seconds, ...).
        time_limit: Optional server-enforced wall-clock budget in seconds
            (from the submit options); the job fails with
            ``deadline-exceeded`` when it elapses first.
        control: Cooperative cancellation token shared with every solver
            the job's mapping work creates.
    """

    job_id: str
    fingerprint: str
    circuit: QuantumCircuit
    arch_name: str
    engine: str
    options: Dict[str, Any]
    status: str = QUEUED
    result: Optional[MappingResult] = None
    error: Optional[ServiceError] = None
    provenance: Dict[str, Any] = field(default_factory=dict)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    followers: List["Job"] = field(default_factory=list)
    time_limit: Optional[float] = None
    control: SolveControl = field(default_factory=SolveControl)
    cancel_requested: bool = False
    deadline_handle: Optional[Any] = None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready status view of the job."""
        view = {
            "job_id": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "circuit_name": self.circuit.name,
            "arch": self.arch_name,
            "engine": self.engine,
            "provenance": dict(self.provenance),
        }
        if self.result is not None:
            view["added_cost"] = self.result.added_cost
            view["optimal"] = self.result.optimal
        if self.error is not None:
            view["error"] = self.error.to_dict()
        return view


class MappingService:
    """Async submit/status/result front end over the mapping pipeline.

    Args:
        couplings: The device(s) the service maps onto: a single
            :class:`CouplingMap`, a sequence of maps (registered under their
            ``name`` attributes) or an explicit name-to-map dictionary.
        engine: Default engine for submissions that do not name one.
        engine_options: Default engine options (merged under per-job options).
        store: Result store; a memory-only :class:`ResultStore` when omitted.
        workers: How many jobs solve at once: the size of the service's
            one pool, which lives from :meth:`start` to :meth:`stop`.  A
            job waiting for a free worker stays ``queued``.
        executor: ``"thread"`` or ``"process"`` (see
            :class:`~repro.pipeline.pipeline.MappingPipeline`).  A process
            worker that dies fails its job with ``mapping-failed``, and the
            pool is replaced for the jobs after it.

    Example:
        >>> async with MappingService(ibm_qx4(), engine="dp") as service:
        ...     job_id = await service.submit(circuit)
        ...     result = await service.result(job_id)
    """

    def __init__(
        self,
        couplings: Union[CouplingMap, Sequence[CouplingMap], Mapping[str, CouplingMap]],
        engine: str = "sat",
        engine_options: Optional[Dict[str, Any]] = None,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        executor: str = "thread",
    ):
        self.couplings = self._normalise_couplings(couplings)
        self.engine = resolve_mapper_name(engine)
        self.engine_options = dict(engine_options or {})
        self.store = store if store is not None else ResultStore()
        self.workers = max(1, int(workers))
        self._pool_type = executor_type(executor)
        self.executor = executor
        self.seeds = BoundProviderChain(self.store)
        self._jobs: Dict[str, Job] = {}
        self._primary_by_fp: Dict[str, Job] = {}
        self._queue: Optional["asyncio.Queue[Job]"] = None
        # Ids of the queued jobs still waiting for a worker: a job cancelled
        # or expired in the queue leaves this set at once, though the queue
        # holds it until the dispatcher discards it.
        self._waiting: "set[str]" = set()
        self._dispatcher: Optional[asyncio.Task] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._pool: Optional[Executor] = None
        self._job_tasks: "set[asyncio.Task]" = set()
        self._ids = itertools.count(1)
        self._counters = {
            "submitted": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "solved": 0,
            "failed": 0,
        }
        self._stopping = False
        self._in_flight = 0
        # Fleet-learning visibility: lifetime sums of per-job artifact
        # hit-rate counters (the ``artifact_*`` keys of SATMapper.map).
        self._artifact_totals: Dict[str, int] = {
            "artifact_hits": 0,
            "artifact_misses": 0,
            "artifact_clauses_imported": 0,
            "artifact_bounds_used": 0,
        }
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._per_engine: Dict[str, Dict[str, int]] = {}
        self._subscribers: "set[asyncio.Queue]" = set()
        self._event_seq = itertools.count(1)

    @staticmethod
    def _normalise_couplings(couplings) -> "Dict[str, CouplingMap]":
        if isinstance(couplings, CouplingMap):
            couplings = [couplings]
        if isinstance(couplings, Mapping):
            items = list(couplings.items())
        else:
            items = [(coupling.name, coupling) for coupling in couplings]
        if not items:
            raise ValueError("the service needs at least one coupling map")
        registry: Dict[str, CouplingMap] = {}
        for name, coupling in items:
            if name in registry:
                raise ValueError(f"duplicate coupling map name {name!r}")
            registry[name] = coupling
        return registry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MappingService":
        """Start the worker pool and the background dispatcher (idempotent)."""
        if self._pool is None:
            self._pool = self._pool_type(self.workers)
        if self._dispatcher is None or self._dispatcher.done():
            self._queue = asyncio.Queue()
            self._slots = asyncio.Semaphore(self.workers)
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service: finish in-flight work, fail whatever never ran.

        Drain semantics (the contract a supervisor's SIGTERM relies on):

        1. New submissions are rejected with :class:`ServiceUnavailable`
           from the moment ``stop`` is entered.
        2. Dispatching stops — no queued job is promoted to ``running``
           any more.
        3. Every already-*running* job is awaited to completion, and its
           result is written to the store before the jobs complete — there
           is nothing left to flush afterwards.  (Individual jobs *can* be
           interrupted mid-solve via :meth:`cancel`; a drain deliberately
           lets running work finish instead.)
        4. Jobs still ``queued`` (never dispatched) are failed with a
           structured :class:`ServiceUnavailable`; no job is ever left in a
           non-terminal state, so ``result()`` waiters always wake up.

        Args:
            drain: Kept for API compatibility and recorded in the failure
                details of queued jobs.  Running jobs are awaited either
                way; ``drain=False`` merely documents that the caller did
                not expect queued work to survive.
        """
        if self._dispatcher is None:
            return
        self._stopping = True
        try:
            # Stop the dispatcher first so nothing moves from the queue
            # into solving while we wait for running jobs.  A job is
            # dequeued and turned into its task without an await point, so
            # cancellation cannot strand a half-dispatched job.
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            while self._job_tasks:
                await asyncio.gather(
                    *list(self._job_tasks), return_exceptions=True
                )
            stranded: List[Job] = []
            if self._queue is not None:
                while True:
                    try:
                        stranded.append(self._queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
            for job in stranded:
                self._fail(
                    job,
                    ServiceUnavailable(
                        "service stopped before the job was dispatched; "
                        "resubmit (to another worker, or after restart)",
                        details={"job_id": job.job_id, "drain": drain},
                    ),
                )
            self._dispatcher = None
            self._queue = None
            pool, self._pool = self._pool, None
            if pool is not None:
                await asyncio.get_running_loop().run_in_executor(None, pool.shutdown)
        finally:
            self._stopping = False

    async def __aenter__(self) -> "MappingService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, circuit: QuantumCircuit, arch: Optional[str] = None) -> Tuple[str, CouplingMap]:
        """Choose the coupling map a circuit runs on.

        An explicit *arch* name must be registered and large enough; without
        one the smallest registered device that fits the circuit wins (ties
        broken by registration order).

        Raises:
            RoutingError: When no registered device can host the circuit.
        """
        if arch is not None:
            coupling = self.couplings.get(arch)
            if coupling is None:
                raise RoutingError(
                    f"unknown architecture {arch!r}",
                    details={"known": sorted(self.couplings)},
                )
            if coupling.num_qubits < circuit.num_qubits:
                raise RoutingError(
                    f"architecture {arch!r} has {coupling.num_qubits} qubits but "
                    f"the circuit needs {circuit.num_qubits}",
                    details={"arch": arch, "circuit": circuit.name},
                )
            return arch, coupling
        fitting = [
            (coupling.num_qubits, name)
            for name, coupling in self.couplings.items()
            if coupling.num_qubits >= circuit.num_qubits
        ]
        if not fitting:
            raise RoutingError(
                f"no registered architecture fits {circuit.num_qubits} qubits",
                details={
                    "circuit": circuit.name,
                    "devices": {
                        name: c.num_qubits for name, c in self.couplings.items()
                    },
                },
            )
        fitting.sort(key=lambda pair: pair[0])
        name = fitting[0][1]
        return name, self.couplings[name]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        circuit: QuantumCircuit,
        *,
        arch: Optional[str] = None,
        engine: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
        job_id: Optional[str] = None,
    ) -> str:
        """Submit one circuit; returns its job id immediately.

        The job completes without any mapper running when the result store
        already holds its fingerprint, or when an identical job is already
        in flight (the two complete together from one solve).  *job_id*
        names the job instead of the service's own counter (a fleet
        supervisor passes the public id it minted).
        """
        if self._stopping:
            raise ServiceUnavailable(
                "service is draining and no longer accepts submissions"
            )
        if self._queue is None:
            raise ServiceStateError("service not started; use 'async with' or start()")
        job_engine = self.engine if engine is None else resolve_mapper_name(engine)
        job_options = dict(self.engine_options)
        job_options.update(options or {})
        # ``time_limit`` is a *serving* concern, enforced here with a
        # deadline watchdog plus cooperative solver interrupts — it is
        # popped before fingerprinting so a cached result (solved under any
        # or no budget) still satisfies a budgeted resubmission.
        time_limit = job_options.pop("time_limit", None)
        if time_limit is not None:
            time_limit = float(time_limit)
            if time_limit <= 0:
                raise ServiceStateError(
                    "time_limit must be positive",
                    details={"time_limit": time_limit},
                )
        arch_name, coupling = self.route(circuit, arch)
        fingerprint = job_fingerprint(circuit, coupling, job_engine, job_options)
        job = Job(
            job_id=job_id or f"job-{next(self._ids):06d}",
            fingerprint=fingerprint,
            circuit=circuit,
            arch_name=arch_name,
            engine=job_engine,
            options=job_options,
            time_limit=time_limit,
        )
        job.provenance.update(
            {
                "arch": arch_name,
                "engine": job_engine,
                "options": canonical_options(job_options),
                "executor": self.executor,
            }
        )
        self._jobs[job.job_id] = job
        self._counters["submitted"] += 1
        self._engine_counter(job_engine, "submitted")
        if time_limit is not None:
            job.provenance["time_limit"] = time_limit
            job.deadline_handle = asyncio.get_running_loop().call_later(
                time_limit, self._expire_job, job
            )
        self._emit(job)

        # The store may do SQLite I/O (and wait on another writer's file
        # lock), so keep it off the event loop.  The coalescing check below
        # runs after this await without further suspension points, so two
        # concurrent identical submits still resolve to one primary job.
        cached = await asyncio.get_running_loop().run_in_executor(
            None, self.store.get, fingerprint
        )
        if cached is not None:
            self._counters["cache_hits"] += 1
            self._engine_counter(job_engine, "cache_hits")
            self._complete(job, cached, cache_hit=True, elapsed=0.0)
            return job.job_id

        primary = self._primary_by_fp.get(fingerprint)
        if primary is not None and primary.status in (QUEUED, RUNNING):
            self._counters["coalesced"] += 1
            job.provenance["coalesced_with"] = primary.job_id
            primary.followers.append(job)
            return job.job_id

        self._primary_by_fp[fingerprint] = job
        self._waiting.add(job.job_id)
        await self._queue.put(job)
        return job.job_id

    async def submit_many(
        self,
        circuits: Iterable[QuantumCircuit],
        *,
        arch: Optional[str] = None,
        engine: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> List[str]:
        """Submit a batch (routed per circuit when *arch* is omitted)."""
        return [
            await self.submit(circuit, arch=arch, engine=engine, options=options)
            for circuit in circuits
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(
                f"unknown job {job_id!r}", details={"job_id": job_id}
            )
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-ready status snapshot of one job."""
        return self._job(job_id).snapshot()

    def jobs(self) -> List[Dict[str, Any]]:
        """Status snapshots of every job, in submission order."""
        return [job.snapshot() for job in self._jobs.values()]

    async def result(self, job_id: str, timeout: Optional[float] = None) -> MappingResult:
        """Wait for a job and return its result.

        Raises:
            JobNotFoundError: Unknown job id.
            ServiceError: The job's structured failure, re-raised.
            asyncio.TimeoutError: *timeout* elapsed first.
        """
        job = self._job(job_id)
        await asyncio.wait_for(job.done_event.wait(), timeout)
        if job.error is not None:
            raise job.error
        assert job.result is not None
        return job.result

    # ------------------------------------------------------------------
    # Cancellation and deadlines
    # ------------------------------------------------------------------
    def cancel(self, job_id: str, reason: Optional[str] = None) -> Dict[str, Any]:
        """Cancel a job: interrupt its solvers, fail it with ``job-cancelled``.

        Queued jobs never start; running jobs are interrupted cooperatively
        at the solvers' next conflict boundary (engines without cooperative
        support finish their computation, but the job is failed immediately
        and the late result discarded).  Cancelling a terminal job is an
        idempotent no-op.  Returns the job's status snapshot.

        Raises:
            JobNotFoundError: Unknown job id.
        """
        job = self._job(job_id)
        if job.status in (DONE, FAILED):
            return job.snapshot()
        job.cancel_requested = True
        job.provenance["cancelled"] = True
        job.control.cancel()
        self._fail(
            job,
            JobCancelledError(
                reason or "job cancelled by client request",
                details={"job_id": job.job_id},
            ),
        )
        return job.snapshot()

    def _expire_job(self, job: Job) -> None:
        """Deadline watchdog callback: enforce the job's ``time_limit``."""
        if job.status in (DONE, FAILED):
            return
        job.provenance["deadline_enforced"] = True
        job.control.cancel()
        self._fail(
            job,
            DeadlineExceededError(
                f"time_limit of {job.time_limit}s elapsed before a result "
                "was found",
                details={"job_id": job.job_id, "time_limit": job.time_limit},
            ),
        )

    def stats(self) -> Dict[str, Any]:
        """Service-level counters, load gauges and latency quantiles.

        Besides the lifetime counters (submitted/cache_hits/coalesced/
        solved/failed) this reports the live load state — ``queue_depth``
        (jobs still waiting for a worker) and ``in_flight`` (jobs
        currently solving) — per-engine counter breakdowns, and the rolling
        p50/p99 latency over the last :data:`LATENCY_WINDOW` completions.
        """
        stats: Dict[str, Any] = dict(self._counters)
        stats["jobs_tracked"] = len(self._jobs)
        stats.update(self.load())
        stats["stopping"] = self._stopping
        stats["per_engine"] = {
            engine: dict(counters)
            for engine, counters in sorted(self._per_engine.items())
        }
        stats["latency"] = self._latency_summary()
        stats["devices"] = sorted(self.couplings)
        stats["artifact_seeding"] = dict(self._artifact_totals)
        stats["store"] = self.store.stats()
        return stats

    def load(self) -> Dict[str, int]:
        """The two routing gauges alone (no store I/O, unlike :meth:`stats`)."""
        return {
            "queue_depth": len(self._waiting),
            "in_flight": self._in_flight,
        }

    def _latency_summary(self) -> Dict[str, Any]:
        """Rolling quantiles over recent job completions (terminal states)."""
        values = sorted(self._latencies)
        summary: Dict[str, Any] = {
            "window": LATENCY_WINDOW,
            "count": len(values),
        }
        if not values:
            return summary
        # Nearest-rank quantiles: exact observed values, no interpolation.
        def rank(q: float) -> float:
            index = max(0, min(len(values) - 1, int(q * len(values) + 0.5) - 1))
            return values[index]

        summary["p50_seconds"] = rank(0.50)
        summary["p99_seconds"] = rank(0.99)
        summary["mean_seconds"] = sum(values) / len(values)
        summary["max_seconds"] = values[-1]
        return summary

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    def subscribe(self) -> "asyncio.Queue":
        """Subscribe to job state transitions.

        Returns an unbounded :class:`asyncio.Queue` that receives one
        JSON-ready dict per transition (``queued`` → ``running`` →
        ``done``/``failed``, including instant completions from cache hits
        and coalescing).  Nothing is dropped, so a relay sees every
        terminal event; the service never blocks on a listener, so a
        subscriber must keep consuming (the HTTP stream bounds each of its
        own clients instead).  Pass the queue to :meth:`unsubscribe` when
        done.
        """
        queue: "asyncio.Queue" = asyncio.Queue()
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        """Detach a queue returned by :meth:`subscribe` (idempotent)."""
        self._subscribers.discard(queue)

    def _emit(self, job: Job) -> None:
        """Push one state-transition event to every subscriber."""
        if not self._subscribers:
            return
        event = {
            "seq": next(self._event_seq),
            "job_id": job.job_id,
            "status": job.status,
            "fingerprint": job.fingerprint,
            "circuit_name": job.circuit.name,
            "arch": job.arch_name,
            "engine": job.engine,
        }
        if job.result is not None:
            event["added_cost"] = job.result.added_cost
            event["optimal"] = job.result.optimal
            event["cache_hit"] = bool(job.provenance.get("cache_hit"))
        if job.error is not None:
            event["error_code"] = job.error.code
        for queue in list(self._subscribers):
            queue.put_nowait(event)

    def _engine_counter(self, engine: str, key: str) -> None:
        counters = self._per_engine.setdefault(
            engine, {"submitted": 0, "cache_hits": 0, "solved": 0, "failed": 0}
        )
        counters[key] += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Take one queued job whenever one of the ``workers`` slots is
        free and run it as its own task; a job waiting for a slot stays in
        the queue (``queued``, counted by ``queue_depth``)."""
        assert self._queue is not None and self._slots is not None
        while True:
            await self._slots.acquire()
            job = await self._queue.get()
            task = asyncio.create_task(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    async def _run_job(self, job: Job) -> None:
        """Map one job on the pool, store its result and settle it.

        Whatever happens, the job reaches a final state: a job left
        ``running`` with its event unset would hang ``result()`` callers
        forever, and ``stop(drain=True)`` swallows task exceptions — so any
        unexpected error is converted into a job failure here.
        """
        slots = self._slots
        try:
            # A job may already be terminal by dispatch time (cancelled, or
            # its deadline fired while it sat in the queue): never start it.
            if job.status != QUEUED:
                return
            job.status = RUNNING
            self._waiting.discard(job.job_id)
            self._in_flight += 1
            self._emit(job)
            loop = asyncio.get_running_loop()
            coupling = self.couplings[job.arch_name]
            pool = self._pool
            try:
                status, payload, error_type, elapsed = await loop.run_in_executor(
                    pool, _map_circuit_task, job.engine, coupling, job.options,
                    job.circuit, self.seeds.resolve(),
                    job.control if self.executor == "thread" else None,
                )
            except BrokenProcessPool as error:
                # A worker process died (killed, or the engine exited it):
                # this job fails, and later jobs get a fresh pool.
                if self._pool is pool:
                    pool.shutdown(wait=False)
                    self._pool = self._pool_type(self.workers)
                status, payload, error_type = "error", str(error), type(error).__name__
            if job.status != RUNNING:
                # Cancelled or deadline-failed while solving: the outcome,
                # however it ended, is no longer this job's answer.
                return
            if status != "ok":
                self._fail(
                    job,
                    MappingFailedError(
                        payload or "mapping failed",
                        details={
                            "error_type": error_type,
                            "circuit": job.circuit.name,
                        },
                    ),
                )
                return
            try:
                await loop.run_in_executor(
                    None,
                    partial(
                        self.store.put,
                        job.fingerprint,
                        payload,
                        circuit_fp=job.circuit.fingerprint(),
                        arch_fp=coupling_fingerprint(coupling),
                    ),
                )
            except InvalidResultError as error:
                self._fail(job, error)
                return
            except ServiceError as error:
                # A failing store (read-only disk, lock timeout) must not
                # fail a successfully solved job — the result is simply
                # not cached this time.
                job.provenance["store_error"] = error.to_dict()
            if getattr(self.store, "degraded", False):
                # The store's circuit breaker is open: the result was kept
                # in memory only.  Say so truthfully instead of implying
                # durable caching.
                job.provenance["store_degraded"] = True
            self._counters["solved"] += 1
            statistics = payload.statistics
            if statistics.get("artifact_seeding"):
                for key in self._artifact_totals:
                    count = int(statistics.get(key, 0))
                    job.provenance[key] = count
                    self._artifact_totals[key] += count
                if "artifact_notes" in statistics:
                    job.provenance["artifact_notes"] = statistics["artifact_notes"]
            self._complete(job, payload, cache_hit=False, elapsed=elapsed)
        except Exception as error:  # noqa: BLE001 - converted to a job failure
            self._fail(
                job,
                MappingFailedError(
                    f"internal service error: {error}",
                    details={"error_type": type(error).__name__},
                ),
            )
        finally:
            slots.release()

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------
    def _complete(
        self, job: Job, result: MappingResult, *, cache_hit: bool, elapsed: float
    ) -> None:
        if job.status in (DONE, FAILED):
            # Already terminal (cancelled / deadline-failed) — a late
            # result must not resurrect the job or double-count gauges.
            return
        self._waiting.discard(job.job_id)
        if job.status == RUNNING:
            self._in_flight -= 1
        if not cache_hit and job.status == RUNNING:
            self._engine_counter(job.engine, "solved")
        job.result = result
        job.status = DONE
        job.provenance.update(
            {"cache_hit": cache_hit, "elapsed_seconds": elapsed}
        )
        self._latencies.append(elapsed)
        self._settle(job)
        job.done_event.set()
        self._emit(job)
        self._release(job)
        for follower in job.followers:
            # A follower was deduplicated in flight, not served from the
            # store — keep the two categories distinguishable per job.
            follower.provenance["coalesced"] = True
            self._complete(follower, result, cache_hit=False, elapsed=elapsed)
        job.followers = []

    def _fail(self, job: Job, error: ServiceError) -> None:
        if job.status in (DONE, FAILED):
            return
        self._waiting.discard(job.job_id)
        if job.status == RUNNING:
            self._in_flight -= 1
        job.error = error
        job.status = FAILED
        job.provenance["cache_hit"] = False
        self._settle(job)
        job.done_event.set()
        self._counters["failed"] += 1
        self._engine_counter(job.engine, "failed")
        self._emit(job)
        self._release(job)
        for follower in job.followers:
            self._fail(follower, error)
        job.followers = []

    def _settle(self, job: Job) -> None:
        """Terminal-state housekeeping shared by completion and failure.

        Disarms the deadline watchdog and drops the control token's solver
        references so solver arenas never outlive their job's run.
        """
        if job.deadline_handle is not None:
            job.deadline_handle.cancel()
            job.deadline_handle = None
        job.control.release()

    def _release(self, job: Job) -> None:
        if self._primary_by_fp.get(job.fingerprint) is job:
            del self._primary_by_fp[job.fingerprint]


__all__ = [
    "Job",
    "MappingService",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "LATENCY_WINDOW",
]
