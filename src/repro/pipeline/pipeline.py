"""Batch mapping over worker pools, with structured per-item results.

:class:`MappingPipeline` is the service-shaped front end of the package: it
resolves its engine through the :mod:`repro.pipeline.registry`, maps single
circuits or whole batches, and parallelises at the **circuit level**:
:meth:`MappingPipeline.map_many` fans independent circuits out over a
:mod:`concurrent.futures` thread or process pool and returns one
:class:`BatchItem` per input (result *or* structured failure — one bad
circuit never poisons the batch).  A single circuit is always mapped by the
engine's own ``map``; for the SAT subset sweep that is the sequential
:meth:`repro.exact.sat_mapper.SATMapper.map`, whose incumbent-driven family
pruning and clause sharing both depend on solving families in plan order.

The one engine that takes seeds is
:class:`~repro.exact.sat_mapper.SATMapper`.  Its ``map`` accepts a caller
bound where ``mapper.accepts_seeds_for(num_logical)`` says the bound is safe,
and always accepts the **solve-artifact** cache handle, so sweeps
warm-start from structurally identical past jobs.  Both come from an
optional :class:`~repro.pipeline.bounds.BoundProviderChain` — the seed
resolver — before any solver starts.

The pure-Python SAT solver holds the GIL, so ``executor="process"`` is the
choice for real speed-ups; ``executor="thread"`` (the default) still
overlaps I/O and keeps the API identical without any pickling requirements.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.result import MappingResult
from repro.pipeline.bounds import BoundProviderChain, SeedResolution
from repro.pipeline.registry import get_mapper, resolve_mapper_name


def _map_with_seed(mapper, circuit: QuantumCircuit, seed: SeedResolution):
    """Map through *mapper* with whatever *seed* holds (see
    :meth:`MappingPipeline._resolve_seed`, which resolved it for this
    mapper and circuit)."""
    kwargs = {}
    if seed.bound is not None:
        kwargs["upper_bound"] = seed.bound
    if seed.artifacts is not None:
        kwargs["artifacts"] = seed.artifacts
    return mapper.map(circuit, **kwargs)


@dataclass
class BatchItem:
    """Outcome of mapping one circuit of a batch.

    Exactly one of :attr:`result` and :attr:`error` is set.

    Attributes:
        index: Position of the circuit in the input batch.
        name: The circuit's name.
        result: The mapping result on success.
        error: Human-readable failure message on failure.
        error_type: Exception class name on failure.
        elapsed_seconds: Wall-clock time spent on this item.
    """

    index: int
    name: str
    result: Optional[MappingResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the circuit was mapped successfully."""
        return self.result is not None


def _map_circuit_task(
    engine: str,
    coupling: CouplingMap,
    options: Dict[str, Any],
    circuit: QuantumCircuit,
    seed: SeedResolution,
    control=None,
) -> Tuple[str, Any, Optional[str], float]:
    """Worker task: map one circuit with a freshly built engine.

    *seed* is resolved by the parent (the resolver holds the store, with
    its locks, so it never crosses into workers) and holds only plain
    values plus a picklable :class:`~repro.service.store.ArtifactCache`
    handle, which carries only the database path and reopens lazily on
    the far side.

    Returns a plain tuple ``(status, payload, error_type, elapsed)`` instead
    of raising, so process workers never have to pickle tracebacks.
    """
    start = time.monotonic()
    try:
        if control is not None and control.cancelled:
            return (
                "error", "job cancelled before mapping started",
                "JobCancelled", time.monotonic() - start,
            )
        mapper = get_mapper(engine, coupling, **options)
        if control is not None and hasattr(mapper, "bind_control"):
            # Cooperative cancellation/deadline token (thread executors
            # only — it never crosses a process boundary).  Engines without
            # bind_control run to completion; their caller enforces the
            # deadline by abandoning the result.
            mapper.bind_control(control)
        result = _map_with_seed(mapper, circuit, seed)
        return ("ok", result, None, time.monotonic() - start)
    except Exception as error:  # noqa: BLE001 - converted to a structured failure
        return ("error", str(error), type(error).__name__, time.monotonic() - start)


class MappingPipeline:
    """Registry-backed mapping front end with batch parallelism.

    Args:
        coupling: Target architecture shared by all mapped circuits.
        engine: Registry name of the mapping engine (``"sat"``, ``"dp"``,
            ``"stochastic"``, ``"sabre"``, ``"sat_split"``, or any name
            added via :func:`repro.pipeline.registry.register_mapper`).
        engine_options: Keyword options forwarded to the engine factory.
        workers: Default worker count for :meth:`map_many`; ``1`` means
            fully sequential.
        executor: ``"thread"`` (default) or ``"process"``.  With
            ``"process"``, worker processes re-resolve the engine from their
            own copy of the registry: custom engines added at runtime via
            :func:`~repro.pipeline.registry.register_mapper` are only visible
            to workers on platforms whose start method is ``fork`` (Linux) or
            when the registration runs at import time of a module the workers
            also import; on spawn-start platforms (Windows, macOS default) a
            runtime-registered name fails in the workers with ``KeyError``.
        seeds: Optional seed resolver
            (:class:`~repro.pipeline.bounds.BoundProviderChain`) that
            warm-starts every mapped circuit.

    Example:
        >>> from repro.arch import ibm_qx4
        >>> pipeline = MappingPipeline(ibm_qx4(), engine="dp")
        >>> items = pipeline.map_many([circuit_a, circuit_b], workers=2)
        >>> [item.result.added_cost for item in items if item.ok]
        [0, 4]
    """

    def __init__(
        self,
        coupling: CouplingMap,
        engine: str = "sat",
        engine_options: Optional[Dict[str, Any]] = None,
        workers: int = 1,
        executor: str = "thread",
        seeds: Optional[BoundProviderChain] = None,
    ):
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; use 'thread' or 'process'"
            )
        self.coupling = coupling
        self.engine = resolve_mapper_name(engine)
        self.engine_options = dict(engine_options or {})
        self.workers = max(1, int(workers))
        self.executor = executor
        self.seeds = seeds

    # ------------------------------------------------------------------
    def _resolve_seed(
        self, mapper, circuit: QuantumCircuit
    ) -> SeedResolution:
        """Resolve what *mapper* can be warm-started with for *circuit*.

        The resolver runs in the calling thread (it holds the result
        store); the resolved plain values are what travel into worker
        tasks.  Only a mapper with ``accepts_seeds_for`` takes seeds: the
        artifact handle always, and the caller's bound where
        ``accepts_seeds_for(circuit.num_qubits)`` holds — a subset sweep
        takes it only when the circuit uses every physical qubit, because
        a proper sweep's restricted minimum may lie above it.
        """
        accepts_seeds_for = getattr(mapper, "accepts_seeds_for", None)
        if self.seeds is None or accepts_seeds_for is None:
            return SeedResolution()
        if accepts_seeds_for(circuit.num_qubits):
            resolution = self.seeds.resolve_seed()
        else:
            resolution = SeedResolution()
        resolution.artifacts = self.seeds.resolve_artifacts()
        return resolution

    @staticmethod
    def _annotate_seed(result: MappingResult, seed: SeedResolution) -> None:
        if seed.bound is not None:
            result.statistics.setdefault("external_bound", seed.bound)
        if seed.artifacts is not None:
            result.statistics.setdefault("artifact_provider", "artifact")

    # ------------------------------------------------------------------
    def _make_executor(self, workers: int) -> Executor:
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)

    def create_mapper(self):
        """A fresh engine instance from the registry."""
        return get_mapper(self.engine, self.coupling, **self.engine_options)

    # ------------------------------------------------------------------
    # Single circuit
    # ------------------------------------------------------------------
    def map(
        self, circuit: QuantumCircuit, control: Optional[Any] = None
    ) -> MappingResult:
        """Map one circuit with the engine's own ``map``.

        The engine is seeded with whatever the seed resolver finds and it
        allows (see :meth:`_resolve_seed`).  *control* is an optional
        cooperative-cancellation token for engines with ``bind_control``;
        the circuit is mapped in the calling thread, so the token is
        honoured under either executor.
        """
        mapper = self.create_mapper()
        if control is not None and hasattr(mapper, "bind_control"):
            mapper.bind_control(control)
        seed = self._resolve_seed(mapper, circuit)
        result = _map_with_seed(mapper, circuit, seed)
        self._annotate_seed(result, seed)
        return result

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def map_many(
        self,
        circuits: Iterable[QuantumCircuit],
        workers: Optional[int] = None,
        controls: Optional[Sequence[Any]] = None,
    ) -> List[BatchItem]:
        """Map a batch of circuits, one :class:`BatchItem` per input.

        Items are returned in input order.  A circuit that fails to map
        (for example because it has more logical qubits than the device)
        yields an item with :attr:`BatchItem.error` set; the other circuits
        are unaffected.

        Args:
            circuits: The circuits to map.
            workers: Worker count for this call (defaults to the pipeline's
                ``workers``); ``1`` maps sequentially in the calling thread.
            controls: Optional per-circuit
                :class:`~repro.sat.control.SolveControl` tokens (aligned
                with *circuits*) for cooperative cancellation and deadline
                interrupts.  Honoured under the thread executor only — the
                tokens cannot cross a process boundary, so with
                ``executor="process"`` cancellation degrades to the caller
                abandoning the result.
        """
        batch = list(circuits)
        batch_controls: List[Any] = list(controls or [])
        batch_controls.extend([None] * (len(batch) - len(batch_controls)))
        if self.executor == "process":
            batch_controls = [None] * len(batch)
        pool_size = self.workers if workers is None else max(1, int(workers))
        pool_size = min(pool_size, max(1, len(batch)))

        # Resolve seeds in the calling thread: the resolver holds the store
        # and its locks, which must not cross into process workers.  Only
        # the picklable resolutions travel.
        resolutions = [SeedResolution() for _ in batch]
        if self.seeds is not None and batch:
            probe = self.create_mapper()
            resolutions = [self._resolve_seed(probe, circuit) for circuit in batch]

        def task_args(index: int, circuit: QuantumCircuit):
            return (
                self.engine, self.coupling, self.engine_options, circuit,
                resolutions[index], batch_controls[index],
            )

        if pool_size <= 1 or len(batch) <= 1:
            items = [
                self._item_from_task(
                    index, circuit, _map_circuit_task(*task_args(index, circuit))
                )
                for index, circuit in enumerate(batch)
            ]
        else:
            slots: List[Optional[BatchItem]] = [None] * len(batch)
            with self._make_executor(pool_size) as pool:
                futures = {
                    pool.submit(
                        _map_circuit_task, *task_args(index, circuit)
                    ): (index, circuit)
                    for index, circuit in enumerate(batch)
                }
                for future in futures:
                    index, circuit = futures[future]
                    slots[index] = self._item_from_task(
                        index, circuit, future.result()
                    )
            items = [item for item in slots if item is not None]
        for item in items:
            if item.ok:
                self._annotate_seed(item.result, resolutions[item.index])
        return items

    @staticmethod
    def _item_from_task(
        index: int,
        circuit: QuantumCircuit,
        task_result: Tuple[str, Any, Optional[str], float],
    ) -> BatchItem:
        status, payload, error_type, elapsed = task_result
        if status == "ok":
            return BatchItem(
                index=index, name=circuit.name,
                result=payload, elapsed_seconds=elapsed,
            )
        return BatchItem(
            index=index, name=circuit.name,
            error=payload, error_type=error_type, elapsed_seconds=elapsed,
        )


__all__ = ["BatchItem", "MappingPipeline"]
