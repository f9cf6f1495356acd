"""The service layer end to end: fingerprints, persistent cache, async jobs.

Demonstrates the ``repro.service`` subsystem on top of the batch pipeline:

* content-addressed job fingerprints (``QuantumCircuit.fingerprint`` +
  canonical coupling-map key + engine + options),
* the persistent :class:`~repro.service.store.ResultStore` — the second
  "run" of this script's workload is served entirely from SQLite,
* the async :class:`~repro.service.service.MappingService` with
  submit/status/result job semantics, in-flight deduplication and routing
  across two devices.

Run with::

    PYTHONPATH=src python examples/cached_service_demo.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import MappingService, ResultStore, ibm_qx4, ibm_qx5
from repro.benchlib import benchmark_circuit, benchmark_names
from repro.circuit import QuantumCircuit
from repro.pipeline import cache_stats
from repro.service import describe_job


async def run_workload(cache_dir: Path, label: str) -> None:
    """Submit the same workload against the same persistent store."""
    store = ResultStore.at(cache_dir)
    circuits = [benchmark_circuit(name) for name in benchmark_names(max_qubits=3)]
    wide = QuantumCircuit(9, name="wide_9q")
    wide.cx(0, 8)
    wide.cx(8, 4)

    async with MappingService(
        [ibm_qx4(), ibm_qx5()],
        engine="dp",
        store=store,
        workers=4,
    ) as service:
        job_ids = await service.submit_many(circuits)
        # Too wide for QX4: routed to QX5 automatically.  The exact engines
        # refuse 16-qubit exhaustive enumeration, so this job overrides the
        # engine per submission — a heuristic handles the big device.
        job_ids.append(await service.submit(wide, engine="sabre"))
        # Submitting the first circuit again while (possibly) in flight:
        # either coalesced onto the running job or served from the store.
        job_ids.append(await service.submit(circuits[0]))

        print(f"--- {label} ---")
        for job_id in job_ids:
            try:
                result = await service.result(job_id)
            except Exception as error:  # noqa: BLE001 - demo output
                print(f"  {job_id}: FAILED ({error})")
                continue
            status = service.status(job_id)
            provenance = status["provenance"]
            if provenance.get("cache_hit"):
                source = "cache"
            elif provenance.get("coalesced"):
                source = "coalesced"
            else:
                source = "solved"
            print(
                f"  {status['circuit_name']:14s} {source:7s} "
                f"arch={status['arch']:8s} added={result.added_cost:3d} "
                f"optimal={result.optimal}"
            )
        stats = service.stats()
        print(
            f"  -> {stats['cache_hits']} cache hits, "
            f"{stats['coalesced']} coalesced, {stats['solved']} solved "
            f"(store: {stats['store']['disk_entries']} persisted results)"
        )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "repro-cache"

        # One fingerprint identifies one mapping instance, names excluded.
        circuit = benchmark_circuit("3_17_13")
        record = describe_job(circuit, ibm_qx4(), "dp", {"strategy": "all"})
        print("job fingerprint:", record["fingerprint"][:16], "…")
        print("  circuit:", record["circuit_fingerprint"][:16], "…")
        print("  arch   :", record["arch_fingerprint"][:16],
              f"… ({record['arch_name']}, name not hashed)")

        # First pass solves everything; the second is served from the store
        # — same store file, fresh service instance, zero mapper calls.
        asyncio.run(run_workload(cache_dir, "first pass (cold store)"))
        asyncio.run(run_workload(cache_dir, "second pass (warm store)"))

        print("\nper-architecture caches:", cache_stats())


if __name__ == "__main__":
    main()
