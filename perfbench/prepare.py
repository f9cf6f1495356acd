"""What the program does before it can take its first job.

Imported by the benchmark process and, for ``setup_s``, by fresh
interpreters (see ``SETUP_PROBE``), so both do exactly the same work.
"""

from __future__ import annotations

from repro import MappingService, ResultStore, ibm_qx4
from repro.arch.cache import (
    shared_connected_subsets,
    shared_permutation_table,
    shared_synthesizer,
)
from repro.arch.devices import sweep_grid8


def device_tables(coupling, subset_sizes) -> None:
    """Reconstruction table of the device plus the tables of its subsets."""
    shared_synthesizer(coupling)
    for size in subset_sizes:
        for subset in shared_connected_subsets(coupling, size):
            shared_permutation_table(coupling.subgraph(subset))


def qx4_tables() -> None:
    device_tables(ibm_qx4(), (3, 4))


def grid8_service(store_path) -> MappingService:
    """The warm-grid8 service over a fresh store (not yet started)."""
    device_tables(sweep_grid8(), (3,))
    return MappingService(
        sweep_grid8(),
        engine="sat",
        engine_options={"use_subsets": True},
        store=ResultStore(store_path),
        workers=1,
    )


#: Set-up takes a few tenths of a second, so its probes sample the pace
#: more often than the jobs do.
SETUP_TICK_S = 0.01

#: Run with ``python -c`` from the checkout root; prints set-up seconds,
#: counted from after interpreter start and scaled to the reference speed
#: (see ``pace``).  ``WORK_DIR`` stands for the quoted path of the probe's
#: store directory and ``TICK_S`` for ``SETUP_TICK_S``.
SETUP_PROBE = {
    "exact-qx4": """
import sys; sys.path.insert(0, "perfbench")
import pace
meter = pace.Pace()
with meter.ticking(TICK_S):
    mark = meter.start()
    import prepare
    prepare.qx4_tables()
    seconds, stretch = meter.finish(mark)
print(seconds * meter.factor(stretch))
""",
    "warm-grid8": """
import sys; sys.path.insert(0, "perfbench")
import pace
meter = pace.Pace()

async def main():
    service = prepare.grid8_service(WORK_DIR + "/results.sqlite")
    await service.start()
    done = meter.finish(mark)
    await service.stop()
    return done

with meter.ticking(TICK_S):
    mark = meter.start()
    import asyncio
    import prepare
    seconds, stretch = asyncio.run(main())
print(seconds * meter.factor(stretch))
""",
}
