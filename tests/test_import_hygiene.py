"""Cold-start hygiene: importing repro and mapping load neither networkx nor numpy.

Every CLI call, service start and fleet worker is a fresh interpreter, so
the import closure of the package is paid on each of them.  The mapping
path needs neither library: numpy is only for simulation (``repro.sim``)
and networkx only for the ``interaction_graph`` view.  The check runs in a
fresh interpreter so that modules loaded by other tests do not hide a
regression.
"""

import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_SCRIPT = """
import sys
sys.path.insert(0, {src!r})

import repro
import repro.cli
import repro.server.worker
from repro import (
    DPMapper, SabreLiteMapper, SATMapper, benchmark_circuit, ibm_qx4, verify_result,
)

circuit = benchmark_circuit("ex-1_166")
for mapper in (
    SATMapper(ibm_qx4(), use_subsets=True),
    DPMapper(ibm_qx4()),
    SabreLiteMapper(ibm_qx4()),
):
    result = mapper.map(circuit)
    assert verify_result(result, ibm_qx4()).compliant

heavy = sorted(name for name in ("networkx", "numpy") if name in sys.modules)
assert not heavy, f"mapping loaded {{heavy}}"

from repro import StatevectorSimulator, mapped_circuit_equivalent
assert mapped_circuit_equivalent(result.original_circuit, result.mapped_circuit,
                                 result.initial_mapping, result.final_mapping)
print("ok", StatevectorSimulator.__name__)
"""


def test_mapping_loads_neither_networkx_nor_numpy():
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src=_SRC)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ok", "StatevectorSimulator"]
