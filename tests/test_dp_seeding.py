"""DP's exact schedule as every sweep family's first incumbent.

Within DP's state limit each family of :meth:`SATMapper.map` starts at the
schedule :func:`repro.exact.dp_mapper.dp_schedule` computes on the family's
sub-coupling, re-costed by the family's encoding.  DP supplies incumbents
and phases only: the family is still decided by the solver's refutation or
by a proven lower bound, so the sweep's answer is independent evidence for
DP's.  These tests check that answer against DP family by family, that a
seed the encoding disagrees with is dropped, and the bookkeeping around the
seed.
"""

import pytest

from repro.arch.cache import shared_connected_subsets
from repro.arch.devices import ibm_qx4, sweep_grid8
from repro.benchlib.generators import benchmark_circuit, random_cnot_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.exact import sat_mapper
from repro.exact.dp_mapper import DPMapper, dp_schedule
from repro.exact.encoding import clear_skeleton_cache
from repro.exact.sat_mapper import SATMapper
from repro.pipeline.bounds import BoundProviderChain
from repro.pipeline.pipeline import MappingPipeline
from repro.verify import verify_result

#: The Table-1 stand-ins whose sweeps on QX4 finish in tier-1 time.
QX4_STAND_INS = ("3_17_13", "ex-1_166", "ham3_102", "miller_11", "4gt11_84")


@pytest.fixture(autouse=True)
def _plain_sweep(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK_IMPORTS", raising=False)
    clear_skeleton_cache()


def _subset_dp_minimum(coupling, circuit):
    """The minimum, over connected n-subsets, of DP on the subset alone."""
    return min(
        DPMapper(coupling.subgraph(subset)).map(circuit).added_cost
        for subset in shared_connected_subsets(coupling, circuit.num_qubits)
    )


def _corpus():
    """A seeded random corpus: (device factory, circuit)."""
    for seed in range(3):
        yield ibm_qx4, random_cnot_circuit(3, 8, seed=100 + seed)
        yield ibm_qx4, random_cnot_circuit(4, 6, seed=200 + seed)
        yield sweep_grid8, random_cnot_circuit(3, 8, seed=300 + seed)


class TestSweepAgreesWithSubsetDP:
    @pytest.mark.parametrize("name", QX4_STAND_INS)
    def test_qx4_stand_ins(self, name):
        circuit = benchmark_circuit(name)
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        assert result.added_cost == _subset_dp_minimum(ibm_qx4(), circuit)
        assert verify_result(result, ibm_qx4()).compliant
        assert not result.statistics["budget_exhausted"]

    @pytest.mark.parametrize(
        "device,circuit", list(_corpus()),
        ids=lambda value: getattr(value, "__name__", None)
        or getattr(value, "name", None),
    )
    def test_seeded_corpus(self, device, circuit):
        coupling = device()
        result = SATMapper(coupling, use_subsets=True).map(circuit)
        assert result.added_cost == _subset_dp_minimum(coupling, circuit)
        assert verify_result(result, coupling).compliant


class TestSeedRules:
    def test_dp_replaces_model_transfer(self):
        stats = SATMapper(sweep_grid8(), use_subsets=True).map(
            benchmark_circuit("ex-1_166")
        ).statistics
        # An unpruned family starts at DP's schedule unless that schedule
        # costs more than the sweep bound (it then only seeds phases); DP is
        # the only incumbent source.
        unpruned = stats["families_total"] - stats["families_pruned"]
        assert 1 <= stats["families_dp_seeded"] <= unpruned
        assert "model_seeded" not in stats

    def test_mis_costed_seed_is_rejected(self, monkeypatch):
        def understated(coupling, num_logical, gates, spots):
            mappings, objective, transitions = dp_schedule(
                coupling, num_logical, gates, spots
            )
            return mappings, objective - 1, transitions

        monkeypatch.setattr(sat_mapper, "dp_schedule", understated)
        circuit = benchmark_circuit("ex-1_166")
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        # Re-costing disagrees with every seed, so none is used and the
        # sweep solves cold to the true minimum.
        assert result.statistics["families_dp_seeded"] == 0
        assert result.statistics["families_closed"] == 0
        assert result.added_cost == _subset_dp_minimum(ibm_qx4(), circuit)

    def test_bound_below_the_minimum_still_needs_the_solver(self, monkeypatch):
        # DP's schedule (cost 8) exceeds the bound, so it only seeds phases;
        # the "no schedule within the bound" answer is the solver's own.
        solves = []
        original = sat_mapper.SATMapper._solve_family

        def counted(self, *args, **kwargs):
            outcome = original(self, *args, **kwargs)
            solves.append(outcome.status)
            return outcome

        monkeypatch.setattr(sat_mapper.SATMapper, "_solve_family", counted)
        with pytest.raises(sat_mapper.SATMapperError):
            SATMapper(ibm_qx4()).map(benchmark_circuit("ex-1_166"), upper_bound=7)
        assert solves == ["unsat"]



def _five_qubit_circuit():
    circuit = QuantumCircuit(5, name="five")
    for control, target in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)):
        circuit.cx(control, target)
    return circuit


class TestWholeDeviceSweep:
    """With n == m the sweep's single family is the whole device."""

    def test_seed_flags_hold_for_n_equal_m(self):
        sweep = SATMapper(ibm_qx4(), use_subsets=True)
        assert sweep.accepts_seeds_for(5)
        assert not sweep.accepts_seeds_for(4)
        assert SATMapper(ibm_qx4()).accepts_seeds_for(4)

    def test_optimality_is_claimed(self):
        circuit = _five_qubit_circuit()
        dp = DPMapper(ibm_qx4()).map(circuit)
        result = SATMapper(ibm_qx4(), use_subsets=True).map(circuit)
        assert result.statistics["families_total"] == 1
        assert result.statistics["families_dp_seeded"] == 1
        assert result.added_cost == dp.added_cost
        assert result.optimal

    def test_pipeline_seeds_the_whole_device_sweep(self):
        circuit = _five_qubit_circuit()
        coupling = ibm_qx4()
        dp = DPMapper(coupling).map(circuit)
        result = MappingPipeline(
            coupling, engine="sat", engine_options={"use_subsets": True},
            seeds=BoundProviderChain(upper_bound=dp.added_cost),
        ).map(circuit)
        assert result.statistics["external_bound"] == dp.added_cost
        assert result.statistics["families_dp_seeded"] == 1
        assert result.added_cost == dp.added_cost
