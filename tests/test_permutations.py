"""Unit tests for permutation utilities and the swaps(pi) table."""

import itertools
import random

import pytest

from repro.arch.coupling import CouplingMap
from repro.arch.devices import (
    fully_connected_architecture,
    ibm_qx2,
    ibm_qx4,
    linear_architecture,
    sweep_grid8,
)
from repro.arch.permutations import (
    MappingGraph,
    PermutationTable,
    apply_permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
    permutation_between,
    swap_transposition,
)


class TestPermutationAlgebra:
    def test_identity(self):
        assert identity_permutation(4) == (0, 1, 2, 3)

    def test_compose(self):
        first = (1, 0, 2)
        second = (2, 1, 0)
        composed = compose_permutations(first, second)
        # Element at 0 goes to 1 (first), then 1 goes to 1 (second) -> 1.
        assert composed == (1, 2, 0)

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            compose_permutations((0, 1), (0, 1, 2))

    def test_invert(self):
        perm = (2, 0, 1)
        assert compose_permutations(perm, invert_permutation(perm)) == (0, 1, 2)

    def test_apply_to_mapping(self):
        mapping = (0, 2)  # logical 0 -> physical 0, logical 1 -> physical 2
        perm = (1, 0, 2)
        assert apply_permutation(perm, mapping) == (1, 2)

    def test_permutation_between_total_mappings(self):
        old = (0, 1, 2)
        new = (2, 0, 1)
        perm = permutation_between(old, new, 3)
        assert apply_permutation(perm, old) == new

    def test_permutation_between_requires_total(self):
        with pytest.raises(ValueError):
            permutation_between((0, 1), (1, 0), 3)

    def test_swap_transposition(self):
        assert swap_transposition(4, (1, 3)) == (0, 3, 2, 1)


def _reference_sequences(coupling):
    """The dict-of-lists BFS that :class:`PermutationTable` replaced, kept verbatim.

    It stores one minimal SWAP sequence per reachable permutation; the table
    must report exactly these sequences.
    """
    size = coupling.num_qubits
    edges = sorted(coupling.undirected_edges)
    generators = [(edge, swap_transposition(size, edge)) for edge in edges]
    identity = identity_permutation(size)
    sequences = {identity: []}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for perm in frontier:
            base_sequence = sequences[perm]
            for edge, transposition in generators:
                successor = compose_permutations(perm, transposition)
                if successor in sequences:
                    continue
                sequences[successor] = base_sequence + [edge]
                next_frontier.append(successor)
        frontier = next_frontier
    return sequences


class TestMinimalSwapSequences:
    def test_all_permutations_reachable_on_connected_graph(self):
        assert len(PermutationTable(ibm_qx4())) == 120

    def test_sequences_realise_their_permutation(self):
        table = PermutationTable(linear_architecture(4))
        for perm in table.permutations():
            realised = identity_permutation(4)
            for edge in table.swap_sequence(perm):
                realised = compose_permutations(realised, swap_transposition(4, edge))
            assert realised == perm

    def test_sequences_are_minimal_on_line3(self):
        # On a 3-qubit line the cyclic shift needs 2 swaps; the full reversal
        # (0 2) needs 3 (the middle qubit must pass through).
        table = PermutationTable(linear_architecture(3))
        assert len(table.swap_sequence((1, 0, 2))) == 1
        assert len(table.swap_sequence((2, 0, 1))) == 2
        assert len(table.swap_sequence((2, 1, 0))) == 3

    def test_identity_has_empty_sequence(self):
        table = PermutationTable(ibm_qx4())
        assert table.swap_sequence(identity_permutation(5)) == []


class TestTableMatchesReferenceBFS:
    """The packed last-edge table rebuilds the reference BFS's sequences."""

    @pytest.mark.parametrize(
        "coupling",
        [
            ibm_qx4(),
            sweep_grid8(),
            linear_architecture(3),
            CouplingMap(5, [(0, 1), (1, 2), (3, 4)], name="two-components"),
            # 28 edges, the most an 8-qubit device has: the widest edge index.
            fully_connected_architecture(8),
        ],
        ids=["qx4", "grid8", "line3", "disconnected", "complete8"],
    )
    def test_sequences_counts_and_reachability(self, coupling):
        reference = _reference_sequences(coupling)
        table = PermutationTable(coupling)
        assert len(table) == len(reference)
        assert set(table.permutations()) == set(reference)
        for perm in itertools.permutations(range(coupling.num_qubits)):
            sequence = reference.get(perm)
            assert table.reachable(perm) == (sequence is not None)
            if sequence is not None:
                assert table.swap_sequence(perm) == sequence
                assert table.swaps(perm) == len(sequence)

    def test_unreachable_permutation_raises(self):
        table = PermutationTable(CouplingMap(3, [(0, 1)]))
        with pytest.raises(KeyError):
            table.swaps((2, 1, 0))
        with pytest.raises(KeyError):
            table.swap_sequence((2, 1, 0))

    def test_single_qubit_device(self):
        table = PermutationTable(CouplingMap(1, []))
        assert list(table.permutations()) == [(0,)]
        assert table.swap_sequence((0,)) == []


class TestPermutationTable:
    def test_refuses_large_devices(self):
        with pytest.raises(ValueError):
            PermutationTable(linear_architecture(9))

    def test_swaps_counts(self):
        table = PermutationTable(ibm_qx4())
        assert table.swaps(identity_permutation(5)) == 0
        # A single transposition along a coupled edge costs one SWAP.
        assert table.swaps(swap_transposition(5, (0, 1))) == 1
        # A transposition of two uncoupled qubits costs at least three.
        assert table.swaps(swap_transposition(5, (0, 4))) >= 3

    def test_every_permutation_is_reachable(self):
        table = PermutationTable(ibm_qx4())
        for perm in itertools.permutations(range(5)):
            assert table.reachable(perm)

    def test_transition_cost_total_mapping(self):
        table = PermutationTable(ibm_qx4())
        old = (0, 1, 2, 3, 4)
        new = (1, 0, 2, 3, 4)
        assert table.transition_cost(old, new) == 1

    def test_transition_cost_partial_mapping_uses_cheapest_completion(self):
        table = PermutationTable(ibm_qx4())
        # Only two logical qubits: move logical 0 from 0 to 1 and logical 1
        # from 1 to 0 -- one SWAP on edge (0, 1).
        assert table.transition_cost((0, 1), (1, 0)) == 1
        # Keeping everything in place costs nothing.
        assert table.transition_cost((0, 1), (0, 1)) == 0

    def test_transition_sequence_realises_transition(self):
        table = PermutationTable(ibm_qx4())
        old = (0, 1, 2, 4, 3)
        new = (2, 1, 0, 3, 4)
        edges = table.transition_sequence(old, new)
        mapping = list(old)
        for a, b in edges:
            for logical, physical in enumerate(mapping):
                if physical == a:
                    mapping[logical] = b
                elif physical == b:
                    mapping[logical] = a
        assert tuple(mapping) == new
        assert len(edges) == table.transition_cost(old, new)

    def test_consistent_permutations_partial(self):
        table = PermutationTable(ibm_qx4())
        consistent = list(table.consistent_permutations((0, 1, 2), (0, 1, 2)))
        # The two unused physical qubits (3, 4) may stay or swap: 2 completions.
        assert len(consistent) == 2


class TestTransitionEarlyExit:
    """Partial-mapping transitions must not scan every ``free!`` completion."""

    def _counting_table(self, coupling):
        table = PermutationTable(coupling)
        consumed = {"count": 0}
        original = table.consistent_permutations

        def counting(old, new):
            for perm in original(old, new):
                consumed["count"] += 1
                yield perm

        table.consistent_permutations = counting
        return table, consumed

    def test_adjacent_swap_skips_enumeration_on_grid8(self):
        from repro.arch.devices import sweep_grid8

        table, consumed = self._counting_table(sweep_grid8())
        # Two logicals trade places along a coupled edge; six physicals are
        # free, so the old code scanned up to 6! = 720 completions.  The
        # nearest-free matching meets the distance lower bound immediately.
        assert table.transition_cost((0, 1), (1, 0)) == 1
        assert consumed["count"] == 0

    def test_enumeration_stops_at_lower_bound(self):
        from repro.arch.devices import sweep_grid8

        table, consumed = self._counting_table(sweep_grid8())
        # A longer move with many free qubits: whatever path the scan takes,
        # it must stop far short of the factorial completion count.
        cost = table.transition_cost((0,), (7,))
        assert cost >= 3  # 0 and 7 are three edges apart on the grid
        assert consumed["count"] < 720  # 7 free qubits -> 5040 completions

    def test_early_exit_preserves_minimality(self):
        # Differential check against a blind scan over all completions.
        table = PermutationTable(ibm_qx4())
        for old, new in [
            ((0, 1), (1, 0)),
            ((0,), (4,)),
            ((0, 2), (3, 1)),
            ((1, 3, 4), (4, 0, 2)),
        ]:
            brute = min(
                table.swaps(perm)
                for perm in table.consistent_permutations(old, new)
                if table.reachable(perm)
            )
            assert table.transition_cost(old, new) == brute
            sequence = table.transition_sequence(old, new)
            assert len(sequence) == brute


def graph_distances(graph, source):
    """SWAP distances from state *source* by BFS over ``graph.neighbours``;
    ``None`` for states in another component."""
    distances = [None] * len(graph.states)
    distances[source] = 0
    frontier = [source]
    while frontier:
        reached = []
        for state in frontier:
            for neighbour in graph.neighbours[state]:
                if distances[neighbour] is None:
                    distances[neighbour] = distances[state] + 1
                    reached.append(neighbour)
        frontier = reached
    return distances


def _reference_swaps(table, old, new):
    """``transition_cost``, or ``None`` where no SWAP sequence connects."""
    try:
        return table.transition_cost(old, new)
    except ValueError:
        return None


class TestMappingTransitionTable:
    """Distances in the mapping graph against the full-permutation table of
    the paper (the class keeps the name of the all-pairs table it replaced)."""

    @pytest.mark.parametrize("factory", [ibm_qx2, ibm_qx4])
    @pytest.mark.parametrize("num_logical", [2, 3, 4, 5])
    def test_every_pair_matches_permutation_table(self, factory, num_logical):
        coupling = factory()
        reference = PermutationTable(coupling)
        graph = MappingGraph(coupling, num_logical)
        assert graph.states == list(itertools.permutations(range(5), num_logical))
        for i, old in enumerate(graph.states):
            distances = graph_distances(graph, i)
            for j, new in enumerate(graph.states):
                assert distances[j] == reference.transition_cost(old, new)

    @pytest.mark.parametrize("num_logical", [1, 2, 3])
    def test_disconnected_device_marks_cross_component_pairs(self, num_logical):
        coupling = CouplingMap(5, [(0, 1), (1, 2), (3, 4)], name="two-components")
        reference = PermutationTable(coupling)
        graph = MappingGraph(coupling, num_logical)
        unreachable = 0
        for i, old in enumerate(graph.states):
            distances = graph_distances(graph, i)
            for j, new in enumerate(graph.states):
                expected = _reference_swaps(reference, old, new)
                assert distances[j] == expected
                unreachable += expected is None
        assert unreachable > 0

    def test_sampled_grid8_pairs_match_permutation_table(self):
        coupling = sweep_grid8()
        reference = PermutationTable(coupling)
        graph = MappingGraph(coupling, 3)
        assert len(graph.states) == 8 * 7 * 6
        rng = random.Random(2019)
        for _ in range(1000):
            i, j = rng.randrange(len(graph.states)), rng.randrange(len(graph.states))
            swaps = reference.transition_cost(graph.states[i], graph.states[j])
            assert graph_distances(graph, i)[j] == graph_distances(graph, j)[i] == swaps

    def test_state_count_is_bounded(self):
        MappingGraph(sweep_grid8(), 5)
        with pytest.raises(ValueError, match="refusing to enumerate 20160 mappings"):
            MappingGraph(sweep_grid8(), 6)
