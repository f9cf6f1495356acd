"""Symbolic (Boolean) formulation of the mapping problem (Section 3.2).

Given the CNOT skeleton of a circuit, a coupling map and a set of permutation
spots, :func:`build_encoding` produces a CNF formula together with a weighted
objective, exactly following the paper's formulation:

* mapping variables ``x^k_ij`` — logical qubit ``j`` sits on physical qubit
  ``i`` right before CNOT gate ``k`` (Definition 4),
* constraint (1): each mapping is a valid injective assignment,
* constraint (2): each CNOT acts on a coupled pair, in either orientation,
* permutation variables ``y^k_pi`` and constraint (3): ``y^k_pi`` tracks the
  permutation applied between gate ``k-1`` and ``k`` (with the "left-handed
  implication" variant of footnote 5 whenever ``n < m``),
* switching variables ``z^k`` and constraint (4): ``z^k`` tracks whether the
  CNOT direction must be reversed,
* objective (5): ``F = sum_k sum_pi 7*swaps(pi)*y^k_pi + sum_k 4*z^k``.

Gates that are not permutation spots keep the mapping unchanged (their
``x`` variables are equated with the previous gate's), which is how the
Section 4.2 strategies shrink the search space.

Construction fast path
----------------------
An encoding consists of three contiguous variable blocks, in this order:

1. the **x block** — mapping variables with constraint (1); depends only on
   ``(gates, n, m)``,
2. the **edge block** — constraint (2) placement literals and the switching
   variables of constraint (4); the only part that reads the *directed*
   edge set,
3. the **spot block** — shared equality variables, permutation variables
   and constraint (3); its content (including the permutation enumeration
   order, a BFS over undirected SWAP edges) depends only on ``(gates, n, m,
   spots)`` and the *undirected* edge set.

Blocks 1 and 3 are memoised in an :class:`EncodingSkeleton` keyed by exactly
those inputs: a subset sweep re-runs the Tseitin construction once per
undirected structure, and every further family instantiates the cached
skeleton by sharing the x-block clause objects verbatim and re-basing the
spot block with a constant index shift (literal substitution) — the edge
block in between is the only part built per family.  The skeleton also
fixes the *roles* of the shared variables across families, which is what
makes cross-family learned-clause sharing (:mod:`repro.exact.sweep`) a
table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.cache import Memo, shared_permutation_table
from repro.arch.coupling import CouplingMap
from repro.arch.permutations import Permutation, PermutationTable
from repro.exact.cost import REVERSAL_COST, SWAP_COST
from repro.sat.cardinality import at_most_one_pairwise, exactly_one
from repro.sat.cnf import CNF, Clause, VariablePool
from repro.sat.optimize import ObjectiveTerm
from repro.sat.tseitin import TseitinEncoder


class EncodingError(ValueError):
    """Raised when the mapping problem cannot be encoded."""


@dataclass
class MappingEncoding:
    """The symbolic instance handed to the reasoning engine.

    Attributes:
        cnf: Hard constraints (constraints (1)-(4) of the paper).
        objective: Weighted terms of the cost function ``F`` (Eq. 5).
        x_vars: ``x_vars[k][(i, j)]`` is the SAT variable of ``x^k_ij``
            (physical ``i`` hosts logical ``j`` before CNOT ``k``).
        y_vars: ``y_vars[k][pi]`` is the variable of ``y^k_pi`` for every
            permutation spot ``k > 0``.
        z_vars: ``z_vars[k]`` is the variable of ``z^k``.
        gates: The encoded (control, target) logical pairs.
        num_logical: Number of logical qubits ``n``.
        num_physical: Number of physical qubits ``m`` used in the encoding.
        permutation_spots: Gate indices before which the mapping may change
            (always includes 0, the free initial mapping).
        permutation_table: The ``swaps(pi)`` table used for the objective.
        eq_vars: ``eq_vars[k][(i, i2, j)]`` is the shared equality variable
            "logical ``j`` moved from physical ``i`` to ``i2`` at spot ``k``"
            (part of the spot block).
        skeleton: The cached structural blocks this encoding was
            instantiated from (see the module docstring); encodings sharing
            one skeleton object have identical spot-block content up to a
            constant index shift.
        x_var_limit: Highest variable index of the x block (variables ``1
            .. x_var_limit`` are the mapping variables, identically numbered
            in every encoding of the same instance shape).
        spot_var_start: Variable count before the spot block; spot-block
            variables occupy ``spot_var_start + 1 .. spot_var_end``.
        spot_var_end: Last variable index of the spot block (the encoding's
            variable count at construction time — the pool keeps growing
            afterwards when a solve session adds bound-ladder nodes).
    """

    cnf: CNF
    objective: List[ObjectiveTerm]
    x_vars: List[Dict[Tuple[int, int], int]]
    y_vars: Dict[int, Dict[Permutation, int]]
    z_vars: Dict[int, int]
    gates: List[Tuple[int, int]]
    num_logical: int
    num_physical: int
    permutation_spots: List[int]
    permutation_table: PermutationTable
    eq_vars: Dict[int, Dict[Tuple[int, int, int], int]] = field(
        default_factory=dict
    )
    skeleton: Optional["EncodingSkeleton"] = None
    x_var_limit: int = 0
    spot_var_start: int = 0
    spot_var_end: int = 0

    @property
    def num_variables(self) -> int:
        """Total number of SAT variables in the instance."""
        return self.cnf.num_vars

    def is_shared_variable(self, var: int) -> bool:
        """Whether *var* belongs to the cross-family shareable layers.

        True for the x block and the spot block — the variables whose
        meaning is independent of the directed edge set.  False for the
        edge block (placement/switching literals are defined over this
        family's edges) and for anything allocated after the encoding
        (bound-ladder nodes).
        """
        return var <= self.x_var_limit or (
            self.spot_var_start < var <= self.spot_var_end
        )

    @property
    def num_clauses(self) -> int:
        """Total number of clauses in the instance."""
        return self.cnf.num_clauses

    def extract_schedule(self, model: Dict[int, bool]) -> List[Tuple[int, ...]]:
        """Read the per-gate logical-to-physical mappings from a SAT model.

        Returns:
            One tuple per CNOT gate; entry ``j`` of tuple ``k`` is the
            physical qubit hosting logical qubit ``j`` before gate ``k``.
        """
        mappings: List[Tuple[int, ...]] = []
        for k in range(len(self.gates)):
            placement = [-1] * self.num_logical
            for (physical, logical), variable in self.x_vars[k].items():
                if model.get(variable, False):
                    if placement[logical] != -1:
                        raise EncodingError(
                            f"model places logical qubit {logical} on two physical "
                            f"qubits before gate {k}"
                        )
                    placement[logical] = physical
            if -1 in placement:
                raise EncodingError(
                    f"model leaves a logical qubit unplaced before gate {k}"
                )
            mappings.append(tuple(placement))
        return mappings

    def assignment_from_schedule(
        self, mappings: Sequence[Tuple[int, ...]]
    ) -> Dict[int, bool]:
        """The (partial) assignment of the mapping variables realising *mappings*.

        The inverse of :meth:`extract_schedule`: every ``x^k_ij`` variable is
        set according to the given per-gate placements.  Auxiliary (Tseitin,
        permutation, switching) variables are left unassigned — the result
        is meant as a model warm start (phase seeding plus an incumbent for
        :meth:`repro.sat.optimize.OptimizingSolver.minimize`), and both
        :meth:`extract_schedule` and the objective bookkeeping of the warm
        start only need the ``x`` layer.

        Raises:
            EncodingError: When the schedule does not fit this encoding —
                wrong gate count, non-injective or out-of-range placements,
                or a mapping change before a gate that is not a permutation
                spot.
        """
        if len(mappings) != len(self.gates):
            raise EncodingError(
                f"schedule covers {len(mappings)} gates but the encoding has "
                f"{len(self.gates)}"
            )
        spot_set = set(self.permutation_spots)
        assignment: Dict[int, bool] = {}
        previous: Optional[Tuple[int, ...]] = None
        for k, mapping in enumerate(mappings):
            mapping = tuple(mapping)
            if len(mapping) != self.num_logical:
                raise EncodingError(
                    f"mapping {mapping!r} does not cover all "
                    f"{self.num_logical} logical qubits"
                )
            if len(set(mapping)) != len(mapping):
                raise EncodingError(f"mapping {mapping!r} is not injective")
            for physical in mapping:
                if not 0 <= physical < self.num_physical:
                    raise EncodingError(
                        f"physical qubit {physical} out of range in {mapping!r}"
                    )
            if k not in spot_set and mapping != previous:
                raise EncodingError(
                    f"mapping changes before gate {k}, which is not a "
                    f"permutation spot of this encoding"
                )
            for (i, j), variable in self.x_vars[k].items():
                assignment[variable] = mapping[j] == i
            previous = mapping
        return assignment

    def schedule_objective(self, mappings: Sequence[Tuple[int, ...]]) -> int:
        """The cost function ``F`` of the model realising *mappings*.

        Completes :meth:`assignment_from_schedule` with the objective layer
        the hard constraints force: ``z^k`` per constraint (4) from this
        encoding's directed edges, and at every permutation spot the
        cheapest ``y^k_pi`` consistent with the two mappings (the unique one
        when ``n == m``).  The encoding's own objective terms are then
        evaluated under that model, so the value is what the solver would
        report for the schedule — an independent check of a re-costed
        warm-start schedule.

        Raises:
            EncodingError: When the schedule does not fit this encoding (see
                :meth:`assignment_from_schedule`), a CNOT does not sit on a
                coupled pair, or a spot's transition has no permutation
                variable.
        """
        model = self.assignment_from_schedule(mappings)
        mappings = [tuple(mapping) for mapping in mappings]
        table = self.permutation_table
        edges = table.coupling.edges
        for k, (control, target) in enumerate(self.gates):
            pair = (mappings[k][control], mappings[k][target])
            if pair not in edges and pair[::-1] not in edges:
                raise EncodingError(
                    f"gate {k} is not placed on a coupled pair ({pair})"
                )
            model[self.z_vars[k]] = pair not in edges
        for k, spot_vars in self.y_vars.items():
            try:
                perm, _ = table.best_transition(mappings[k - 1], mappings[k])
            except ValueError as error:
                raise EncodingError(f"spot {k}: {error}") from None
            if perm not in spot_vars:
                raise EncodingError(f"spot {k} has no variable for {perm}")
            model[spot_vars[perm]] = True
        return self.objective_value(model)

    def objective_value(self, model: Dict[int, bool]) -> int:
        """Evaluate the cost function ``F`` under a SAT model."""
        total = 0
        for term in self.objective:
            variable = abs(term.literal)
            value = model.get(variable, False)
            if term.literal < 0:
                value = not value
            if value:
                total += term.weight
        return total


@dataclass
class EncodingSkeleton:
    """The memoised structural blocks of the symbolic formulation.

    Holds the **x block** (mapping variables with constraint (1)) and the
    **spot block** (shared equality variables, permutation variables with
    constraint (3), mapping-stability clauses) — everything whose content is
    independent of the coupling's *directed* edge set.  The spot block is
    stored in *template numbering*: its variables directly follow the x
    block, i.e. they occupy ``x_var_limit + 1 .. x_var_limit +
    spot_var_count``.  Instantiating the skeleton for a concrete family
    shares the x-block clause objects verbatim, builds the family's edge
    block, and then re-bases the spot block by adding the edge block's size
    to every spot variable (pure literal substitution — no Tseitin re-run).

    Keyed by ``(gates, n, m, spots, undirected edges)``: the permutation
    enumeration (a BFS over undirected SWAP edges) and therefore the spot
    block's content is identical for every family with the same undirected
    structure, most notably for sub-couplings differing only in CNOT edge
    orientation.
    """

    key: Tuple
    num_logical: int
    num_physical: int
    x_var_limit: int
    x_clauses: List[Clause]
    x_pool: "VariablePool"
    x_vars: List[Dict[Tuple[int, int], int]]
    spot_var_count: int
    spot_clauses: List[Clause]
    spot_names: Dict[int, str]
    eq_vars: Dict[int, Dict[Tuple[int, int, int], int]]
    y_vars: Dict[int, Dict[Permutation, int]]
    permutations: Tuple[Permutation, ...]

    def instantiate_spot_block(self, cnf: CNF) -> int:
        """Append the spot block to *cnf*, re-based after its current vars.

        Returns the shift that was applied to every template spot variable
        (the size of *cnf*'s edge block).  ``0`` means the clause objects
        were shared verbatim.
        """
        shift = cnf.num_vars - self.x_var_limit
        cnf.pool.append_block(
            self.spot_var_count,
            {var + shift: name for var, name in self.spot_names.items()},
        )
        if shift == 0:
            cnf.clauses.extend(self.spot_clauses)
            return 0
        limit = self.x_var_limit
        for clause in self.spot_clauses:
            cnf.clauses.append(Clause(
                literal + shift if literal > limit
                else (literal - shift if literal < -limit else literal)
                for literal in clause.literals
            ))
        return shift


def _shift_var_map(mapping: Dict, shift: int) -> Dict:
    """Re-base a (possibly nested) template variable map by *shift*."""
    if shift == 0:
        return mapping
    return {
        key: (_shift_var_map(value, shift) if isinstance(value, dict)
              else value + shift)
        for key, value in mapping.items()
    }


def _build_skeleton(
    gates: Tuple[Tuple[int, int], ...],
    num_logical: int,
    num_physical: int,
    spots: Tuple[int, ...],
    permutation_table: PermutationTable,
) -> EncodingSkeleton:
    """Construct the structural blocks from scratch (template numbering)."""
    cnf = CNF()
    encoder = TseitinEncoder(cnf)
    spot_set = set(spots)
    total_mapping = num_logical == num_physical
    perms = tuple(permutation_table.permutations())

    # ------------------------------------------------------------------
    # x block: mapping variables x^k_ij and constraint (1).
    # ------------------------------------------------------------------
    x_vars: List[Dict[Tuple[int, int], int]] = []
    for k in range(len(gates)):
        layer: Dict[Tuple[int, int], int] = {}
        for i in range(num_physical):
            for j in range(num_logical):
                layer[(i, j)] = cnf.new_var(f"x_{k}_{i}_{j}")
        x_vars.append(layer)
        # Every logical qubit sits on exactly one physical qubit.
        for j in range(num_logical):
            exactly_one(cnf, [layer[(i, j)] for i in range(num_physical)])
        # Every physical qubit hosts at most one logical qubit.
        for i in range(num_physical):
            at_most_one_pairwise(cnf, [layer[(i, j)] for j in range(num_logical)])
    x_var_limit = cnf.num_vars
    x_clauses = list(cnf.clauses)
    x_pool = cnf.pool.fork()
    del cnf.clauses[:]

    # ------------------------------------------------------------------
    # Spot block (template numbering, directly after the x block):
    # constraint (3) permutations between gates, and mapping stability for
    # gates that are not permutation spots.
    # ------------------------------------------------------------------
    eq_vars: Dict[int, Dict[Tuple[int, int, int], int]] = {}
    y_vars: Dict[int, Dict[Permutation, int]] = {}
    for k in range(1, len(gates)):
        previous, current = x_vars[k - 1], x_vars[k]
        if k not in spot_set:
            # The mapping must stay unchanged.
            for key in previous:
                encoder.add_iff(previous[key], current[key])
            continue
        # Shared equality variables eq_{i -> i2, j}: "logical j moved from
        # physical i to physical i2" expressed as x^{k-1}_{ij} <-> x^k_{i2 j}.
        equality: Dict[Tuple[int, int, int], int] = {}
        for i in range(num_physical):
            for i2 in range(num_physical):
                for j in range(num_logical):
                    equality[(i, i2, j)] = encoder.encode_iff(
                        previous[(i, j)], current[(i2, j)],
                        name=f"eq_{k}_{i}_{i2}_{j}",
                    )
        eq_vars[k] = equality
        spot_vars: Dict[Permutation, int] = {}
        for perm in perms:
            y_var = cnf.new_var(f"y_{k}_{'_'.join(map(str, perm))}")
            spot_vars[perm] = y_var
            conditions = [
                equality[(i, perm[i], j)]
                for i in range(num_physical)
                for j in range(num_logical)
            ]
            if total_mapping:
                # Equation (3): the conjunction of equalities iff y^k_pi.
                encoder.add_iff_and(y_var, conditions)
            else:
                # Footnote 5: y^k_pi implies consistency with pi; exactly one
                # permutation is selected per spot.
                for condition in conditions:
                    encoder.add_implication(y_var, condition)
        exactly_one(cnf, list(spot_vars.values()), encoding="sequential",
                    prefix=f"y_spot_{k}")
        y_vars[k] = spot_vars

    spot_names = {
        var: cnf.pool.name(var)
        for var in range(x_var_limit + 1, cnf.num_vars + 1)
    }
    undirected = tuple(sorted(permutation_table.coupling.undirected_edges))
    return EncodingSkeleton(
        key=(gates, num_logical, num_physical, spots, undirected),
        num_logical=num_logical,
        num_physical=num_physical,
        x_var_limit=x_var_limit,
        x_clauses=x_clauses,
        x_pool=x_pool,
        x_vars=x_vars,
        spot_var_count=cnf.num_vars - x_var_limit,
        spot_clauses=list(cnf.clauses),
        spot_names=spot_names,
        eq_vars=eq_vars,
        y_vars=y_vars,
        permutations=perms,
    )


#: Process-wide skeleton cache (small LRU; one entry covers a whole sweep).
_SKELETONS = Memo(16)


def _shared_skeleton(
    gates: Tuple[Tuple[int, int], ...],
    num_logical: int,
    num_physical: int,
    spots: Tuple[int, ...],
    permutation_table: PermutationTable,
) -> EncodingSkeleton:
    undirected = tuple(
        sorted(permutation_table.coupling.undirected_edges)
    )
    return _SKELETONS.get(
        (gates, num_logical, num_physical, spots, undirected),
        lambda: _build_skeleton(
            gates, num_logical, num_physical, spots, permutation_table
        ),
    )


def skeleton_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the shared-skeleton cache."""
    return _SKELETONS.stats()


def clear_skeleton_cache() -> None:
    """Drop all cached encoding skeletons (mainly for tests/benchmarks)."""
    _SKELETONS.clear()


def build_encoding(
    gates: Sequence[Tuple[int, int]],
    num_logical: int,
    coupling: CouplingMap,
    permutation_spots: Optional[Sequence[int]] = None,
    permutation_table: Optional[PermutationTable] = None,
    reuse_skeleton: bool = True,
) -> MappingEncoding:
    """Build the symbolic formulation for a CNOT sequence.

    Args:
        gates: The circuit's CNOT skeleton as (control, target) logical pairs.
        num_logical: Number of logical qubits ``n`` of the circuit.
        coupling: Target architecture (``m`` physical qubits).
        permutation_spots: Gate indices before which the mapping may change.
            Defaults to every gate (the minimal formulation).  Index 0 (the
            initial mapping) is always treated as free.
        permutation_table: Pre-computed ``swaps(pi)`` table for *coupling*;
            built on demand when omitted.
        reuse_skeleton: Serve the edge-independent skeleton from the
            process-wide cache (the subset-sweep fast path).  Disable to
            force a from-scratch construction, the reference the tests
            compare skeleton instantiation against; the resulting formula
            is identical either way.

    Returns:
        The :class:`MappingEncoding`.

    Raises:
        EncodingError: If the circuit needs more logical qubits than the
            device has physical qubits, or a gate index is out of range.
    """
    gates = [tuple(gate) for gate in gates]
    num_physical = coupling.num_qubits
    if num_logical > num_physical:
        raise EncodingError(
            f"cannot map {num_logical} logical qubits onto {num_physical} physical qubits"
        )
    if not gates:
        raise EncodingError("the CNOT skeleton is empty; nothing to encode")
    for control, target in gates:
        for qubit in (control, target):
            if not 0 <= qubit < num_logical:
                raise EncodingError(f"gate qubit {qubit} out of range")

    if permutation_spots is None:
        spots = list(range(len(gates)))
    else:
        spots = sorted(set(permutation_spots) | {0})
        for spot in spots:
            if not 0 <= spot < len(gates):
                raise EncodingError(f"permutation spot {spot} out of range")

    if permutation_table is None:
        # The shared cache, not a fresh BFS per call: encodings for the same
        # (sub-)coupling are built once per process and reused.
        permutation_table = shared_permutation_table(coupling)

    # ------------------------------------------------------------------
    # Structural blocks: the x block is appended verbatim (shared clause
    # objects); the spot block is re-based after the edge block below.
    # ------------------------------------------------------------------
    skeleton_args = (tuple(gates), num_logical, num_physical, tuple(spots))
    if reuse_skeleton:
        skeleton = _shared_skeleton(*skeleton_args, permutation_table)
    else:
        skeleton = _build_skeleton(*skeleton_args, permutation_table)
    cnf = CNF(skeleton.x_pool.fork())
    cnf.clauses = list(skeleton.x_clauses)
    encoder = TseitinEncoder(cnf)
    x_vars = skeleton.x_vars

    # ------------------------------------------------------------------
    # Edge block — constraint (2) and (4): CNOT placement and direction
    # switching over this coupling's edges.
    # ------------------------------------------------------------------
    z_vars: Dict[int, int] = {}
    objective: List[ObjectiveTerm] = []
    for k, (control, target) in enumerate(gates):
        layer = x_vars[k]
        aligned_literals: List[int] = []
        reversed_literals: List[int] = []
        for (pi, pj) in sorted(coupling.edges):
            aligned = encoder.encode_and(
                [layer[(pi, control)], layer[(pj, target)]],
                name=f"aligned_{k}_{pi}_{pj}",
            )
            aligned_literals.append(aligned)
            flipped = encoder.encode_and(
                [layer[(pi, target)], layer[(pj, control)]],
                name=f"reversed_{k}_{pi}_{pj}",
            )
            reversed_literals.append(flipped)
        # Constraint (2): the CNOT must sit on a coupled pair (either way).
        encoder.add_at_least_one(aligned_literals + reversed_literals)
        # Constraint (4): z^k is true iff the placement requires switching the
        # control and target (i.e. only the reversed orientation is native).
        z_var = cnf.new_var(f"z_{k}")
        z_vars[k] = z_var
        any_aligned = encoder.encode_or(aligned_literals, name=f"any_aligned_{k}")
        any_reversed = encoder.encode_or(reversed_literals, name=f"any_reversed_{k}")
        # z <-> (reversed placement possible and aligned placement not possible).
        encoder.add_iff_and(z_var, [any_reversed, -any_aligned])
        objective.append(ObjectiveTerm(REVERSAL_COST, z_var))

    # ------------------------------------------------------------------
    # Spot block — constraint (3), instantiated from the skeleton by
    # literal substitution, plus the swaps(pi) objective weights.
    # ------------------------------------------------------------------
    spot_var_start = cnf.num_vars
    shift = skeleton.instantiate_spot_block(cnf)
    eq_vars = _shift_var_map(skeleton.eq_vars, shift)
    y_vars = _shift_var_map(skeleton.y_vars, shift)
    for k in sorted(y_vars):
        for perm, y_var in y_vars[k].items():
            weight = SWAP_COST * permutation_table.swaps(perm)
            if weight > 0:
                objective.append(ObjectiveTerm(weight, y_var))

    return MappingEncoding(
        cnf=cnf,
        objective=objective,
        x_vars=x_vars,
        y_vars=y_vars,
        z_vars=z_vars,
        gates=list(gates),
        num_logical=num_logical,
        num_physical=num_physical,
        permutation_spots=spots,
        permutation_table=permutation_table,
        eq_vars=eq_vars,
        skeleton=skeleton,
        x_var_limit=skeleton.x_var_limit,
        spot_var_start=spot_var_start,
        spot_var_end=cnf.num_vars,
    )


__all__ = [
    "MappingEncoding",
    "EncodingSkeleton",
    "EncodingError",
    "build_encoding",
    "skeleton_cache_stats",
    "clear_skeleton_cache",
]
