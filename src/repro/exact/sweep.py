"""Cross-family reuse for the subset sweep: bounds, embeddings, clause maps.

A subset sweep (Section 4.1) solves one mapping instance per *family* of
structurally identical sub-couplings.  Families are independent SAT
instances, but they are far from unrelated — this module provides the three
relations the sweep exploits so that work done on one family transfers to
the others:

* :func:`structural_lower_bound` — a provable lower bound on a family's
  added cost, computed in microseconds from the CNOT skeleton and the edge
  count alone.  Used to order families (densest first, so a tight incumbent
  appears early) and to prune sparse families outright.

* :func:`find_edge_embedding` — a vertex bijection under which one
  sub-coupling's directed edge set is contained in another's.  When family
  *A* embeds into family *B*, every schedule valid on *A* is valid on *B*
  at no higher cost (extra edges only ever help), so

  - ``optimum(A) >= optimum(B)`` — *B*'s proven bounds prune *A*, and
  - clauses implied by *B*'s formula are implied by *A*'s formula once
    translated, because any *A*-model extends to a *B*-model over the
    shared skeleton variables (the edge layer of *B* is definitionally
    determined by the ``x`` layer, and constraint (2) is satisfied via the
    embedded edge).

* :func:`encoding_variable_remap` — the literal translation table realising
  that transfer.  The map works on the variable *roles* shared by every
  encoding of the same instance shape: ``x^k_{ij}`` maps to
  ``x^k_{sigma(i)j}``, equality variables permute both endpoints, and a
  permutation variable ``y^k_pi`` maps to ``y^k_{sigma . pi . sigma^-1}``.
  Edge-block and bound-ladder variables are deliberately absent — a clause
  mentioning one does not transfer and is dropped by the importer.  When
  source and target instantiate the *same* cached skeleton under the
  identity relabelling, the whole spot block (sequential at-most-one chain
  auxiliaries included) transfers via a constant index shift instead.

Soundness of a clause import is checkable per clause with
:func:`clause_is_implied`; :class:`~repro.exact.sat_mapper.SATMapper`
runs that check on every imported clause when the environment variable
``REPRO_CHECK_IMPORTS`` is set (slow — meant for tests and debugging).
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.coupling import CouplingMap
from repro.exact.cost import REVERSAL_COST, SWAP_COST
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, SolverResult

#: Largest sub-coupling size for which the brute-force embedding search runs
#: (``n!`` candidate bijections with early rejection; subsets are circuit
#: sized, so this is never hit in practice).
MAX_EMBEDDING_QUBITS = 8


def structural_lower_bound(
    coupling: CouplingMap, gates: Sequence[Tuple[int, int]]
) -> int:
    """A provable lower bound on the added cost of mapping *gates* onto *coupling*.

    Two independent arguments, combined by maximum:

    * **SWAP count** — any fixed injective placement realises at most ``e``
      distinct logical interaction pairs (distinct pairs occupy distinct
      undirected edges), and a schedule with ``S`` SWAPs visits at most
      ``S + 1`` distinct placements — so a circuit touching ``p`` distinct
      pairs needs at least ``ceil(p / e) - 1`` SWAPs, each costing
      :data:`~repro.exact.cost.SWAP_COST`.
    * **Reversal** — on a coupling without bidirectional edges, a logical
      pair interacting in *both* orientations cannot sit aligned for both
      directions under one placement (that would need the physical edge in
      both directions); a schedule therefore pays at least one reversal
      (:data:`~repro.exact.cost.REVERSAL_COST`) or one SWAP, whichever is
      cheaper.

    The bound is weak (it mostly ignores *which* pairs interact) but free:
    it only counts pairs and edges.  It is used as the family ordering key
    and as the first pruning filter of the sweep.
    """
    pairs = {frozenset((control, target)) for control, target in gates
             if control != target}
    if not pairs:
        return 0
    num_edges = len(coupling.undirected_edges)
    if num_edges == 0:
        # No two qubits are ever adjacent; unsatisfiable for any CNOT, but
        # report a plain positive bound and let the solver prove it.
        return SWAP_COST
    placements_needed = -(-len(pairs) // num_edges)  # ceil division
    bound = SWAP_COST * (placements_needed - 1)
    edges = coupling.edges
    if not any((b, a) in edges for (a, b) in edges):
        directed_pairs = {(c, t) for c, t in gates if c != t}
        if any((t, c) in directed_pairs for (c, t) in directed_pairs):
            bound = max(bound, min(REVERSAL_COST, SWAP_COST))
    return bound


def find_edge_embedding(
    inner: CouplingMap,
    outer: CouplingMap,
    directed: bool = True,
    max_qubits: int = MAX_EMBEDDING_QUBITS,
) -> Optional[Tuple[int, ...]]:
    """A vertex bijection embedding *inner*'s edges into *outer*'s.

    Returns the lexicographically first tuple ``sigma`` (so the result is
    deterministic) with ``(sigma[u], sigma[v])`` an edge of *outer* for
    every directed edge ``(u, v)`` of *inner*, or ``None`` when no such
    bijection exists (or the maps differ in size / exceed *max_qubits*).

    With ``directed=False`` the containment is checked on the *undirected*
    edge sets instead.  The two relations license different transfers:

    * **directed** embeddings preserve costs (SWAP weights depend only on
      undirected edges, and a CNOT aligned on *inner* stays aligned on
      *outer*), so proven *lower bounds* transfer — the basis of family
      pruning;
    * **undirected** embeddings still preserve *satisfiability* of the hard
      constraints (constraint (2) accepts a coupled pair in either
      orientation), so formula-implied *learned clauses* transfer, but a
      reversal-free schedule may pick up reversal costs — no bound
      transfer.

    Both maps must have the same number of qubits — subset families of one
    sweep always do.
    """
    size = inner.num_qubits
    if size != outer.num_qubits or size > max_qubits:
        return None
    if directed:
        inner_edges = tuple(sorted(inner.edges))
        outer_edges = outer.edges
    else:
        inner_edges = tuple(sorted(inner.undirected_edges))
        outer_edges = frozenset(
            edge
            for (a, b) in outer.undirected_edges
            for edge in ((a, b), (b, a))
        )
    if len(inner_edges) > len(outer_edges if directed else outer.undirected_edges):
        return None
    for sigma in itertools.permutations(range(size)):
        if all(
            (sigma[u], sigma[v]) in outer_edges for (u, v) in inner_edges
        ):
            return sigma
    return None


def encoding_variable_remap(
    source, target, vertex_map: Sequence[int]
) -> Dict[int, int]:
    """Variable translation table for clauses crossing between two families.

    Args:
        source: The encoding the clauses were learned on (or any object
            exposing its ``x_vars``/``eq_vars``/``y_vars`` maps and block
            boundaries, e.g. the slim per-family record the sweep keeps
            after releasing a solver).
        target: The encoding the clauses are imported into.
        vertex_map: Bijection over physical indices, ``vertex_map[i]`` being
            the target-family index playing source-family index ``i``'s role
            (for clauses flowing from *B* into an *A* that embeds via
            ``sigma``, this is ``sigma^-1``).

    Returns:
        Source variable -> target variable over the shared ``x``, equality
        and ``y`` roles.  When both encodings instantiate the same cached
        skeleton and *vertex_map* is the identity, the map additionally
        covers the spot block's at-most-one chain auxiliaries (their
        semantics depend on the permutation enumeration order, which only
        survives the identity relabelling of an identical spot block).
    """
    size = len(vertex_map)
    if sorted(vertex_map) != list(range(size)):
        raise ValueError(f"vertex map {vertex_map!r} is not a bijection")
    identity = all(vertex_map[i] == i for i in range(size))
    if identity and source.skeleton is not None and (
        source.skeleton is target.skeleton
    ):
        # Same spot-block content at a constant offset: map the x block
        # one-to-one and shift the whole spot block, auxiliaries included.
        shift = target.spot_var_start - source.spot_var_start
        remap = {var: var for var in range(1, source.x_var_limit + 1)}
        for var in range(source.spot_var_start + 1, source.spot_var_end + 1):
            remap[var] = var + shift
        return remap
    remap = {}
    for k, layer in enumerate(source.x_vars):
        target_layer = target.x_vars[k]
        for (i, j), var in layer.items():
            remap[var] = target_layer[(vertex_map[i], j)]
    for k, equality in source.eq_vars.items():
        target_equality = target.eq_vars[k]
        for (i, i2, j), var in equality.items():
            remap[var] = target_equality[(vertex_map[i], vertex_map[i2], j)]
    for k, spot_vars in source.y_vars.items():
        target_spot = target.y_vars[k]
        for perm, var in spot_vars.items():
            image = [0] * size
            for i in range(size):
                image[vertex_map[i]] = vertex_map[perm[i]]
            remap[var] = target_spot[tuple(image)]
    return remap


def artifact_key(
    gates: Sequence[Tuple[int, int]],
    num_logical: int,
    coupling: CouplingMap,
    spots: Sequence[int],
) -> str:
    """Canonical store key of one instance shape's encoding skeleton.

    The JSON rendering of the exact tuple
    :func:`repro.exact.encoding._shared_skeleton` keys its cache by —
    ``(gates, n, m, spots, undirected edge set)``.  Two encodings with equal
    keys are built by the same deterministic construction, so their x blocks
    are numbered identically and their spot blocks are identical up to a
    constant shift: learned clauses persisted under this key transfer
    between them by pure index arithmetic (see :func:`clauses_to_template`
    / :func:`template_clause_remap`), across sweeps, jobs and processes.
    """
    key = (
        [list(gate) for gate in gates],
        num_logical,
        coupling.num_qubits,
        list(spots),
        [list(edge) for edge in sorted(coupling.undirected_edges)],
    )
    return json.dumps(key, separators=(",", ":"))


def directed_edges_key(coupling: CouplingMap) -> str:
    """Canonical rendering of a coupling's *directed* edge set.

    Artifact lower bounds are only valid for the exact directed orientation
    they were proven under (reversal costs differ between orientations even
    when the undirected structure — and therefore the skeleton key — is the
    same), so bound entries in an artifact row are keyed by this string.
    """
    return json.dumps(
        [list(edge) for edge in sorted(coupling.edges)], separators=(",", ":")
    )


def clauses_to_template(
    clauses: Sequence[Sequence[int]],
    x_var_limit: int,
    spot_var_start: int,
) -> List[List[int]]:
    """Re-base shared-layer clauses from encoding to *template* numbering.

    Template numbering is the skeleton's own: x variables ``1 ..
    x_var_limit`` verbatim, spot variables directly after them.  It is the
    common currency of persisted artifact rows — every encoding of the same
    skeleton key converts to and from it with one constant shift,
    regardless of how large its (non-shared) edge block was.
    """
    shift = spot_var_start - x_var_limit
    rebased: List[List[int]] = []
    for clause in clauses:
        literals: List[int] = []
        for literal in clause:
            var = abs(literal)
            if var > x_var_limit:
                var -= shift
            literals.append(var if literal > 0 else -var)
        rebased.append(literals)
    return rebased


def template_clause_remap(
    x_var_limit: int, spot_var_count: int, target
) -> Dict[int, int]:
    """Template variable -> *target*-encoding variable translation table.

    The inverse direction of :func:`clauses_to_template`, shaped like the
    tables :func:`encoding_variable_remap` produces so
    :meth:`repro.sat.session.SolveSession.import_clauses` consumes both
    interchangeably.  Valid only when *target* instantiates the same
    skeleton key the template numbering came from and the block shapes
    match — callers must check ``x_var_limit`` and ``spot_var_count``
    against the target first and degrade to bound-only seeding otherwise.
    """
    remap = {var: var for var in range(1, x_var_limit + 1)}
    for offset in range(1, spot_var_count + 1):
        remap[x_var_limit + offset] = target.spot_var_start + offset
    return remap


def clause_is_implied(cnf: CNF, clause: Sequence[int]) -> bool:
    """Whether *clause* is a logical consequence of *cnf*.

    Decided by refutation on a fresh solver: the formula together with the
    clause's negation must be unsatisfiable.  Expensive (one SAT call per
    clause) — this is the debug invariant behind ``REPRO_CHECK_IMPORTS``
    and the clause-import property tests, never part of the solving path.
    """
    solver = CDCLSolver(cnf)
    outcome = solver.solve(assumptions=[-literal for literal in clause])
    return outcome is SolverResult.UNSAT


__all__ = [
    "MAX_EMBEDDING_QUBITS",
    "artifact_key",
    "clause_is_implied",
    "clauses_to_template",
    "directed_edges_key",
    "encoding_variable_remap",
    "find_edge_embedding",
    "structural_lower_bound",
    "template_clause_remap",
]
