"""A self-contained Boolean reasoning engine.

The paper hands its symbolic formulation to the Z3 solver.  Z3 is not
available in this environment, so this subpackage provides a from-scratch
replacement with the pieces the mapping formulation needs:

* :mod:`repro.sat.cnf` — variables, literals, clauses and CNF formulas,
* :mod:`repro.sat.solver` — a CDCL SAT solver (two-watched literals, VSIDS
  branching, first-UIP clause learning, restarts, phase saving, UNSAT cores
  over assumption literals),
* :mod:`repro.sat.dpll` — a tiny reference DPLL solver used to cross-check
  the CDCL implementation in the test suite,
* :mod:`repro.sat.tseitin` — Tseitin transformation of AND/OR/XOR/IFF
  expressions into CNF,
* :mod:`repro.sat.cardinality` — at-most-one / exactly-one encodings,
* :mod:`repro.sat.session` — :class:`SolveSession`, a persistent incremental
  solver with the objective-bound ladder (``F <= b`` as an assumption),
* :mod:`repro.sat.optimize` — minimisation of a weighted linear objective on
  top of a session (the "extended interpretation" of Definition 3 in the
  paper) by one of two descents: core-guided or linear.
"""

from repro.sat.cnf import CNF, Clause, Literal, VariablePool
from repro.sat.session import SolveSession
from repro.sat.solver import CDCLSolver, SolverResult
from repro.sat.dpll import DPLLSolver
from repro.sat.tseitin import TseitinEncoder
from repro.sat.cardinality import (
    at_most_one_pairwise,
    at_most_one_sequential,
    exactly_one,
)
from repro.sat.optimize import (
    DEFAULT_OPTIMIZER,
    OPTIMIZERS,
    ObjectiveTerm,
    OptimizationResult,
    OptimizingSolver,
    resolve_optimizer_name,
)

__all__ = [
    "CNF",
    "Clause",
    "Literal",
    "VariablePool",
    "CDCLSolver",
    "SolverResult",
    "SolveSession",
    "DPLLSolver",
    "TseitinEncoder",
    "at_most_one_pairwise",
    "at_most_one_sequential",
    "exactly_one",
    "DEFAULT_OPTIMIZER",
    "OPTIMIZERS",
    "ObjectiveTerm",
    "OptimizingSolver",
    "OptimizationResult",
    "resolve_optimizer_name",
]
