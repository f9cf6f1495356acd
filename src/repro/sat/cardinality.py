"""Cardinality constraint encodings.

Constraint (1) of the paper requires that each logical qubit is mapped to
exactly one physical qubit and that each physical qubit carries at most one
logical qubit.  These are "exactly one" / "at most one" constraints over the
``x`` variables; this module provides the standard encodings:

* pairwise at-most-one (quadratic, no auxiliary variables),
* sequential (ladder) at-most-one (linear, one auxiliary variable per literal).
"""

from __future__ import annotations

from typing import Sequence

from repro.sat.cnf import CNF, Literal


def at_most_one_pairwise(cnf: CNF, literals: Sequence[Literal]) -> None:
    """Pairwise encoding of ``at most one of literals``."""
    literals = list(literals)
    for i in range(len(literals)):
        for j in range(i + 1, len(literals)):
            cnf.add_clause([-literals[i], -literals[j]])


def at_most_one_sequential(cnf: CNF, literals: Sequence[Literal],
                           prefix: str = "amo") -> None:
    """Ladder (sequential) encoding of ``at most one of literals``.

    Uses ``len(literals) - 1`` auxiliary variables and ``3n - 4`` clauses,
    which scales better than the pairwise encoding for long literal lists.
    """
    literals = list(literals)
    count = len(literals)
    if count <= 1:
        return
    if count <= 4:
        at_most_one_pairwise(cnf, literals)
        return
    registers = [cnf.new_var(f"{prefix}_s{i}") for i in range(count - 1)]
    # literal_i -> register_i
    cnf.add_clause([-literals[0], registers[0]])
    for i in range(1, count - 1):
        cnf.add_clause([-literals[i], registers[i]])
        cnf.add_clause([-registers[i - 1], registers[i]])
        cnf.add_clause([-literals[i], -registers[i - 1]])
    cnf.add_clause([-literals[count - 1], -registers[count - 2]])


def exactly_one(cnf: CNF, literals: Sequence[Literal],
                encoding: str = "pairwise", prefix: str = "eo") -> None:
    """Assert that exactly one of *literals* is true.

    Args:
        cnf: Formula to extend.
        literals: The candidate literals.
        encoding: ``"pairwise"`` or ``"sequential"`` for the at-most-one part.
        prefix: Name prefix for auxiliary variables.
    """
    literals = list(literals)
    if not literals:
        raise ValueError("exactly_one over an empty literal list is unsatisfiable")
    cnf.add_clause(literals)
    if encoding == "pairwise":
        at_most_one_pairwise(cnf, literals)
    elif encoding == "sequential":
        at_most_one_sequential(cnf, literals, prefix=prefix)
    else:
        raise ValueError(f"unknown at-most-one encoding {encoding!r}")


__all__ = [
    "at_most_one_pairwise",
    "at_most_one_sequential",
    "exactly_one",
]
