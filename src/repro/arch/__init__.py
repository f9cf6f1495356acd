"""Architectures: coupling maps, device descriptions and permutation utilities."""

from repro.arch.coupling import CouplingMap
from repro.arch.devices import (
    ibm_qx2,
    ibm_qx4,
    ibm_qx5,
    ibm_tokyo,
    linear_architecture,
    ring_architecture,
    grid_architecture,
    fully_connected_architecture,
    get_architecture,
    available_architectures,
)
from repro.arch.permutations import (
    MappingGraph,
    PermutationTable,
    all_permutations,
    apply_permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
)
from repro.arch.subsets import connected_subsets

__all__ = [
    "CouplingMap",
    "ibm_qx2",
    "ibm_qx4",
    "ibm_qx5",
    "ibm_tokyo",
    "linear_architecture",
    "ring_architecture",
    "grid_architecture",
    "fully_connected_architecture",
    "get_architecture",
    "available_architectures",
    "MappingGraph",
    "PermutationTable",
    "all_permutations",
    "apply_permutation",
    "compose_permutations",
    "identity_permutation",
    "invert_permutation",
    "connected_subsets",
]
