"""Seed resolution for exact searches.

The SAT optimiser descends much faster from a known valid objective bound
(see ``OptimizingSolver.minimize(upper_bound=...)``).  One resolver,
:class:`BoundProviderChain`, gathers what a job can be warm-started from
besides the schedule DP already seeds every family with inside
:meth:`repro.exact.sat_mapper.SATMapper.map`:

* **a caller bound** (CLI ``--upper-bound``, API ``upper_bound``) — the
  cost of some valid mapping on the full device, hence an upper bound on
  the true minimum, safe to assert exactly where the mapper accepts an
  external bound (see
  :meth:`repro.exact.sat_mapper.SATMapper.accepts_seeds_for`);
* **solve artifacts** — a handle to the store's artifact table (learned
  clauses and proven family bounds, keyed by encoding skeleton rather than
  circuit fingerprint), so even a never-seen circuit
  warm-starts from structurally identical past jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SeedResolution:
    """Everything the resolver knows about warm-starting one solve.

    Picklable, so it travels into process workers.

    Attributes:
        bound: The caller's upper bound (``None`` when unknown).
        artifacts: A :class:`~repro.service.store.ArtifactCache` handle for
            skeleton-keyed clause and bound seeding inside the sweep.
    """

    bound: Optional[int] = None
    artifacts: Optional[object] = None


class BoundProviderChain:
    """The one seed resolver: caller bound and solve artifacts.

    Args:
        store: The :class:`~repro.service.store.ResultStore` whose artifact
            table sweeps warm-start from; ``None`` offers no artifacts.
        upper_bound: Optional caller-supplied bound (non-negative).

    Example:
        >>> seeds = BoundProviderChain(store, upper_bound=11)
        >>> resolution = seeds.resolve_seed()
    """

    def __init__(self, store=None, upper_bound: Optional[int] = None):
        if upper_bound is not None and upper_bound < 0:
            raise ValueError("upper bound must be non-negative")
        self.store = store
        self.upper_bound = None if upper_bound is None else int(upper_bound)

    def resolve_seed(self) -> SeedResolution:
        """The bound to assert: the caller's, which holds for every circuit
        it is given for."""
        return SeedResolution(bound=self.upper_bound)

    def resolve_artifacts(self):
        """A picklable handle to the store's artifact table, or ``None``.

        Artifact rows key on the encoding skeleton of each subset family,
        computed inside the sweep, so the handle is offered without a
        lookup; hits and misses are counted by the consumer.
        """
        from repro.service.store import ArtifactCache

        if self.store is None:
            return None
        return ArtifactCache(self.store)


__all__ = ["BoundProviderChain", "SeedResolution"]
