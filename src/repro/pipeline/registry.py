"""The mapper backend registry.

Every mapping engine — exact, heuristic or composite — is reachable through
one entry point::

    from repro.pipeline import get_mapper

    mapper = get_mapper("sat", coupling, strategy="odd", use_subsets=True)
    result = mapper.map(circuit)

A *mapper* is anything satisfying the :class:`Mapper` protocol: it exposes a
``map(circuit) -> MappingResult`` method.  Factories are registered by name
(plus optional aliases) and receive the target coupling map followed by
engine-specific keyword options; the built-in engines accept strategy names
(``strategy="odd"``) as well as strategy instances.

Third-party engines can join the registry at runtime::

    from repro.pipeline import register_mapper

    @register_mapper("annealer", aliases=("sa",))
    def _build_annealer(coupling, **options):
        return MyAnnealingMapper(coupling, **options)

The built-in factories import their engine classes lazily so that this
module stays importable from anywhere in the package without cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, runtime_checkable

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.result import MappingResult


@runtime_checkable
class Mapper(Protocol):
    """Structural interface every registered mapping engine satisfies."""

    def map(self, circuit: QuantumCircuit) -> MappingResult:
        """Map *circuit* to the engine's architecture."""
        ...


MapperFactory = Callable[..., Mapper]


class MapperRegistry:
    """Name-indexed collection of mapper factories.

    A module-level default instance backs the :func:`register_mapper` /
    :func:`get_mapper` convenience functions; independent registries can be
    created for testing or embedding.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, MapperFactory] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Optional[MapperFactory] = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ):
        """Register *factory* under *name* (usable as a decorator).

        Args:
            name: Canonical engine name (case-insensitive).
            factory: Callable ``factory(coupling, **options) -> Mapper``.
                When omitted the call returns a decorator.
            aliases: Additional names resolving to the same factory.
            overwrite: Allow replacing an existing registration.

        Raises:
            ValueError: When a name is already taken and *overwrite* is off.
        """
        if factory is None:
            def decorator(func: MapperFactory) -> MapperFactory:
                self.register(name, func, aliases=aliases, overwrite=overwrite)
                return func
            return decorator

        key = name.lower()
        taken = [
            candidate
            for candidate in (key, *[alias.lower() for alias in aliases])
            if not overwrite and (candidate in self._factories or candidate in self._aliases)
        ]
        if taken:
            raise ValueError(f"mapper name(s) already registered: {taken}")
        self._factories[key] = factory
        self._aliases.pop(key, None)
        for alias in aliases:
            self._aliases[alias.lower()] = key
        return factory

    def resolve(self, name: str) -> str:
        """Canonical name for *name* (which may be an alias).

        Raises:
            KeyError: When the name is unknown.
        """
        key = name.lower()
        key = self._aliases.get(key, key)
        if key not in self._factories:
            raise KeyError(
                f"unknown mapper {name!r}; available: {self.names()}"
            )
        return key

    def create(self, name: str, coupling: CouplingMap, **options: Any) -> Mapper:
        """Instantiate the engine registered under *name*."""
        return self._factories[self.resolve(name)](coupling, **options)

    def names(self) -> List[str]:
        """Sorted canonical engine names (aliases excluded)."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except KeyError:
            return False
        return True


#: The default registry used by the module-level convenience functions.
DEFAULT_REGISTRY = MapperRegistry()


def register_mapper(
    name: str,
    factory: Optional[MapperFactory] = None,
    *,
    aliases: Sequence[str] = (),
    overwrite: bool = False,
):
    """Register a factory in the default registry (see :meth:`MapperRegistry.register`)."""
    return DEFAULT_REGISTRY.register(name, factory, aliases=aliases, overwrite=overwrite)


def get_mapper(name: str, coupling: CouplingMap, **options: Any) -> Mapper:
    """Instantiate a mapping engine from the default registry by name.

    Args:
        name: Registered engine name or alias (``"sat"``, ``"dp"``,
            ``"stochastic"``, ``"sabre"``, ...).
        coupling: Target architecture.
        options: Engine-specific constructor options; ``strategy`` may be a
            name from :func:`repro.exact.strategies.available_strategies` or
            a :class:`~repro.exact.strategies.PermutationStrategy` instance.

    Raises:
        KeyError: When the engine name is unknown.
    """
    return DEFAULT_REGISTRY.create(name, coupling, **options)


def available_mappers() -> List[str]:
    """Canonical engine names registered in the default registry."""
    return DEFAULT_REGISTRY.names()


def resolve_mapper_name(name: str) -> str:
    """Canonical name for *name* in the default registry (KeyError if unknown)."""
    return DEFAULT_REGISTRY.resolve(name)


# ----------------------------------------------------------------------
# Built-in engines.  The factories import lazily: this module must stay
# importable while repro.exact / repro.heuristic are still initialising.
# ----------------------------------------------------------------------
def _resolved_strategy(options: Dict[str, Any]) -> Dict[str, Any]:
    """Return a copy of *options* with a string ``strategy`` instantiated."""
    strategy = options.get("strategy")
    if isinstance(strategy, str):
        from repro.exact.strategies import get_strategy

        options = dict(options)
        options["strategy"] = get_strategy(strategy)
    return options


@register_mapper("sat")
def _build_sat_mapper(coupling: CouplingMap, **options: Any) -> Mapper:
    from repro.exact.sat_mapper import SATMapper

    return SATMapper(coupling, **_resolved_strategy(options))


@register_mapper("dp")
def _build_dp_mapper(coupling: CouplingMap, **options: Any) -> Mapper:
    from repro.exact.dp_mapper import DPMapper

    return DPMapper(coupling, **_resolved_strategy(options))


@register_mapper("stochastic")
def _build_stochastic_mapper(coupling: CouplingMap, **options: Any) -> Mapper:
    from repro.heuristic.stochastic_swap import StochasticSwapMapper

    return StochasticSwapMapper(coupling, **options)


@register_mapper("sabre", aliases=("sabre_lite",))
def _build_sabre_mapper(coupling: CouplingMap, **options: Any) -> Mapper:
    from repro.heuristic.sabre_lite import SabreLiteMapper

    return SabreLiteMapper(coupling, **options)


@register_mapper("sat_split", aliases=("split",))
def _build_split_sat_mapper(coupling: CouplingMap, **options: Any) -> Mapper:
    from repro.exact.splitting import SplitSATMapper

    return SplitSATMapper(coupling, **_resolved_strategy(options))


__all__ = [
    "Mapper",
    "MapperFactory",
    "MapperRegistry",
    "DEFAULT_REGISTRY",
    "register_mapper",
    "get_mapper",
    "available_mappers",
    "resolve_mapper_name",
]
