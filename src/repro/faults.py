"""Process-wide fault injection for chaos testing.

The serving stack crosses several failure domains — worker processes, a
shared SQLite store, raw sockets — and every one of its degradation paths
(redelivery, retries, circuit breakers) is only trustworthy if it can be
*exercised*.  This module provides named injection points that production
code guards with a single module-flag check::

    from repro import faults

    ...
    if faults.ARMED:
        faults.fire("store.put")

With no faults armed (the default) the guard is one attribute read and the
``fire`` call never happens — hot paths pay nothing, and solver counter
pins stay bit-identical.  Faults are armed from the environment::

    REPRO_FAULTS="store.put:fail:0.3:7,wire.read:drop:0.1:7"

Each comma-separated spec is ``point:mode[:prob[:seed]]``:

* ``point`` — a registered injection point name (see :data:`FAULT_POINTS`),
  or a prefix ending in ``*`` (``store.*``) matching several points.
* ``mode`` — what happens when the fault fires:

  - ``fail``    — raise :class:`FaultInjectedError` at the call site,
  - ``delay``   — sleep :data:`DELAY_SECONDS` (stall, do not break),
  - ``drop``    — the call site discards the unit of work (a frame, a row),
  - ``corrupt`` — the call site mangles its payload bytes.

* ``prob`` — firing probability per check, default 1.0.
* ``seed`` — seeds the rule's private RNG; two runs with the same spec see
  the same firing schedule, which is what makes chaos runs replayable.

Call-site contract: ``fire(point)`` raises on ``fail``, sleeps on
``delay``, and returns the fired mode (or ``None``) so the caller can
implement ``drop``/``corrupt`` where only it knows what those mean;
``mangle(point, data)`` is the byte-corruption helper for the latter.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Tuple

#: Fast-path flag: ``True`` iff at least one fault rule is armed.  Call
#: sites check this before calling :func:`fire` so the disarmed cost is a
#: single module-attribute read.
ARMED = False

#: Environment variable holding the fault specs.
ENV_VAR = "REPRO_FAULTS"

#: How long a ``delay`` fault stalls the call site, in seconds.  Long
#: enough to widen race windows, short enough to keep chaos tests quick.
DELAY_SECONDS = 0.05

#: The catalogue of named injection points.  Arming an unknown point is an
#: error — a typo in a chaos schedule must fail loudly, not silently test
#: nothing.
FAULT_POINTS = (
    "store.put",        # persisting a mapping result to SQLite
    "store.get",        # reading a cached result back
    "store.journal",    # journal bookkeeping reads/writes
    "wire.read",        # receiving an HTTP response / WebSocket frame
    "wire.write",       # sending an HTTP request / WebSocket frame
    "worker.spawn",     # launching a worker subprocess
    "worker.dispatch",  # supervisor sending a request to a worker
    "solver.step",      # a CDCL conflict boundary
)

_MODES = ("fail", "delay", "drop", "corrupt")


class FaultInjectedError(ConnectionError):
    """An armed ``fail`` fault fired.

    Subclasses :class:`ConnectionError` so the retry/backoff paths that
    guard process boundaries treat an injected failure exactly like a real
    one — the whole point of injecting it.
    """

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class _Rule:
    """One armed fault: mode, firing probability, private deterministic RNG."""

    __slots__ = ("point", "mode", "probability", "_rng", "fired")

    def __init__(self, point: str, mode: str, probability: float, seed: int):
        self.point = point
        self.mode = mode
        self.probability = probability
        self._rng = random.Random(seed)
        self.fired = 0

    def check(self) -> Optional[str]:
        if self.probability < 1.0 and self._rng.random() >= self.probability:
            return None
        self.fired += 1
        return self.mode


#: point -> armed rule.  Prefix specs are expanded at arm time.
_RULES: Dict[str, _Rule] = {}


def _parse_spec(spec: str) -> List[Tuple[str, str, float, int]]:
    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise ValueError(
            f"bad fault spec {spec!r}: expected point:mode[:prob[:seed]]"
        )
    point, mode = parts[0].strip(), parts[1].strip()
    probability = float(parts[2]) if len(parts) > 2 else 1.0
    seed = int(parts[3]) if len(parts) > 3 else 0
    if mode not in _MODES:
        raise ValueError(f"bad fault mode {mode!r}: expected one of {_MODES}")
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"fault probability {probability} outside [0, 1]")
    if point.endswith("*"):
        prefix = point[:-1]
        matched = [name for name in FAULT_POINTS if name.startswith(prefix)]
        if not matched:
            raise ValueError(f"fault prefix {point!r} matches no known point")
        return [(name, mode, probability, seed) for name in matched]
    if point not in FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; known: {', '.join(FAULT_POINTS)}"
        )
    return [(point, mode, probability, seed)]


def arm(specs: str) -> None:
    """Arm the comma-separated fault *specs* (replacing any armed before)."""
    global ARMED
    rules: Dict[str, _Rule] = {}
    for spec in specs.split(","):
        spec = spec.strip()
        if not spec:
            continue
        for point, mode, probability, seed in _parse_spec(spec):
            rules[point] = _Rule(point, mode, probability, seed)
    _RULES.clear()
    _RULES.update(rules)
    ARMED = bool(_RULES)


def disarm() -> None:
    """Remove every armed fault (hot paths go back to the no-op flag check)."""
    global ARMED
    _RULES.clear()
    ARMED = False


def active(point: str) -> Optional[str]:
    """The mode that fires at *point* for this check, or ``None``.

    Consumes one draw of the rule's RNG when a probabilistic rule is armed
    at *point* — determinism holds per-point, not globally.
    """
    rule = _RULES.get(point)
    if rule is None:
        return None
    return rule.check()


def fire(point: str) -> Optional[str]:
    """Evaluate the fault at *point* and enact the generic part of it.

    Raises :class:`FaultInjectedError` for ``fail``, sleeps for ``delay``,
    and returns the fired mode — ``drop`` and ``corrupt`` are returned for
    the call site to enact, since only it knows what dropping or
    corrupting means there.  Returns ``None`` when nothing fires.
    """
    mode = active(point)
    if mode == "fail":
        raise FaultInjectedError(point)
    if mode == "delay":
        time.sleep(DELAY_SECONDS)
    return mode


def mangle(point: str, data: bytes) -> bytes:
    """*data* with a deterministic byte flipped (the ``corrupt`` helper).

    The flipped offset derives from the rule's fire count, so repeated
    corruptions hit different offsets but the same ones on every replay.
    """
    if not data:
        return data
    rule = _RULES.get(point)
    offset = (rule.fired if rule is not None else 0) % len(data)
    corrupted = bytearray(data)
    corrupted[offset] ^= 0xFF
    return bytes(corrupted)


def fired_counts() -> Dict[str, int]:
    """How often each armed point has fired so far (for chaos-run ledgers)."""
    return {point: rule.fired for point, rule in _RULES.items() if rule.fired}


def _arm_from_environment() -> None:
    specs = os.environ.get(ENV_VAR, "").strip()
    if specs:
        arm(specs)


_arm_from_environment()

__all__ = [
    "ARMED",
    "DELAY_SECONDS",
    "ENV_VAR",
    "FAULT_POINTS",
    "FaultInjectedError",
    "active",
    "arm",
    "disarm",
    "fire",
    "fired_counts",
    "mangle",
]
