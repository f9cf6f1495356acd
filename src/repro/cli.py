"""Command-line interface: map OpenQASM circuits, serve batches, manage caches.

Engines are resolved through the mapper backend registry
(:mod:`repro.pipeline.registry`), so every registered name — built-in or
added at runtime via :func:`repro.pipeline.register_mapper` — is a valid
``--engine`` argument.

The command has four entry points.  The classic mapping invocation (the
default, kept flag-compatible with earlier releases) maps one circuit; the
``serve`` subcommand drives a whole batch through the async
:class:`~repro.service.service.MappingService` with result caching and
multi-device routing; the ``listen`` subcommand runs the network serving
layer (HTTP/WebSocket front end, multi-process workers behind a
supervisor); the ``cache`` subcommand inspects, clears and prunes the
in-memory caches and the persistent result store — locally or on a
running server via ``--url``.

Examples::

    repro-map circuit.qasm --arch qx4 --engine dp
    repro-map circuit.qasm --arch qx4 --engine sat --strategy odd --subsets
    repro-map circuit.qasm --engine sat --subsets --cache-dir ~/.repro
    repro-map serve a.qasm b.qasm --arch qx4 --arch qx5 --engine dp --workers 4
    repro-map listen --port 8137 --workers 4 --arch qx4 --arch qx5
    repro-map cache stats --cache-dir ~/.repro
    repro-map cache stats --url 127.0.0.1:8137
    repro-map cache artifacts --cache-dir ~/.repro
    repro-map cache artifacts --url 127.0.0.1:8137
    repro-map cache prune --ttl 3600 --cache-dir ~/.repro
    repro-map cache prune --url 127.0.0.1:8137
    repro-map cache clear --cache-dir ~/.repro
    repro-map --list-engines
    python -m repro.cli circuit.qasm --arch qx4

Every command that takes ``--cache-dir`` falls back to the
``REPRO_CACHE_DIR`` environment variable for one call; the directory holds
only ``results.sqlite``.  On the mapping and ``serve`` paths, results are
served from that fingerprint-keyed store instead of being re-solved, and
stored solve artifacts seed later solves.  A store that cannot be opened
is skipped with one warning.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch import CouplingMap, get_architecture
from repro.circuit import parse_qasm_file
from repro.circuit.qasm import write_qasm_file
from repro.arch.cache import cache_stats, clear_caches
from repro.pipeline.pipeline import MappingPipeline
from repro.pipeline.registry import available_mappers, resolve_mapper_name
from repro.service.errors import StoreError
from repro.service.store import ResultStore, resolve_cache_dir
from repro.verify import verify_result

#: Subcommand names dispatched away from the classic mapping invocation.
_SUBCOMMANDS = ("cache", "serve", "listen", "cancel")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the classic mapping invocation."""
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Map an OpenQASM 2.0 circuit to an IBM QX architecture "
        "with a minimal (or close-to-minimal) number of SWAP and H operations. "
        "Subcommands: 'serve' (async batch service), 'listen' (HTTP "
        "serving layer), 'cancel' (cancel a job on a running server), "
        "'cache' (cache admin).",
    )
    parser.add_argument(
        "qasm", nargs="?", default=None, help="input OpenQASM 2.0 file"
    )
    parser.add_argument(
        "--arch", default="ibm_qx4",
        help="target architecture (ibm_qx2, ibm_qx4, ibm_qx5, ibm_tokyo)",
    )
    _add_engine_flags(parser)
    parser.add_argument(
        "--list-engines", action="store_true",
        help="list the registered mapping engines and exit",
    )
    parser.add_argument(
        "--list-optimizers", action="store_true",
        help="list the optimizer strategies (with descriptions) "
        "and exit",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="on a proven-optimal SAT result, print the final UNSAT core "
        "mapped to human-readable constraint labels (which objective "
        "selectors / bound-ladder nodes bind); core records one, linear "
        "does not",
    )
    parser.add_argument(
        "--split-window", type=int, default=None, metavar="N",
        help="solve the circuit in windows of N CNOTs, each exactly on its "
        "active-qubit sub-coupling, stitching windows with synthesized "
        "permutations (the scalability path for big devices such as "
        "ibm_qx5/ibm_tokyo; implies the sat_split engine, result is an "
        "upper bound)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory of the persistent result store (DIR/results.sqlite): "
        "results are served from the fingerprint-keyed store and its solve "
        "artifacts warm-start later solves (defaults to $REPRO_CACHE_DIR "
        "when set; omit both for no persistence)",
    )
    parser.add_argument(
        "--result-ttl", type=_positive_seconds, default=None,
        help="treat cached results older than this many seconds as misses "
        "(requires --cache-dir; expired rows are purged lazily)",
    )
    parser.add_argument(
        "--upper-bound", type=int, default=None,
        help="known valid upper bound on the added cost, asserted before the "
        "exact search starts (engines with restricted search spaces ignore it)",
    )
    parser.add_argument(
        "--output", default=None, help="write the mapped circuit to this QASM file"
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="additionally check functional equivalence by simulation",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the mapping under cProfile and print the top 20 functions "
        "by cumulative time to stderr (future perf work starts from data, "
        "not guesses)",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="with --profile, additionally dump the full pstats data to "
        "FILE for offline analysis (python -m pstats FILE, snakeviz, ...); "
        "implies --profile",
    )
    return parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine flags of ``map``, ``serve`` and ``listen``; see
    :func:`_engine_setup` for their one validation."""
    parser.add_argument(
        "--engine", default="dp",
        help="mapping engine from the backend registry "
        f"({', '.join(available_mappers())}; default: dp, the fast exact engine)",
    )
    parser.add_argument(
        "--strategy", default="all",
        help="permutation-restriction strategy for the exact engines "
        "(all, disjoint, odd, triangle)",
    )
    parser.add_argument(
        "--optimizer", default=None,
        help="objective-search strategy of the SAT stage (core, linear; "
        "default: core). "
        "'core' uses MaxSAT-style UNSAT-core-guided descent; 'linear' is "
        "the paper's descent",
    )
    parser.add_argument(
        "--subsets", action="store_true",
        help="restrict the SAT engine to connected subsets of physical qubits "
        "(Section 4.1 of the paper)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None,
        help="wall-clock budget in seconds for the SAT engine",
    )
    parser.add_argument(
        "--trials", type=int, default=5,
        help="number of trials for the stochastic heuristic (default 5)",
    )


def _positive_seconds(text: str) -> float:
    """argparse type of ``--result-ttl``: a positive number of seconds."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not seconds > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return seconds


def _open_store(cache_dir: str, ttl_seconds: Optional[float],
                fallback: str) -> Optional[ResultStore]:
    """The result store in *cache_dir*, or ``None`` after one warning that
    ends with *fallback* when the database cannot be opened."""
    try:
        return ResultStore.at(cache_dir, ttl_seconds=ttl_seconds)
    except StoreError as error:
        print(f"warning: {error}; {fallback}", file=sys.stderr)
        return None


def _engine_setup(
    parser: argparse.ArgumentParser, args: argparse.Namespace,
    arch_names: Sequence[str],
) -> Tuple[str, Dict[str, Any], Dict[str, CouplingMap]]:
    """Check the engine flags and *arch_names* before anything runs.

    Returns the resolved engine, its options and the couplings by name; a
    bad value ends the command with one ``parser.error`` line (exit 2).
    """
    from repro.exact.strategies import get_strategy

    try:
        engine = resolve_mapper_name(args.engine)
    except KeyError as error:
        parser.error(error.args[0])
    split_window = getattr(args, "split_window", None)
    if split_window is not None:
        if split_window < 1:
            parser.error("--split-window must be at least 1")
        if engine == "sat":
            engine = "sat_split"
        elif engine != "sat_split":
            parser.error(
                "--split-window only applies to the sat / sat_split engines "
                f"(got engine {engine!r})"
            )
    if args.optimizer is not None:
        from repro.sat.optimize import OPTIMIZERS, resolve_optimizer_name

        try:
            resolve_optimizer_name(args.optimizer)
        except ValueError:
            parser.error(
                f"unknown --optimizer {args.optimizer!r}; choose one of "
                f"{', '.join(OPTIMIZERS)} (see --list-optimizers)"
            )
        if engine not in ("sat", "sat_split"):
            parser.error(
                f"--optimizer only applies to the sat and sat_split engines "
                f"(got engine {engine!r})"
            )
    try:
        get_strategy(args.strategy)
    except KeyError as error:
        parser.error(error.args[0])
    if args.time_limit is not None and not args.time_limit > 0:
        parser.error("--time-limit must be positive")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    couplings: Dict[str, CouplingMap] = {}
    for name in arch_names:
        try:
            coupling = get_architecture(name)
        except KeyError as error:
            parser.error(error.args[0])
        couplings[coupling.name] = coupling
    return engine, _engine_options(engine, args), couplings


def _engine_options(engine: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Translate CLI flags into constructor options for *engine*.

    Only the options an engine understands are forwarded, so registry names
    without matching flags (custom engines, heuristics) keep working.
    """
    options: Dict[str, Any] = {}
    if engine in ("sat", "dp", "sat_split"):
        options["strategy"] = args.strategy
    if engine == "sat":
        options["use_subsets"] = args.subsets
    if engine in ("sat", "sat_split"):
        options["time_limit"] = args.time_limit
        if args.optimizer is not None:
            options["optimizer"] = args.optimizer
    if engine == "sat_split" and getattr(args, "split_window", None) is not None:
        options["window_size"] = args.split_window
    if engine == "stochastic":
        options["trials"] = args.trials
    return options


def _print_optimizers() -> None:
    from repro.sat.optimize import OPTIMIZERS

    width = max(len(name) for name in OPTIMIZERS)
    for name, description in OPTIMIZERS.items():
        print(f"{name:{width}s}  {description}")


#: Label of the bound-ladder literal that bounds the whole objective (see
#: :meth:`repro.sat.session.SolveSession.describe_literal`).
_OBJECTIVE_BOUND_LABEL = "bound ladder: objective terms[0:] "


def _print_explanation(result) -> None:
    """Print how a proven-optimal result was proven: its final UNSAT core,
    one refutation of the bound below it, or a closure on a lower bound."""
    if not result.optimal:
        print("explain            : result is not proven optimal; no final "
              "UNSAT core to report")
        return
    labels = result.statistics.get("final_core")
    if not labels:
        if result.statistics.get("families_closed"):
            print("explain            : proven without a solver call (a "
                  "proven lower bound meets the seeded schedule's cost)")
            return
        print("explain            : no UNSAT core recorded (a zero-cost "
              "optimum needs no refutation, and the linear strategy proves "
              "optimality via committed bounds)")
        return
    if len(labels) == 1 and labels[0].startswith(_OBJECTIVE_BOUND_LABEL):
        print("proof              : one refutation — a schedule of cost "
              f"{result.objective} exists, and no schedule satisfies "
              f"{labels[0]}")
        return
    print(f"final UNSAT core   : {len(labels)} binding constraint(s) at the "
          "optimum — no cheaper schedule can satisfy all of:")
    for label in labels:
        print(f"  - {label}")


def _profiled_map(pipeline: MappingPipeline, circuit, profile_out=None):
    """Map *circuit* under cProfile; print the top functions to stderr.

    The report goes to stderr so the normal result summary on stdout stays
    machine-parseable.  When *profile_out* is given, the full pstats data is
    additionally dumped there (loadable with ``python -m pstats FILE`` or
    any pstats viewer) — the top-20 summary only shows where time went,
    the dump lets callers drill into callers/callees offline.
    """
    import cProfile
    import io
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    try:
        result = pipeline.map(circuit)
    finally:
        profile.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profile, stream=stream)
        stats.sort_stats("cumulative").print_stats(20)
        print("--- cProfile: top 20 functions by cumulative time ---",
              file=sys.stderr)
        print(stream.getvalue(), file=sys.stderr, end="")
        if profile_out is not None:
            stats.dump_stats(profile_out)
            print(f"full profile data written to {profile_out}",
                  file=sys.stderr)
    return result


# ----------------------------------------------------------------------
# Classic single-circuit mapping
# ----------------------------------------------------------------------
def _run_map(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_engines:
        for name in available_mappers():
            print(name)
        return 0
    if args.list_optimizers:
        _print_optimizers()
        return 0
    if args.qasm is None:
        parser.error(
            "the qasm input file is required "
            "(or use --list-engines / --list-optimizers)"
        )
    if args.upper_bound is not None and args.upper_bound < 0:
        parser.error("--upper-bound must be non-negative")
    engine, options, couplings = _engine_setup(parser, args, [args.arch])
    (coupling,) = couplings.values()
    try:
        circuit = parse_qasm_file(args.qasm)
    except OSError as error:
        parser.error(f"cannot read {args.qasm}: {error.strerror}")
    cache_dir = resolve_cache_dir(args.cache_dir)
    if args.result_ttl is not None and cache_dir is None:
        parser.error("--result-ttl requires --cache-dir (or REPRO_CACHE_DIR)")

    store = None
    if cache_dir is not None:
        store = _open_store(
            cache_dir, args.result_ttl, "mapping without the result store"
        )
    fingerprint = None
    cache_hit = False
    if store is not None:
        from repro.service.fingerprint import job_fingerprint

        # The time limit bounds the solve, not the answer; the service
        # keys jobs without it too.
        fingerprint = job_fingerprint(circuit, coupling, engine, {
            key: value for key, value in options.items() if key != "time_limit"
        })
        result = store.get(fingerprint)
        cache_hit = result is not None
    if not cache_hit:
        from repro.pipeline.bounds import BoundProviderChain

        seeds = BoundProviderChain(store, upper_bound=args.upper_bound)
        pipeline = MappingPipeline(
            coupling, engine=engine, engine_options=options, seeds=seeds,
        )
        from repro.exact.sat_mapper import SATMapperError

        try:
            if args.profile or args.profile_out:
                result = _profiled_map(pipeline, circuit, args.profile_out)
            else:
                result = pipeline.map(circuit)
        except SATMapperError as error:
            hint = (
                " (is --upper-bound really achievable?)"
                if args.upper_bound is not None else ""
            )
            print(f"error: {error}{hint}", file=sys.stderr)
            return 1
        # A run cut short by --time-limit may return a schedule that is not
        # minimal; the key leaves the limit out, so such a result must not
        # answer a later run that has no limit.
        if store is not None and (args.time_limit is None or result.optimal):
            from repro.service.errors import ServiceError
            from repro.service.fingerprint import coupling_fingerprint

            try:
                store.put(
                    fingerprint, result,
                    circuit_fp=circuit.fingerprint(),
                    arch_fp=coupling_fingerprint(coupling),
                )
            except ServiceError as error:
                # A failing cache directory must not fail a successful
                # mapping run.
                print(f"warning: result not cached ({error})", file=sys.stderr)
    report = verify_result(result, coupling)

    print(f"circuit           : {circuit.name}")
    print(f"logical qubits    : {circuit.num_qubits}")
    print(f"original gates    : {circuit.count_single_qubit() + circuit.count_cnot()}")
    print(f"engine            : {result.engine} (strategy {result.strategy})")
    print(f"mapped gates      : {result.total_cost}")
    print(f"added operations  : {result.added_cost} "
          f"({result.cost.swaps} SWAPs, {result.cost.reversals} reversals)")
    print(f"proven minimal    : {result.optimal}")
    print(f"coupling compliant: {report.compliant}")
    print(f"runtime           : {result.runtime_seconds:.3f} s")
    if store is not None:
        print(f"result cache      : {'hit' if cache_hit else 'miss'} ({cache_dir})")
    # The annotation is persisted with the result, so only report it for
    # the run that actually solved (a cache hit seeds nothing).
    seeded_bound = result.statistics.get("external_bound")
    if seeded_bound is not None and not cache_hit:
        print(f"bound seeded      : {seeded_bound} (--upper-bound)")
    if result.statistics.get("artifact_seeding") and not cache_hit:
        hits = result.statistics.get("artifact_hits", 0)
        print(
            "artifact seeding  : "
            f"{hits} family hit(s), "
            f"{result.statistics.get('artifact_clauses_imported', 0)} clause(s), "
            f"{result.statistics.get('artifact_bounds_used', 0)} bound(s) used"
        )
    if args.explain:
        _print_explanation(result)
    if args.verify:
        # Simulation needs numpy; only a --verify run loads it.
        from repro.sim.equivalence import result_is_equivalent

        equivalent = result_is_equivalent(result)
        print(f"equivalence check : {'passed' if equivalent else 'FAILED'}")
        if not equivalent:
            return 1
    if args.output:
        write_qasm_file(result.mapped_circuit, args.output)
        print(f"mapped circuit written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# cache subcommand
# ----------------------------------------------------------------------
def _build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map cache",
        description="Inspect, clear or prune the per-architecture artefact "
        "caches and the persistent result store (locally, or on a running "
        "server via --url).  'artifacts' summarises the solve-artifact "
        "table (warm-start rows keyed by encoding skeleton): row count "
        "and payload bytes locally, plus seeding hit rates via --url.",
    )
    parser.add_argument("action", choices=["stats", "clear", "prune", "artifacts"])
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory of the persistent result store (defaults to "
        "$REPRO_CACHE_DIR; without one only the in-process caches are "
        "touched)",
    )
    parser.add_argument(
        "--ttl", type=float, default=None,
        help="for 'prune': drop result-store rows older than this many "
        "seconds (required for a local prune; optional with --url, where "
        "omitting it only flushes the workers' in-memory caches)",
    )
    parser.add_argument(
        "--url", default=None, metavar="HOST:PORT",
        help="operate on a running repro-map listen server instead of the "
        "local filesystem: 'stats' fetches GET /v1/stats, 'prune' posts "
        "the invalidation broadcast to POST /v1/cache/prune",
    )
    return parser


def _parse_url(url: str) -> "tuple[str, int]":
    """Split a ``host:port`` (scheme prefix tolerated) into its parts."""
    stripped = url.split("//", 1)[-1].rstrip("/")
    host, _, port = stripped.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {url!r}")
    return host, int(port)


def _http_json(method: str, url: str, target: str, body=None):
    """One protocol request against a running server; returns the envelope."""
    import json as _json

    from repro.server import wire

    host, port = _parse_url(url)

    async def call():
        status, _headers, payload = await wire.http_request(
            host, port, method, target, body=body
        )
        return status, _json.loads(payload)

    return asyncio.run(call())


def _run_cache(argv: Sequence[str]) -> int:
    parser = _build_cache_parser()
    args = parser.parse_args(argv)
    try:
        return _cache_action(parser, args)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cache_action(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import json as _json

    if args.url is not None and args.action == "clear":
        parser.error("cache clear is not available over --url")

    if args.action == "prune":
        if args.url is not None:
            from repro.server.protocol import PruneRequest

            request = PruneRequest(ttl_seconds=args.ttl, flush_memory=True)
            status, envelope = _http_json(
                "POST", args.url, "/v1/cache/prune",
                _json.dumps(request.to_wire()).encode(),
            )
            print(_json.dumps(envelope["payload"], indent=2, sort_keys=True))
            return 0 if status == 200 else 1
        cache_dir = resolve_cache_dir(args.cache_dir)
        if args.ttl is None:
            parser.error("cache prune requires --ttl SECONDS (or --url)")
        if cache_dir is None:
            parser.error(
                "cache prune needs a persistent store "
                "(use --cache-dir, REPRO_CACHE_DIR, or --url)"
            )
        report = ResultStore.at(cache_dir).prune_report(ttl_seconds=args.ttl)
        report["cache_dir"] = cache_dir
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0

    if args.action == "artifacts":
        if args.url is not None:
            status, envelope = _http_json("GET", args.url, "/v1/stats")
            payload = envelope.get("payload", {})
            summary: Dict[str, Any] = {}
            per_worker = payload.get("workers") or {}
            if not per_worker and isinstance(payload.get("stats"), dict):
                stats = payload["stats"]
                worker_id = stats.get("server", {}).get("worker_id", "w0")
                per_worker = {worker_id: stats}
            for worker_id, stats in sorted(per_worker.items()):
                if not isinstance(stats, dict):
                    continue
                store_stats = stats.get("store", {})
                summary[worker_id] = {
                    "artifact_rows": store_stats.get("artifact_rows", 0),
                    "artifact_bytes": store_stats.get("artifact_bytes", 0),
                    "artifact_seeding": stats.get("artifact_seeding", {}),
                }
            print(_json.dumps(summary, indent=2, sort_keys=True))
            return 0 if status == 200 else 1
        cache_dir = resolve_cache_dir(args.cache_dir)
        if cache_dir is None:
            parser.error(
                "cache artifacts needs a persistent store "
                "(use --cache-dir, REPRO_CACHE_DIR, or --url)"
            )
        rows, payload_bytes = ResultStore.at(cache_dir).artifact_rows()
        print(_json.dumps(
            {
                "cache_dir": cache_dir,
                "artifact_rows": rows,
                "artifact_bytes": payload_bytes,
            },
            indent=2, sort_keys=True,
        ))
        return 0

    if args.action == "stats":
        if args.url is not None:
            status, envelope = _http_json("GET", args.url, "/v1/stats")
            print(_json.dumps(envelope["payload"], indent=2, sort_keys=True))
            return 0 if status == 200 else 1
        cache_dir = resolve_cache_dir(args.cache_dir)
        print("in-process caches:")
        for key, value in sorted(cache_stats().items()):
            print(f"  {key:32s}: {value}")
        if cache_dir is not None:
            print(f"result store ({cache_dir}):")
            for key, value in sorted(ResultStore.at(cache_dir).stats().items()):
                print(f"  {key:32s}: {value}")
        else:
            print("result store: no cache directory configured "
                  "(use --cache-dir or REPRO_CACHE_DIR)")
        return 0

    cache_dir = resolve_cache_dir(args.cache_dir)

    clear_caches()
    print("in-process caches cleared")
    if cache_dir is not None:
        removed = ResultStore.at(cache_dir).clear()
        print(f"result store cleared ({cache_dir}): {removed} results")
    return 0


# ----------------------------------------------------------------------
# serve subcommand
# ----------------------------------------------------------------------
def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map serve",
        description="Drive a batch of OpenQASM circuits through the async "
        "mapping service: fingerprint-keyed result caching, in-flight "
        "deduplication and routing across one or more devices.",
    )
    parser.add_argument("qasm", nargs="+", help="input OpenQASM 2.0 files")
    parser.add_argument(
        "--arch", action="append", default=None,
        help="target architecture; repeat the flag to register several "
        "devices and let the service route each circuit to the smallest "
        "one that fits (default: ibm_qx4)",
    )
    _add_engine_flags(parser)
    parser.add_argument("--workers", type=int, default=2,
                        help="how many jobs solve at once (default 2)")
    parser.add_argument("--executor", default="thread",
                        choices=["thread", "process"],
                        help="worker pool type (default: thread)")
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory of the persistent result store (defaults to "
        "$REPRO_CACHE_DIR; omit both for an in-memory result store)",
    )
    parser.add_argument(
        "--result-ttl", type=_positive_seconds, default=None,
        help="treat cached results older than this many seconds as misses "
        "(expired rows are purged lazily)",
    )
    return parser


async def _serve_batch(
    args: argparse.Namespace, engine: str, options: Dict[str, Any],
    couplings: Dict[str, CouplingMap],
) -> int:
    from repro.service.service import MappingService

    cache_dir = resolve_cache_dir(args.cache_dir)
    store = None
    if cache_dir is not None:
        store = _open_store(
            cache_dir, args.result_ttl, "serving over a memory-only store"
        )
    if store is None:
        cache_dir = None
        store = ResultStore(ttl_seconds=args.result_ttl)

    circuits = [parse_qasm_file(path) for path in args.qasm]
    failures = 0
    async with MappingService(
        couplings,
        engine=engine,
        engine_options=options,
        store=store,
        workers=args.workers,
        executor=args.executor,
    ) as service:
        job_ids = await service.submit_many(circuits)
        for job_id in job_ids:
            try:
                result = await service.result(job_id)
            except Exception as error:  # noqa: BLE001 - reported per job
                failures += 1
                status = service.status(job_id)
                print(f"{status['circuit_name']:24s} FAILED   {error}")
                continue
            status = service.status(job_id)
            provenance = status["provenance"]
            if provenance.get("cache_hit"):
                source = "cache"
            elif provenance.get("coalesced"):
                source = "coalesced"
            else:
                source = "solved"
            print(
                f"{status['circuit_name']:24s} {source:7s} "
                f"arch={status['arch']:10s} engine={status['engine']:10s} "
                f"added={result.added_cost:4d} optimal={result.optimal} "
                f"elapsed={provenance.get('elapsed_seconds', 0.0):.3f}s"
            )
        stats = service.stats()
    print(
        f"jobs: {stats['submitted']} submitted, {stats['cache_hits']} cache "
        f"hits, {stats['coalesced']} coalesced, {stats['solved']} solved, "
        f"{stats['failed']} failed"
    )
    if cache_dir is not None:
        print(f"persistent store: {cache_dir} "
              f"({stats['store'].get('disk_entries', 0)} results)")
    return 1 if failures else 0


def _run_serve(argv: Sequence[str]) -> int:
    parser = _build_serve_parser()
    args = parser.parse_args(argv)
    setup = _engine_setup(parser, args, args.arch or ["ibm_qx4"])
    return asyncio.run(_serve_batch(args, *setup))


# ----------------------------------------------------------------------
# listen subcommand
# ----------------------------------------------------------------------
def _build_listen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map listen",
        description="Run the network serving layer: an HTTP/WebSocket "
        "front end over the mapping service.  --workers N spawns N worker "
        "processes that a supervisor drives over their stdio pipes "
        "(load-aware routing, heartbeat restarts, redelivery, cache "
        "invalidation broadcast); --workers 0 serves from a single "
        "in-process worker.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8137,
        help="public port to listen on (default 8137; 0 picks a free port)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes behind the supervisor (default 2; "
        "0 = single in-process worker, no supervisor)",
    )
    parser.add_argument(
        "--arch", action="append", default=None,
        help="architecture every worker registers; repeat for several "
        "devices (default: ibm_qx4)",
    )
    _add_engine_flags(parser)
    parser.add_argument(
        "--service-workers", type=int, default=2,
        help="how many jobs solve at once inside each worker process "
        "(default 2)",
    )
    parser.add_argument("--executor", default="thread",
                        choices=["thread", "process"])
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory of the shared result store and job journal "
        "(defaults to $REPRO_CACHE_DIR; without one the supervisor creates "
        "a private temporary directory so its workers still share one "
        "result store)",
    )
    parser.add_argument("--result-ttl", type=_positive_seconds, default=None)
    return parser


def _run_listen(argv: Sequence[str]) -> int:
    parser = _build_listen_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    arch = args.arch or ["ibm_qx4"]
    engine, options, _couplings = _engine_setup(parser, args, arch)

    from repro.server.app import JobServer, ServiceBackend
    from repro.server.supervisor import Supervisor

    config = dict(
        arch=arch,
        engine=engine,
        engine_options=options,
        service_workers=args.service_workers,
        executor=args.executor,
        cache_dir=resolve_cache_dir(args.cache_dir),
        result_ttl=args.result_ttl,
    )
    address = dict(host=args.host, port=args.port)
    server = (
        JobServer(backend=ServiceBackend.build(**config), **address)
        if args.workers == 0
        else Supervisor(workers=args.workers, **address, **config).server
    )
    return asyncio.run(server.serve_until_signalled())


# ----------------------------------------------------------------------
# cancel subcommand
# ----------------------------------------------------------------------
def _build_cancel_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map cancel",
        description="Cancel a job on a running repro-map listen/serve "
        "server (DELETE /v1/jobs/{id}; the solver stops at its next "
        "conflict boundary).",
    )
    parser.add_argument("job_id", help="public job id (e.g. w0-job-000001)")
    parser.add_argument(
        "--url", required=True, metavar="HOST:PORT",
        help="address of the running server",
    )
    parser.add_argument(
        "--reason", default=None,
        help="optional reason recorded in the job's structured error",
    )
    return parser


def _run_cancel(argv: Sequence[str]) -> int:
    import json as _json

    parser = _build_cancel_parser()
    args = parser.parse_args(argv)
    from repro.server.protocol import CancelRequest

    body = _json.dumps(
        CancelRequest(job_id=args.job_id, reason=args.reason).to_wire()
    ).encode()
    status, envelope = _http_json(
        "DELETE", args.url, f"/v1/jobs/{args.job_id}", body
    )
    print(_json.dumps(envelope.get("payload", envelope),
                      indent=2, sort_keys=True))
    return 0 if status == 200 else 1


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-map`` command."""
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] in _SUBCOMMANDS:
        if arguments[0] == "cache":
            return _run_cache(arguments[1:])
        if arguments[0] == "listen":
            return _run_listen(arguments[1:])
        if arguments[0] == "cancel":
            return _run_cancel(arguments[1:])
        return _run_serve(arguments[1:])
    return _run_map(arguments)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
