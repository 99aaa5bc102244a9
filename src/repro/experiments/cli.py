"""Command-line front end for the experiment drivers, built on the facade.

Runs the generation-centric experiments with the scale-out knobs exposed::

    python -m repro.experiments.cli generate --gate-set nam --n 3 --q 3
    python -m repro.experiments.cli generator-metrics --gate-set nam --n 1 2 3
    python -m repro.experiments.cli optimize --gate-set nam --circuit tof_3 \
        --strategy greedy --backend numpy
    python -m repro.experiments.cli registry
    python -m repro.experiments.cli serve --port 8321 --n 2 --q 2

Shared flags:

* ``--workers N``    — shard RepGen fingerprinting over N processes
  (default: the ``REPRO_GEN_WORKERS`` environment variable, else serial);
* ``--verify-workers N`` — shard bucket-internal equivalence checks over N
  processes (default: ``REPRO_VERIFY_WORKERS``, else serial);
* ``--cache-dir DIR``— persistent ECC cache location (default
  ``REPRO_CACHE_DIR`` or ``.repro_cache/``);
* ``--no-cache``     — neither read nor write the persistent cache;
* ``--chunk-timeout S`` — per-chunk worker-pool deadline in seconds
  (default ``REPRO_CHUNK_TIMEOUT``; 0 disables the deadline);
* ``--chunk-retries N`` — re-dispatch budget per failed/timed-out chunk
  (default ``REPRO_CHUNK_RETRIES``);
* ``--search-workers N`` — worker processes for the
  ``parallel-backtracking`` search strategy (default
  ``REPRO_SEARCH_WORKERS``, else serial);
* ``--resume``       — checkpoint RepGen after every round and resume a
  killed run from the last completed one (needs the persistent cache).

The ``optimize`` subcommand is a thin shell around
:class:`repro.api.Superoptimizer`; its JSON output is the facade's
versioned :meth:`~repro.api.RunReport.to_json_dict` schema — the same
payload the optimization service streams.  ``serve`` starts that service
(equivalent to ``python -m repro.service``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.envconfig import (
    BATCHED_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    CACHE_DISABLE_ENV_VAR,
    CHUNK_RETRIES_ENV_VAR,
    CHUNK_TIMEOUT_ENV_VAR,
    RESUME_ENV_VAR,
    SEARCH_WORKERS_ENV_VAR,
    VERIFY_WORKERS_ENV_VAR,
    WORKERS_ENV_VAR,
)
from repro.optimizer.strategies import available_strategies


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gate-set",
        default="nam",
        help="target gate set (nam, ibm, rigetti, clifford_t)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fingerprint worker processes (default: REPRO_GEN_WORKERS or serial)",
    )
    parser.add_argument(
        "--verify-workers",
        type=int,
        default=None,
        help=(
            "equivalence-verifier worker processes "
            "(default: REPRO_VERIFY_WORKERS or serial)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent ECC cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent .repro_cache/ store",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help=(
            "per-chunk worker-pool deadline in seconds; 0 disables "
            "(default: REPRO_CHUNK_TIMEOUT, else 120)"
        ),
    )
    parser.add_argument(
        "--chunk-retries",
        type=int,
        default=None,
        help=(
            "re-dispatch budget per failed/timed-out chunk "
            "(default: REPRO_CHUNK_RETRIES, else 2)"
        ),
    )
    parser.add_argument(
        "--search-workers",
        type=int,
        default=None,
        help=(
            "worker processes for the parallel search strategies "
            "(default: REPRO_SEARCH_WORKERS, else serial)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "checkpoint RepGen after every round through the persistent "
            "cache and resume a killed run at the last completed round"
        ),
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help=(
            "evaluate fingerprints per state instead of through the "
            "backend's batched multi-state kernels (default: REPRO_BATCHED, "
            "else batched)"
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _apply_shared_flags(args: argparse.Namespace) -> None:
    """Translate shared CLI flags into the env knobs the library reads.

    ``--workers`` goes through ``REPRO_GEN_WORKERS`` so it reaches every
    RepGen construction, including the ones buried inside the table
    drivers that do not thread a workers parameter.
    """
    if args.cache_dir is not None:
        os.environ[CACHE_DIR_ENV_VAR] = args.cache_dir
    if args.no_cache:
        os.environ[CACHE_DISABLE_ENV_VAR] = "1"
    if args.workers is not None:
        os.environ[WORKERS_ENV_VAR] = str(args.workers)
    if args.verify_workers is not None:
        os.environ[VERIFY_WORKERS_ENV_VAR] = str(args.verify_workers)
    if args.chunk_timeout is not None:
        os.environ[CHUNK_TIMEOUT_ENV_VAR] = str(args.chunk_timeout)
    if args.chunk_retries is not None:
        os.environ[CHUNK_RETRIES_ENV_VAR] = str(args.chunk_retries)
    if args.search_workers is not None:
        os.environ[SEARCH_WORKERS_ENV_VAR] = str(args.search_workers)
    if args.resume:
        os.environ[RESUME_ENV_VAR] = "1"
    if args.no_batch:
        os.environ[BATCHED_ENV_VAR] = "0"


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_generator

    result = run_generator(
        args.gate_set,
        args.n,
        args.q,
        verbose=not args.json,
        use_disk_cache=not args.no_cache,
        workers=args.workers,
        verify_workers=args.verify_workers,
    )
    stats = result.stats
    if args.json:
        json.dump(stats.as_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(
            f"[generate] {args.gate_set} n={args.n} q={args.q}: "
            f"{stats.num_eccs} classes, {stats.num_transformations} "
            f"transformations, {stats.circuits_considered} circuits considered "
            f"in {stats.total_time:.2f}s"
        )
        warm = stats.perf.get("cache.warm_hit")
        if warm:
            print("[generate] served from the persistent cache")
    return 0


def _cmd_generator_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.table_generator_metrics import (
        format_table,
        run_generator_metrics,
    )

    rows = run_generator_metrics(args.gate_set, args.n, q_values=args.q)
    if args.json:
        json.dump([row.as_dict() for row in rows], sys.stdout, indent=2)
        print()
    else:
        print(format_table(rows))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.api import RunConfig, Superoptimizer
    from repro.benchmarks_suite import benchmark_circuit

    circuit = benchmark_circuit(args.circuit)
    # Only flags the user actually passed override the from_env snapshot
    # (the mapping form of with_overrides merges into the nested layer;
    # note _apply_shared_flags already exported the shared flags to the
    # environment before this snapshot, so either path agrees).
    generation_overrides = {"n": args.n, "q": args.q}
    if args.workers is not None:
        generation_overrides["workers"] = args.workers
    if args.verify_workers is not None:
        generation_overrides["verify_workers"] = args.verify_workers
    if args.cache_dir is not None:
        generation_overrides["cache_dir"] = args.cache_dir
    if args.no_cache:
        generation_overrides["cache_enabled"] = False
    if args.chunk_timeout is not None:
        generation_overrides["chunk_timeout"] = args.chunk_timeout
    if args.chunk_retries is not None:
        generation_overrides["chunk_retries"] = args.chunk_retries
    if args.resume:
        generation_overrides["resume"] = True
    search_overrides = {
        "strategy": args.strategy,
        "max_iterations": args.max_iterations,
        "timeout_seconds": args.timeout,
    }
    if args.search_workers is not None:
        search_overrides["search_workers"] = args.search_workers
    config = RunConfig.from_env().with_overrides(
        gate_set=args.gate_set,
        backend=args.backend,
        **({"batched": False} if args.no_batch else {}),
        generation=generation_overrides,
        search=search_overrides,
    )
    report = Superoptimizer(config).optimize(circuit)
    if args.json:
        payload = dict(report.to_json_dict(), circuit=args.circuit)
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"[optimize] {args.circuit} on {args.gate_set}:")
        print(report.summary())
    return 0 if report.verified is not False else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Forward to ``python -m repro.service`` (one server, same flags)."""
    from repro.service.__main__ import main as service_main

    forwarded = list(args.serve_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return service_main(forwarded)


def _cmd_registry(args: argparse.Namespace) -> int:
    """List the pluggable backends and strategies this build offers."""
    from repro.api import backend_available
    from repro.envconfig import env_batched
    from repro.optimizer.strategies import get_strategy
    from repro.semantics.backend import get_backend, registered_backends

    batched = env_batched()
    backends = {}
    for name in registered_backends():
        available = backend_available(name)
        entry = {"available": available}
        if available:
            backend = get_backend(name)
            # The batch path this backend would run with the active knob:
            # its kernel kind when batching is on, the per-state loop
            # otherwise — plus whether batching can change hash keys.
            entry["batch_kind"] = backend.batch_kind if batched else "per-state"
            entry["batch_bit_identical"] = backend.batch_bit_identical
        backends[name] = entry
    # Per-strategy worker support is a class attribute, so a default
    # instance answers it without running anything.
    strategies = {
        name: {"supports_workers": get_strategy(name).supports_workers}
        for name in available_strategies()
    }
    payload = {
        "backends": backends,
        "batched": batched,
        "strategies": strategies,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"batched fingerprinting: {'on' if batched else 'off'}")
        print("simulator backends:")
        for name, entry in sorted(backends.items()):
            if entry["available"]:
                detail = f"available  batch={entry['batch_kind']}"
                if batched and not entry["batch_bit_identical"]:
                    detail += " (own cache namespace)"
            else:
                detail = "unavailable"
            print(f"  {name:<14s} {detail}")
        print("search strategies:")
        for name, info in sorted(strategies.items()):
            detail = "workers: REPRO_SEARCH_WORKERS" if info["supports_workers"] else "serial"
            print(f"  {name:<24s} {detail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="run RepGen once (cache-aware)")
    _add_shared_flags(generate)
    generate.add_argument("--n", type=int, default=3, help="max gates per circuit")
    generate.add_argument("--q", type=int, default=3, help="number of qubits")
    generate.set_defaults(func=_cmd_generate)

    metrics = sub.add_parser(
        "generator-metrics", help="Table 5/8 generator metrics over a range of n"
    )
    _add_shared_flags(metrics)
    metrics.add_argument("--n", type=int, nargs="+", default=[1, 2, 3])
    metrics.add_argument("--q", type=int, nargs="+", default=[3])
    metrics.set_defaults(func=_cmd_generator_metrics)

    optimize = sub.add_parser(
        "optimize", help="preprocess + search on one benchmark (facade-backed)"
    )
    _add_shared_flags(optimize)
    optimize.add_argument("--circuit", default="tof_3")
    optimize.add_argument("--n", type=int, default=3)
    optimize.add_argument("--q", type=int, default=3)
    optimize.add_argument("--max-iterations", type=int, default=30)
    optimize.add_argument("--timeout", type=float, default=20.0)
    optimize.add_argument(
        "--strategy",
        default="backtracking",
        help=f"search strategy ({', '.join(available_strategies())})",
    )
    optimize.add_argument(
        "--backend",
        default="numpy",
        help="simulator backend (numpy; numba when installed)",
    )
    optimize.set_defaults(func=_cmd_optimize)

    registry = sub.add_parser(
        "registry", help="list available simulator backends and search strategies"
    )
    registry.add_argument("--json", action="store_true")
    registry.set_defaults(func=_cmd_registry)

    serve = sub.add_parser(
        "serve",
        help="run the optimization service (same as python -m repro.service)",
    )
    serve.add_argument(
        "serve_args",
        nargs=argparse.REMAINDER,
        help="flags forwarded to python -m repro.service (try: serve -- --help)",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "workers"):
        _apply_shared_flags(args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
