#!/usr/bin/env python
"""Assert that serial and multi-worker search find the byte-identical circuit.

The determinism guarantee of ``parallel-backtracking`` (see
:mod:`repro.optimizer.search`) is that the best circuit does not depend
on the worker count: ``workers=1`` runs the identical wave algorithm
in-process, and any ``workers=N`` run must return the byte-identical best
circuit at the equal best cost.  This script runs the serial reference
once and then each requested worker count, failing loudly on the first
divergence.

Invoked by the ``search`` CI leg (plain at 2 and 4 workers, then under a
``REPRO_FAULTS`` kill/delay plan exercising the ``search`` fault site) and
smoke-tested in-process by ``tests/test_scripts.py``::

    PYTHONPATH=src python scripts/check_search_identity.py \
        --n 2 --q 2 --workers 2 4 --artifact serial_best.json

    REPRO_FAULTS=kill_worker:search:round1 REPRO_CHUNK_TIMEOUT=2 \
    PYTHONPATH=src python scripts/check_search_identity.py \
        --n 2 --q 2 --workers 2 --expect-faults

The serial reference always runs with fault injection disabled, while each
parallel run re-arms the ``REPRO_FAULTS`` plan from scratch; with
``--expect-faults`` the script additionally fails if no fault actually
fired in any parallel run — guarding the chaos coverage against becoming
vacuous when an injection point moves.  The ``resilience.*`` recovery and
``parallel.search.*`` pool counters of each parallel run are printed
either way.

Exit codes: 0 identity holds, 1 divergence, 2 usage error, 3 vacuous
fault plan under ``--expect-faults``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple


def circuit_bytes(circuit) -> str:
    """The circuit's stable serialized form (canonical angle payloads)."""
    from repro.generator.ecc import circuit_to_payload

    return json.dumps(circuit_to_payload(circuit), sort_keys=True)


def run_search(
    args: argparse.Namespace, transformations, circuit, workers: int
) -> Tuple[str, float, Dict[str, float]]:
    from repro.optimizer.strategies import get_strategy

    strategy = get_strategy(args.strategy, workers=workers)
    result = strategy.run(
        circuit,
        transformations,
        timeout_seconds=args.timeout,
        max_iterations=args.max_iterations,
    )
    return circuit_bytes(result.circuit), result.final_cost, dict(result.perf)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python scripts/check_search_identity.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--gate-set", default="nam", help="gate set name (default nam)")
    parser.add_argument("--n", type=int, default=2, help="ECC max gates per circuit")
    parser.add_argument("--q", type=int, default=2, help="ECC number of qubits")
    parser.add_argument(
        "--circuit", default="tof_3", help="benchmark circuit to optimize"
    )
    parser.add_argument(
        "--strategy",
        default="parallel-backtracking",
        choices=("parallel-backtracking",),
        help="worker-capable strategy to check (default parallel-backtracking)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[2, 4],
        help="worker counts to diff against the serial reference (default: 2 4)",
    )
    parser.add_argument(
        "--max-iterations", type=int, default=30, help="search iteration budget"
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="search deadline in seconds"
    )
    parser.add_argument(
        "--artifact",
        default=None,
        help="also write the serial best-circuit JSON to this path (diff evidence)",
    )
    parser.add_argument(
        "--expect-faults",
        action="store_true",
        help=(
            "fail unless at least one REPRO_FAULTS entry actually fired in "
            "a parallel run (chaos-leg vacuity guard)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    worker_counts = [count for count in args.workers if count > 1]
    if not worker_counts:
        print("nothing to compare: pass --workers with counts > 1", file=sys.stderr)
        return 2

    from repro import faults
    from repro.benchmarks_suite import benchmark_circuit
    from repro.experiments.runner import build_transformations
    from repro.preprocess import SUPPORTED_GATE_SETS, preprocess

    # Preprocess into the target gate set (when supported) so the search
    # runs over circuits the transformations actually match — a raw ccx
    # benchmark would make the identity comparison trivially vacuous.
    circuit = benchmark_circuit(args.circuit)
    if args.gate_set in SUPPORTED_GATE_SETS:
        circuit = preprocess(circuit, args.gate_set)
    transformations = build_transformations(args.gate_set, args.n, args.q)
    print(
        f"search identity: {args.strategy} on {args.circuit} "
        f"({circuit.gate_count} gates after preprocess; "
        f"{args.gate_set} n={args.n} q={args.q}, "
        f"{len(transformations)} transformations)"
    )

    # The serial run is the reference: it must never see injected faults,
    # even when REPRO_FAULTS is set for the parallel runs.
    faults.set_fault_plan(None)
    serial_bytes, serial_cost, _ = run_search(args, transformations, circuit, 1)
    if args.artifact:
        Path(args.artifact).write_text(serial_bytes, encoding="utf-8")
    print(f"serial reference: best cost {serial_cost} ({len(serial_bytes)} bytes)")

    any_fault_fired = False
    for workers in worker_counts:
        # Each worker count re-arms the full REPRO_FAULTS plan from scratch
        # so e.g. a round1 kill fires in every parallel run, not just the
        # first one.
        faults.reset_fault_plan()
        plan = faults.active_plan()
        if plan is not None:
            print(f"fault plan ({workers} workers): {plan.spec_string()}")
        parallel_bytes, parallel_cost, perf = run_search(
            args, transformations, circuit, workers
        )
        pool_counters = {
            key: value
            for key, value in perf.items()
            if key.startswith(("resilience.", "parallel.search."))
        }
        for key in sorted(pool_counters):
            print(f"  {key} = {pool_counters[key]}")
        if pool_counters.get("resilience.faults_injected"):
            any_fault_fired = True

        label = f"workers={workers} ({args.strategy} on {args.circuit})"
        if parallel_cost != serial_cost:
            print(
                f"MISMATCH: {label} best cost {parallel_cost} differs from "
                f"serial {serial_cost}",
                file=sys.stderr,
            )
            return 1
        if parallel_bytes != serial_bytes:
            print(
                f"MISMATCH: {label} best circuit diverged from the serial "
                f"reference ({len(parallel_bytes)} vs {len(serial_bytes)} bytes)",
                file=sys.stderr,
            )
            return 1
        print(f"serial vs {label} best circuit byte-identical at cost {serial_cost}")

    if args.expect_faults and not any_fault_fired:
        print(
            "VACUOUS: --expect-faults was given but no fault fired "
            "(check REPRO_FAULTS and the search injection points)",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
