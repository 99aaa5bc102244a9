"""Library-side workload bodies, run in the workload process ``child.py``
starts (importing this module is the library import that process times).

Commands:

* ``ready``         — nothing beyond the import.
* ``populate``      — fills the run's cache with the Nam n=3 q=3 ECC set.
* ``generate-cold`` — cold RepGen -> simplify -> prune -> extract, then a
  store/load round trip through the run's cache, per configuration.
* ``search-warm``   — facade built from the populated cache, then
  ``optimize`` over the input set handed in as QASM text.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api import RunConfig, Superoptimizer, clear_memory_caches
from repro.generator import cache as ecc_cache
from repro.generator import pruning
from repro.generator.repgen import DEFAULT_SEED, RepGen
from repro.ir.gatesets import get_gate_set
from repro.ir.qasm import to_qasm
from repro.optimizer import xfer

import calib
import spans as tracing

#: (gate set, n, q) -> (circuits considered, ECCs, transformations after
#: pruning), recorded at the commit that defined this benchmark.  They did
#: not depend on the fingerprint seed in any run made to record them.
GENERATE_REFERENCE = {
    ("nam", 3, 3): (4783, 562, 178),
    ("rigetti", 2, 3): (606, 223, 52),
    ("nam", 4, 3): (38801, 2397, 1030),
}

#: Search budget every search-warm call runs at (no timeout: the budget is
#: iterations, so the final cost does not depend on machine speed).
SEARCH_ITERATIONS = 15

#: Facade builds timed for search-warm's setup_s (the median is reported).
#: Each starts from a collected heap, so whether a collection lands inside
#: a build does not depend on what the process did before.
SETUP_REPEATS = 25


def base_config(cache_dir: str) -> RunConfig:
    """The default configuration, every path-selecting field pinned."""
    return RunConfig(gate_set="nam", backend="numpy", batched=True).with_overrides(
        n=3, q=3, seed=DEFAULT_SEED, cache_dir=cache_dir, cache_enabled=True,
        workers=1, verify_workers=1, search_workers=1, resume=False,
        strategy="backtracking", max_iterations=SEARCH_ITERATIONS, timeout_seconds=None,
    )


def perf_ratio(perf: Dict[str, float], prefix: str) -> float:
    hits = perf.get(prefix + ".hits", 0)
    total = hits + perf.get(prefix + ".misses", 0)
    return hits / total if total else 0.0


def measure(op: Dict[str, Any], start: float, sampler: Optional[calib.Sampler]) -> None:
    """Set the op's wall ``seconds`` (without sampler pauses) and, when
    sampled, its ``nominal_s``."""
    end = time.perf_counter()
    if sampler is None:
        op["seconds"] = end - start
    else:
        op["seconds"], op["nominal_s"] = sampler.interval(start, end)


def finish_pass(ops: List[Dict[str, Any]], perf: Dict[str, float],
                tracer: Optional[tracing.Tracer], root: Optional[int]) -> Dict[str, Any]:
    if tracer:
        tracer.end(root)
    return {
        "seconds": sum(op["seconds"] for op in ops),
        "nominal_s": sum(op.get("nominal_s", 0.0) for op in ops),
        "ops": ops, "perf": perf,
    }


# -- generate-cold -------------------------------------------------------------


def generate_pass(seed: int, cache_dir: Path, tracer: Optional[tracing.Tracer],
                  sampler: Optional[calib.Sampler]) -> Dict[str, Any]:
    """One cold pass over every configuration; returns timings and checks."""
    clear_memory_caches()
    disk = ecc_cache.ECCCache(cache_dir, enabled=True)
    ops = []
    perf_totals: Dict[str, float] = {}
    root = tracer.begin("pass") if tracer else None
    for (gate_set_name, n, q), reference in GENERATE_REFERENCE.items():
        op_start = time.perf_counter()
        op: Dict[str, Any] = {"op": f"{gate_set_name}_n{n}q{q}", "ok": False}
        if tracer:
            tracer.op = op["op"]
        try:
            gate_set = get_gate_set(gate_set_name)
            generator = RepGen(
                gate_set, num_qubits=q, seed=seed, workers=1, verify_workers=1,
                backend="numpy", batched=True, resume=False,
            )
            result = generator.generate(n)
            pruned = pruning.prune_common_subcircuits(pruning.simplify_ecc_set(result.ecc_set))
            transformations = xfer.transformations_from_ecc_set(pruned)
            key = ecc_cache.cache_key("pruned", gate_set, n, q, generator.num_params, seed)
            disk.store_ecc_set(key, pruned)
            loaded = disk.load_ecc_set(key)
            stats = result.stats
            counts = (stats.circuits_considered, stats.num_eccs, len(transformations))
            op.update(
                counts=list(counts), reference=list(reference),
                round_trip=loaded is not None and loaded.to_json() == pruned.to_json(),
                resolved={"workers": generator.workers, "verify_workers": generator.verify_workers,
                          "backend": generator.backend_name, "batched": generator.batched,
                          "resume": generator.resume},
            )
            op["ok"] = counts == reference and op["round_trip"]
            for name, value in stats.perf.items():
                perf_totals[name] = perf_totals.get(name, 0) + value
            perf_totals["repgen.circuits_considered"] = perf_totals.get("repgen.circuits_considered", 0) + counts[0]
            perf_totals["repgen.eccs"] = perf_totals.get("repgen.eccs", 0) + counts[1]
            perf_totals["repgen.transformations"] = perf_totals.get("repgen.transformations", 0) + counts[2]
        except Exception as error:  # noqa: BLE001 — a failed op is counted, not fatal
            op["error"] = f"{type(error).__name__}: {error}"
        measure(op, op_start, sampler)
        ops.append(op)
    return finish_pass(ops, perf_totals, tracer, root)


def generate_layers(tracer: tracing.Tracer, perf: Dict[str, float]) -> Dict[str, float]:
    out = tracing.layer_times(tracer)
    calls = tracer.counts["verifier.verify.calls"]
    out.update({
        "repgen.circuits_considered": perf.get("repgen.circuits_considered", 0),
        "repgen.eccs": perf.get("repgen.eccs", 0),
        "repgen.transformations": perf.get("repgen.transformations", 0),
        "repgen.suffix_rejects": perf.get("repgen.suffix_rejects", 0),
        "fingerprint.evals": perf.get("fingerprint.evals", 0),
        "fingerprint.state_cache.hit_rate": perf_ratio(perf, "fingerprint.state_cache"),
        "verifier.calls": calls,
        "verifier.equivalent_ratio": tracer.counts["verifier.verify.equivalent"] / calls if calls else 0.0,
        "verifier.matrix_cache.hit_rate": perf_ratio(perf, "verifier.matrix_cache"),
        "verifier.instruction_cache.hit_rate": perf_ratio(perf, "verifier.instruction_cache"),
    })
    return out


# -- search-warm ----------------------------------------------------------------


def build_facade(config: RunConfig) -> Superoptimizer:
    """What search-warm's setup_s times: ECC load from the cache plus extract."""
    clear_memory_caches()
    facade = Superoptimizer(config)
    facade.transformations()
    return facade


def search_pass(facade: Superoptimizer, inputs: List[List[str]], tracer: Optional[tracing.Tracer],
                sampler: Optional[calib.Sampler]) -> Dict[str, Any]:
    ops = []
    perf_totals: Dict[str, float] = {}
    root = tracer.begin("pass") if tracer else None
    for name, qasm in inputs:
        if tracer:
            tracer.op = name
        op: Dict[str, Any] = {"op": name, "ok": False}
        op_start = time.perf_counter()
        try:
            report = facade.optimize(qasm)
            measure(op, op_start, sampler)
            result = report.search_result
            op.update(
                initial_cost=report.initial_cost, final_cost=report.final_cost,
                iterations=result.iterations, circuits_explored=result.circuits_explored,
                verified=report.verified, output_qasm=to_qasm(report.circuit),
                num_qubits=report.input_circuit.num_qubits,
            )
            op["ok"] = report.verified is True
            for key, value in report.perf.items():
                perf_totals[key] = perf_totals.get(key, 0) + value
            perf_totals["search.iterations"] = perf_totals.get("search.iterations", 0) + result.iterations
            perf_totals["search.circuits_explored"] = (
                perf_totals.get("search.circuits_explored", 0) + result.circuits_explored
            )
        except Exception as error:  # noqa: BLE001 — a failed op is counted, not fatal
            measure(op, op_start, sampler)
            op["error"] = f"{type(error).__name__}: {error}"
        ops.append(op)
    return finish_pass(ops, perf_totals, tracer, root)


def search_layers(tracer: tracing.Tracer, perf: Dict[str, float]) -> Dict[str, float]:
    out = tracing.layer_times(tracer)
    built = tracer.counts["dag.splice.built"]
    explored = perf.get("search.circuits_explored", 0)
    out.update({
        name: perf.get(name, 0)
        for name in ("search.iterations", "search.circuits_explored", "search.transformations_matched",
                     "search.transformations_skipped", "search.seen_rejects", "search.cost_rejects")
    })
    out["matcher.match_cache.hit_rate"] = perf_ratio(perf, "matcher.match_cache")
    out["search.successor_yield"] = explored / built if built else 0.0
    return out


# -- driver -------------------------------------------------------------------


def run_passes(run_one, seconds: float, trace: bool, min_untraced: int):
    """Sampled, untraced passes until the budget is spent (at least
    ``min_untraced``), then, in a traced run, exactly one traced pass with
    the sampler off (its pauses would land inside layer spans)."""
    passes = []
    started = time.perf_counter()
    with calib.Sampler() as sampler:
        while True:
            gc.collect()
            passes.append(run_one(None, sampler))
            elapsed = time.perf_counter() - started
            mean = elapsed / len(passes)
            reserve = mean * 1.3 if trace else 0.0
            if len(passes) >= min_untraced and elapsed + mean + reserve > seconds:
                break
    traced = None
    if trace:
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)
        gc.collect()
        try:
            traced = run_one(tracer, None)
        finally:
            tracing.restore(undo)
        traced["tracer"] = tracer
        # The traced pass runs unsampled; it takes the median speed of the
        # sampled passes just before it.
        speed = statistics.median(reading[2] for reading in sampler.readings)
        traced["nominal_s"] = traced["seconds"] * speed
        traced["overhead_s"] = traced["nominal_s"] - statistics.median(p["nominal_s"] for p in passes)
    return passes, traced, [reading[2] for reading in sampler.readings]


def main(args: argparse.Namespace, out: Dict[str, Any]) -> None:
    """Run ``args.command``, adding its results to ``out``."""
    work = Path(args.work_dir)

    if args.command == "populate":
        build_facade(base_config(str(work / "cache" / "ecc")))
    elif args.command == "generate-cold":
        pass_index = itertools.count()
        # Process start is too short for readings of its own; it takes the
        # readings of the passes that follow it.
        passes, traced, out["setup_speeds"] = run_passes(
            lambda tracer, sampler: generate_pass(
                args.seed, work / "cache" / f"gen-{next(pass_index)}", tracer, sampler),
            args.seconds, bool(args.trace), min_untraced=1 if args.trace else 2,
        )
        out["config"] = base_config(str(work / "cache")).with_overrides(seed=args.seed).as_dict()
        out["passes"] = passes
        if traced:
            tracer = traced.pop("tracer")
            out["traced_pass"] = traced
            out["layers"] = generate_layers(tracer, traced["perf"])
            out["layers"]["trace.overhead_s"] = traced["overhead_s"]
            out["span_files"] = tracer.write(work, "generate-cold", tracer.spans[0][1])
    elif args.command == "search-warm":
        config = base_config(str(work / "cache" / "ecc"))
        inputs = json.loads(Path(args.inputs).read_text())
        build_facade(config)  # populate the cache (cold generation, not timed)
        builds = []
        with calib.Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                build: Dict[str, Any] = {}
                gc.collect()
                start = time.perf_counter()
                facade = build_facade(config)
                measure(build, start, sampler)
                builds.append(build)
        out["setup_wall_samples"] = [build["seconds"] for build in builds]
        out["setup_speeds"] = [reading[2] for reading in sampler.readings]
        out["config"] = facade.config.as_dict()
        passes, traced, _speeds = run_passes(
            lambda tracer, sampler: search_pass(facade, inputs, tracer, sampler),
            args.seconds, bool(args.trace), min_untraced=1,
        )
        out["passes"] = passes
        if traced:
            tracer = traced.pop("tracer")
            # One traced facade build gives the cache and extract layers.
            undo = tracing.instrument(tracer)
            try:
                tracer.op = "setup"
                root = tracer.begin("setup")
                build_facade(config)
                tracer.end(root)
            finally:
                tracing.restore(undo)
            out["traced_pass"] = traced
            out["layers"] = search_layers(tracer, traced["perf"])
            out["layers"]["trace.overhead_s"] = traced["overhead_s"]
            out["span_files"] = tracer.write(work, "search-warm", tracer.spans[0][1])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
