#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 30 --trace 0

Workloads (their reasons are in ``BENCHMARK.json`` and ``perfbench/map.json``):

* ``generate-cold`` — cold RepGen -> simplify -> prune -> extract for Nam
  (n=3, q=3), Rigetti (n=2, q=3) and Nam (n=4, q=3), with a store/load round
  trip through the run's own ECC cache.  The seed is the fingerprint seed.
* ``search-warm``   — ``Superoptimizer.optimize`` at a fixed 15-iteration
  budget over the four Table-2 rows plus seeded random reversible circuits.
* ``serve-closed``  — a fresh ``python -m repro.service`` driven by two
  closed-loop HTTP clients with a seeded stream of small circuits.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` additionally
runs one pass under benchmark-side spans and reports the per-layer metrics.
Timings are medians of repeated passes (serve-closed: seconds per 10
completed requests over the whole serving loop) in nominal seconds: wall
seconds scaled by the host speed that ``calib.py`` reads while they run,
because the shared hosts this runs on change speed by up to half over
minutes.  Raw wall seconds are recorded too.
Every output is checked: generation counts against recorded references,
optimized circuits against their inputs with this directory's own
statevector simulator.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record (host,
configuration, per-circuit rows, span files) goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import ctypes
import http.client
import importlib.util
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("generate-cold", "search-warm", "serve-closed")
#: Hard cap on one run, below the 180 s a run may take.
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import inputs  # noqa: E402
import qsim  # noqa: E402
import spans  # noqa: E402

#: search-warm Table-2 rows may not end above these gate counts at the fixed
#: budget (the quick-scale reductions 35->35, 42->40, 68->61, 89->85).
TABLE2_FINAL_COST = {"tof_3": 35, "barenco_tof_3": 40, "mod5_4": 61, "vbe_adder_3": 85}

#: Import-only process starts timed for generate-cold's setup_s, besides the
#: workload process itself.
READY_REPEATS = 4
#: Server boots timed for serve-closed's setup_s; the last one serves.
SERVER_BOOTS = 5
CLIENTS = 2
#: serve-closed's work_s is the serving loop's time per this many
#: completed requests (BLOCK / throughput).
BLOCK = 10
REQUEST_CONFIG = {"max_iterations": 5, "timeout_seconds": None}


class BenchError(RuntimeError):
    """The benchmark could not run at all (no result is printed)."""


def _die_with_parent() -> None:
    """Child processes get SIGTERM if this process dies (Linux prctl)."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def hermetic_env(work: Path) -> Dict[str, str]:
    """The caller's environment with every ``REPRO_*`` knob removed, the
    sources on the path and this run's own cache directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(work / "cache" / "ecc")
    return env


def host_record(seed: int) -> Dict[str, Any]:
    import numpy

    def git_commit() -> Optional[str]:
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return None

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "torch_importable": importlib.util.find_spec("torch") is not None,
        "git_commit": git_commit(),
        "seed": seed,
    }


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -int(-len(ordered) * q // 1)))
    return ordered[rank - 1]


# -- processes ------------------------------------------------------------------


class Processes:
    """Every process this run starts; :meth:`stop_all` ends and reaps them."""

    def __init__(self) -> None:
        self.live: List[subprocess.Popen] = []

    def start(self, args: List[str], env: Dict[str, str], log: Path) -> subprocess.Popen:
        with log.open("wb") as handle:
            proc = subprocess.Popen(
                args, env=env, cwd=str(ROOT), stdout=handle, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent,
            )
        self.live.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()


def run_child(procs: Processes, env: Dict[str, str], work: Path, command: str, *extra: str,
              timeout: float) -> Tuple[float, Dict[str, Any]]:
    """Run ``child.py <command>``; returns the seconds from spawn to the
    child's imports done and the child's JSON."""
    out = work / f"{command}.json"
    log = work / f"{command}.log"
    spawned = time.monotonic()
    proc = procs.start(
        [sys.executable, str(HERE / "child.py"), command, "--out", str(out), "--work-dir", str(work), *extra],
        env, log,
    )
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {command} exceeded {timeout:.0f}s") from None
    if code != 0:
        raise BenchError(f"child {command} exited {code}: {log.read_text()[-2000:]}")
    data = json.loads(out.read_text())
    return data["ready_monotonic"] - spawned, data


# -- library workloads ------------------------------------------------------------


def generate_cold(args, work: Path, env: Dict[str, str], procs: Processes, deadline: float) -> Dict[str, Any]:
    setup = [run_child(procs, env, work, "ready", timeout=deadline - time.monotonic())[0]
             for _ in range(READY_REPEATS)]
    ready, data = run_child(
        procs, env, work, "generate-cold", "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), timeout=deadline - time.monotonic(),
    )
    setup.append(ready)
    passes = data["passes"] + ([data["traced_pass"]] if "traced_pass" in data else [])
    ops = [op for p in passes for op in p["ops"]]
    failures = [
        f"{op['op']}: " + (op.get("error") or f"counts {op.get('counts')} round trip {op.get('round_trip')}")
        for op in ops if not op["ok"]
    ]
    return {
        "setup_wall_samples": setup,
        "setup_speeds": data["setup_speeds"],
        "work_samples": [p["nominal_s"] for p in data["passes"]],
        "wall_samples": [p["seconds"] for p in data["passes"]],
        "peak_rss_mb": data["peak_rss_mb"],
        "attempted": len(ops), "failures": failures,
        "config": data["config"], "ops": passes[0]["ops"], "data": data,
        "report": {"generate_s_passes": [p["seconds"] for p in data["passes"]]},
    }


def search_warm(args, work: Path, env: Dict[str, str], procs: Processes, deadline: float) -> Dict[str, Any]:
    rows = inputs.search_inputs(args.seed)
    source = dict(rows)
    (work / "inputs.json").write_text(json.dumps(rows))
    _ready, data = run_child(
        procs, env, work, "search-warm", "--inputs", str(work / "inputs.json"), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), timeout=deadline - time.monotonic(),
    )
    passes = data["passes"] + ([data["traced_pass"]] if "traced_pass" in data else [])
    first = {op["op"]: op for op in passes[0]["ops"]}
    verdicts: Dict[Tuple[str, str], bool] = {}
    failures = []
    for op in (op for p in passes for op in p["ops"]):
        name = op["op"]
        if not op["ok"]:
            failures.append(f"{name}: {op.get('error') or 'verified=' + str(op.get('verified'))}")
            continue
        pair = (source[name], op["output_qasm"])
        if pair not in verdicts:
            verdicts[pair] = qsim.equivalent(*pair, seed=args.seed)
        if not verdicts[pair]:
            failures.append(f"{name}: independent check disagrees")
        elif op["final_cost"] > TABLE2_FINAL_COST.get(name, float("inf")):
            failures.append(f"{name}: final cost {op['final_cost']} above {TABLE2_FINAL_COST[name]}")
        elif op["final_cost"] != first[name].get("final_cost"):
            failures.append(f"{name}: final cost differs between passes")
    circuits = [
        {k: op.get(k) for k in ("op", "num_qubits", "initial_cost", "final_cost", "iterations",
                                "circuits_explored", "seconds", "verified")}
        for op in passes[0]["ops"]
    ]
    return {
        "setup_wall_samples": data["setup_wall_samples"],
        "setup_speeds": data["setup_speeds"],
        "work_samples": [p["nominal_s"] for p in data["passes"]],
        "wall_samples": [p["seconds"] for p in data["passes"]],
        "peak_rss_mb": data["peak_rss_mb"],
        "attempted": sum(len(p["ops"]) for p in passes), "failures": failures,
        "config": data["config"], "ops": circuits, "data": data,
        "report": {
            "optimize_s_passes": [p["seconds"] for p in data["passes"]],
            "final_cost_total": sum(row["final_cost"] or 0 for row in circuits),
        },
    }


# -- serve-closed -------------------------------------------------------------------


def http_json(port: int, method: str, path: str, body: Optional[dict] = None,
              timeout: float = 60.0) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload, {"Content-Type": "application/json"} if payload else {})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def optimize_request(port: int, qasm: str) -> Tuple[int, Dict[str, Any]]:
    """POST one circuit and long-poll until the job is terminal."""
    status, record = http_json(port, "POST", "/v1/optimize", {"qasm": qasm, "config": REQUEST_CONFIG})
    while status == 200 and record.get("status") not in ("completed", "failed"):
        status, record = http_json(port, "GET", f"/v1/jobs/{record['id']}?wait=30")
    return status, record


class Server:
    """One ``python -m repro.service`` process on an ephemeral port."""

    def __init__(self, procs: Processes, env: Dict[str, str], log: Path) -> None:
        self.log = log
        self.proc = procs.start(
            [sys.executable, "-m", "repro.service", "--port", "0", "--service-workers", "1",
             "--gate-set", "nam", "--n", "3", "--q", "3", "--backend", "numpy",
             "--strategy", "backtracking"],
            env, log,
        )
        self.port = 0

    def wait_ready(self, deadline: float) -> None:
        while not self.port:
            match = re.search(r"listening on http://[^:]+:(\d+)", self.log.read_text())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"server did not start: {self.log.read_text()[-2000:]}")
            else:
                time.sleep(0.01)
        while True:
            try:
                if http_json(self.port, "GET", "/v1/healthz", timeout=5)[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("server never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> bool:
        """SIGTERM, then require a clean drain (exit 0 and the drain log)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        return code == 0 and "repro.service stopped" in self.log.read_text()


def boot(procs: Processes, env: Dict[str, str], work: Path, index: int,
         deadline: float) -> Tuple[Server, float]:
    """Boot a server and complete one warm-up request; returns the server
    and its seconds to ready."""
    start = time.perf_counter()
    server = Server(procs, env, work / f"server-{index}.log")
    server.wait_ready(deadline)
    status, record = optimize_request(server.port, inputs.WARMUP_QASM)
    if status != 200 or record.get("status") != "completed":
        raise BenchError(f"warm-up request failed: {status} {record}")
    return server, time.perf_counter() - start


def closed_loop(port: int, stream: List[str], seconds: float) -> Tuple[List[Dict[str, Any]], float, float]:
    """CLIENTS threads each send their next request only after the previous
    one completed, until ``seconds`` have passed since the start."""
    results: List[Dict[str, Any]] = []
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    start = time.perf_counter()
    stop_at = start + seconds

    def client(lane: int) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sent = time.perf_counter()
            entry: Dict[str, Any] = {"index": index, "lane": lane, "sent": sent}
            try:
                entry["status"], entry["record"] = optimize_request(port, stream[index])
            except (OSError, http.client.HTTPException, ValueError) as error:
                entry["status"], entry["error"] = 0, f"{type(error).__name__}: {error}"
            entry["done"] = time.perf_counter()
            with lock:
                results.append(entry)

    threads = [threading.Thread(target=client, args=(lane,)) for lane in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=RUN_DEADLINE_S)
    if any(thread.is_alive() for thread in threads):
        raise BenchError("client threads did not finish")
    return results, start, time.perf_counter()


def request_phases(record: Dict[str, Any], latency: float) -> Dict[str, float]:
    """The job phases of one request, latest first, from the job's events.

    Each is clipped to the part of the latency still unassigned (a
    deduplicated request may join a job late); what remains of the latency
    is HTTP and polling time.
    """
    at = {event["status"]: event["seconds"] for event in record.get("events", [])}
    end = at.get("completed", at.get("failed", 0.0))
    running = at.get("running", end)
    verifying = at.get("verifying", end)
    phases = {
        "service.verify_wait": end - verifying,
        "service.execute": verifying - running,
        "service.queue_wait": running - at.get("queued", running),
    }
    remaining = latency
    for name, value in phases.items():
        phases[name] = min(max(value, 0.0), remaining)
        remaining -= phases[name]
    return phases


def serve_closed(args, work: Path, env: Dict[str, str], procs: Processes, deadline: float) -> Dict[str, Any]:
    stream = inputs.request_stream(args.seed, length=2000)
    run_child(procs, env, work, "populate", timeout=deadline - time.monotonic())
    setup: List[float] = []
    failures: List[str] = []
    server: Optional[Server] = None
    for index in range(SERVER_BOOTS):
        if server is not None and not server.stop():
            failures.append(f"server boot {index - 1}: unclean drain")
        server, ready = boot(procs, env, work, index, deadline)
        setup.append(ready)
    # The sampler's readings pause this process, not the server; they give
    # the host speed while the server works on the other core.
    with calib.Sampler() as sampler:
        results, start, end = closed_loop(server.port, stream, args.seconds)
    _status, stats = http_json(server.port, "GET", "/v1/stats")
    peak_rss = server.peak_rss_mb()
    if not server.stop():
        failures.append("serving server: unclean drain")

    verdicts: Dict[Tuple[str, str], bool] = {}
    completed = []
    for entry in results:
        record = entry.get("record", {})
        result = record.get("result") or {}
        name = f"request {entry['index']}"
        if entry["status"] != 200 or record.get("status") != "completed":
            failures.append(f"{name}: HTTP {entry['status']} {entry.get('error') or record.get('error')}")
            continue
        if result.get("verified") is not True:
            failures.append(f"{name}: verified={result.get('verified')}")
            continue
        pair = (stream[entry["index"]], result["optimized_qasm"])
        if pair not in verdicts:
            verdicts[pair] = qsim.equivalent(*pair, seed=args.seed)
        if not verdicts[pair]:
            failures.append(f"{name}: independent check disagrees")
            continue
        completed.append(entry)

    if not results:
        raise BenchError(f"no request completed in {args.seconds}s")
    per_block = BLOCK / len(results)
    latencies = [entry["done"] - entry["sent"] for entry in results]
    distinct = {entry["index"]: entry for entry in completed if not entry["record"].get("cached")}
    provenance = next((e["record"]["report"].get("provenance") for e in distinct.values()), None)
    out = {
        "setup_wall_samples": setup,
        # Readings beside a booting server are erratic; the boots take the
        # readings of the serving loop that follows them.
        "setup_speeds": [reading[2] for reading in sampler.readings],
        "work_samples": [(end - start) * sampler.mean_speed(start, end) * per_block],
        "wall_samples": [(end - start) * per_block],
        "peak_rss_mb": peak_rss,
        "attempted": len(results), "failures": failures,
        "config": {"server_args": server.proc.args[1:], "request_config": REQUEST_CONFIG,
                   "clients": CLIENTS, "resolved": provenance},
        "ops": [],
        "report": {
            "requests": len(results),
            "latency_p50_s": nearest_rank(latencies, 0.5),
            "latency_p90_s": nearest_rank(latencies, 0.9),
            "latency_samples": len(latencies),
            "throughput_rps": len(results) / (end - start),
            "memo_hits": stats.get("service.cache.hits"),
            "dedupe_hits": stats.get("service.dedupe.hits"),
            "final_cost_mean": statistics.mean(
                e["record"]["result"]["final_cost"] for e in distinct.values()) if distinct else None,
        },
        "stats": stats,
    }
    if args.trace:
        trace_start = time.perf_counter()
        tracer = spans.Tracer()
        for lane in range(CLIENTS):
            root = tracer.add("client", start, end, -1, f"client{lane}", lane)
            for entry in (e for e in results if e["lane"] == lane):
                latency = entry["done"] - entry["sent"]
                request = tracer.add("service.request", entry["sent"], entry["done"], root,
                                     f"request{entry['index']}", lane)
                cursor = entry["done"]
                for name, seconds in request_phases(entry.get("record", {}), latency).items():
                    tracer.add(name, cursor - seconds, cursor, request, f"request{entry['index']}", lane)
                    cursor -= seconds
        layers = {k: v / CLIENTS for k, v in spans.layer_times(tracer).items()}
        flushes = stats.get("service.batch.flushes", 0)
        gate_calls = stats.get("service.batch.gate_calls", 0)
        layers.update({
            "service.requests": len(results),
            "service.cache.hit_ratio": stats.get("service.cache.hits", 0) / max(stats.get("service.jobs.submitted", 0), 1),
            "service.dedupe.hits": stats.get("service.dedupe.hits", 0),
            "service.batch.occupancy": stats.get("service.batch.pairs", 0) / flushes if flushes else 0.0,
            "service.batch.shared_gate_ratio": stats.get("service.batch.shared_gate_calls", 0) / gate_calls if gate_calls else 0.0,
            "service.queue.rejected": stats.get("service.queue.rejected", 0),
        })
        out["span_files"] = tracer.write(work, "serve-closed", start)
        layers["trace.overhead_s"] = time.perf_counter() - trace_start
        out["layers"] = layers
    return out


# -- driver ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    manifest_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not manifest_path.is_file():
        print(f"perfbench: run from the repository root ({ROOT} has no src/repro or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())

    runs = ROOT / ".perfbench_runs"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = runs / f"{stem}-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = hermetic_env(work)
    procs = Processes()
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    body = {"generate-cold": generate_cold, "search-warm": search_warm, "serve-closed": serve_closed}
    try:
        outcome = body[args.workload](args, work, env, procs, deadline)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        procs.stop_all()
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work / "cache", ignore_errors=True)

    values = {
        "setup_s": statistics.median(outcome["setup_wall_samples"]) * statistics.median(outcome["setup_speeds"]),
        "work_s": statistics.median(outcome["work_samples"]),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    if args.trace:
        layers = outcome.get("layers") or outcome["data"]["layers"]
        wanted = manifest["per_layer"]
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    else:
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in manifest["end_to_end"]}
    failed = len(outcome["failures"])
    attempted = max(outcome["attempted"], 1)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "host": host_record(args.seed), "config": outcome["config"],
        "setup_wall_samples": outcome["setup_wall_samples"], "setup_speeds": outcome["setup_speeds"],
        "work_samples": outcome["work_samples"], "wall_samples": outcome["wall_samples"],
        "failures": outcome["failures"], "ops": outcome["ops"], "report": outcome["report"],
        "span_files": outcome.get("span_files") or outcome.get("data", {}).get("span_files"),
        "metrics": metrics,
    }
    if "stats" in outcome:
        record["service_stats"] = outcome["stats"]
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for failure in outcome["failures"][:20]:
        print(f"  FAILED {failure}")
    for name, value in outcome["report"].items():
        print(f"  {name} {value}")
    for row in outcome["ops"]:
        print("  " + " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(f"  record {runs / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
