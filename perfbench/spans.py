"""Benchmark-side spans around the library's public layer entry points.

The library under test is not edited: :func:`instrument` replaces chosen
functions and methods with wrappers that record a span per call, and
:func:`restore` puts the originals back.  Spans live in memory and are
written out at the end as JSON lines and as Chrome trace-event JSON (which
Perfetto opens); both use the stdlib only.

A layer's self time is the sum, over its spans, of each span's duration
minus the part its child spans cover, so the self times of every layer plus
the root spans' own self time (``unaccounted_s``) add up to the traced wall
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (module, attribute path, span name).  An attribute path with a dot is a
#: method on a class of that module.  Module-level functions are patched in
#: the module that *calls* them (the facade imports them by name).
LIBRARY_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.generator.repgen", "RepGen.generate", "repgen.generate"),
    ("repro.semantics.fingerprint", "FingerprintContext.hash_keys_batched", "fingerprint.hash"),
    ("repro.semantics.fingerprint", "FingerprintContext.hash_key_appended", "fingerprint.hash"),
    ("repro.semantics.fingerprint", "FingerprintContext.hash_key", "fingerprint.hash"),
    ("repro.verifier.equivalence", "EquivalenceVerifier.verify", "verifier.verify"),
    ("repro.generator.pruning", "simplify_ecc_set", "pruning.simplify"),
    ("repro.generator.pruning", "prune_common_subcircuits", "pruning.prune"),
    ("repro.optimizer.xfer", "transformations_from_ecc_set", "xfer.extract"),
    ("repro.generator.cache", "ECCCache.store_ecc_set", "cache.store"),
    ("repro.generator.cache", "ECCCache.load_ecc_set", "cache.load"),
    ("repro.api.facade", "Superoptimizer.optimize", "facade.optimize"),
    ("repro.api.facade", "parse_qasm", "qasm.parse"),
    ("repro.api.facade", "run_preprocess", "preprocess.run"),
    ("repro.api.facade", "simplify_ecc_set", "pruning.simplify"),
    ("repro.api.facade", "prune_common_subcircuits", "pruning.prune"),
    ("repro.api.facade", "transformations_from_ecc_set", "xfer.extract"),
    ("repro.api.facade", "circuits_equivalent_statevector_batched", "verify_output"),
    ("repro.optimizer.strategies", "BacktrackingStrategy.run", "search.run"),
    ("repro.optimizer.matcher", "PatternMatcher.__init__", "matcher.build"),
    ("repro.optimizer.matcher", "PatternMatcher.find_matches", "matcher.find"),
    ("repro.optimizer.matcher", "PatternMatcher.apply", "dag.splice"),
    ("repro.ir.circuit", "Circuit.canonical_key", "circuit.canonical_key"),
    ("repro.optimizer.cost", "GateCountCost.cost", "cost.cost"),
)


#: Spans the serve-closed client rebuilds from each job's public event list.
SERVICE_LAYERS = ("service.request", "service.queue_wait", "service.execute", "service.verify_wait")

#: Span names whose self time is reported under another metric name: the
#: remainder of an enclosing layer once its instrumented callees are removed.
SELF_METRIC = {
    "repgen.generate": "repgen.enumerate_insert_self_s",
    "search.run": "search.queue_self_s",
    "facade.optimize": "facade.overhead_s",
    "service.request": "service.http_s",
}

#: Enclosing layers whose inclusive time is reported as well.
INCLUSIVE_METRIC = {"repgen.generate": "repgen.generate_s", "search.run": "search.run_s"}


def layer_times(tracer: "Tracer") -> Dict[str, float]:
    """Self seconds of every library layer (0 where the workload never
    entered it), ``unaccounted_s`` (the root spans' own time) and
    ``trace.wall_s`` (the root spans' total); the self times plus
    ``unaccounted_s`` add up to ``trace.wall_s``."""
    selfs = tracer.self_seconds()
    out: Dict[str, float] = {}
    names = [span for _module, _path, span in LIBRARY_LAYERS] + list(SERVICE_LAYERS)
    for name in dict.fromkeys(names):
        out[SELF_METRIC.get(name, name + "_s")] = selfs.pop(name, 0.0)
    for name, metric in INCLUSIVE_METRIC.items():
        out[metric] = tracer.total_seconds(name)
    out["unaccounted_s"] = sum(selfs.values())
    out["trace.wall_s"] = tracer.root_seconds()
    return out


class Tracer:
    """In-memory span recorder for one thread of work.

    Each span is ``[name, start, end, parent, op, children_seconds, lane]``
    where ``op`` names the request or circuit the span served and ``lane``
    is the client (thread track) it ran on.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: str = ""
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0, 0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def add(self, name: str, start: float, end: float, parent: int, op: str, lane: int = 0) -> int:
        """Record a finished span (used for spans rebuilt from event logs)."""
        self.spans.append([name, start, end, parent, op, 0.0, lane])
        if parent >= 0:
            self.spans[parent][5] += end - start
        return len(self.spans) - 1

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name (roots included)."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, children, _lane in self.spans:
            totals[name] += (end - start) - children
        return dict(totals)

    def total_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, *_ in self.spans if n == name)

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, *_ in self.spans if parent < 0)

    # -- export --------------------------------------------------------------

    def write(self, directory: Path, stem: str, origin: float) -> List[str]:
        """Write ``<stem>.spans.jsonl`` and ``<stem>.chrome.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        jsonl = directory / f"{stem}.spans.jsonl"
        chrome = directory / f"{stem}.chrome.json"
        with jsonl.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, children, lane) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "op": op, "lane": lane,
                    "start_s": start - origin, "end_s": end - origin,
                    "self_s": (end - start) - children,
                }) + "\n")
        events = []
        for name, start, end, _parent, op, _children, lane in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": lane,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op},
            })
        chrome.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}), encoding="utf-8")
        return [str(jsonl), str(chrome)]


def _wrap(func: Callable, name: str, tracer: Tracer) -> Callable:
    counts = tracer.counts

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(index)
        counts[name + ".calls"] += 1
        if name == "verifier.verify" and result.equivalent:
            counts["verifier.verify.equivalent"] += 1
        elif name == "dag.splice" and result is not None:
            counts["dag.splice.built"] += 1
        return result

    return wrapper


def instrument(tracer: Tracer, layers: Iterable[Tuple[str, str, str]] = LIBRARY_LAYERS) -> List[tuple]:
    """Patch every layer entry point; returns the undo list for :func:`restore`."""
    undo = []
    for module_name, path, span_name in layers:
        owner: Any = importlib.import_module(module_name)
        *owner_path, attribute = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, _wrap(original, span_name, tracer))
        undo.append((owner, attribute, original))
    return undo


def restore(undo: List[tuple]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
