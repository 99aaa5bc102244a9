"""Self-healing multiprocessing dispatch shared by the worker pools.

Two layers live here.

:class:`ResilientPool` replaces ``multiprocessing.Pool.map`` — a
happy-path primitive under which a worker killed mid-``map`` blocks the
call forever — with asynchronous per-chunk dispatch plus a recovery loop:

* every chunk is submitted with ``apply_async`` and collected with a
  per-chunk deadline (``REPRO_CHUNK_TIMEOUT``); a lost worker's chunk
  surfaces as :class:`~repro.errors.ChunkTimeout` instead of a hang;
* failed or timed-out chunks are re-dispatched with bounded exponential
  backoff (``REPRO_CHUNK_RETRIES``); a timeout additionally terminates and
  respawns the pool first, because a stuck or dead worker may be holding a
  slot (clean in-worker exceptions retry on the live pool);
* chunks whose result arrived *late* — after the deadline sweep but before
  the respawn — are recovered as-is rather than re-executed;
* only when a chunk exhausts its retry budget does
  :class:`~repro.errors.RetryExhausted` escape.

:class:`ShardMap` is the one primitive the RepGen fingerprint round, the
RepGen verification round and the ``parallel-backtracking`` search wave
shard their work through.  Its contract:

* workers are built from a picklable *spec*: ``build(spec)`` (a
  module-level builder such as ``FingerprintContext.from_spec``) runs once
  per worker process, and every chunk runs the module-level chunk function
  ``fn(state, chunk)`` on that state — a pure function of ``(spec,
  chunk)`` returning ``(per-job results, counters)``;
* jobs are cut into at most :data:`CHUNKS_PER_WORKER` contiguous chunks
  per worker; per-job results come back flattened in *job order* and the
  chunks' counters are merged into the caller's recorder, so chunk layout
  and completion order can never reach the caller;
* ``map`` returns None — "run this round in-process" — when no pool is
  up, when the batch is below the site's minimum, or when the round
  degraded;
* one degrade policy: a pool that cannot start warns and leaves the whole
  run in-process; a round whose chunks exhaust their retries warns, counts
  ``resilience.rounds_degraded``, runs in-process, and the pool stays up
  for the next round.  The site's own counters are
  ``parallel.<site>.{pools, workers, rounds, jobs, chunks,
  round_failures, setup_failures}``.

Re-dispatch is safe by construction: a chunk's results are a pure function
of the chunk payload and the spec (same seed, hence bit-identical replay),
so a retried chunk returns byte-identical results — asserted directly by
``tests/test_resilience.py`` (chunk re-execution identity) and end-to-end
by every serial-vs-parallel byte-identity test run under injected faults.

Fault injection: at dispatch time the pool consults the active
:mod:`repro.faults` plan (site ``gen``, ``verify``, ``search`` or
``service``, round-aware) and, if an entry fires, attaches the
corresponding worker-side token to the round's first chunk; the shared
chunk runner executes it before any real work.  Faults fire on first
dispatch only — retried chunks are shipped clean, mirroring real transient
failures.

Recovery is observable through ``resilience.*`` perf counters
(``chunk_timeouts``, ``chunk_failures``, ``chunk_retries``,
``pool_respawns``, ``late_results``, ``faults_injected``,
``rounds_degraded``, ...) that the facade surfaces in ``RunReport``
provenance.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
import warnings
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import faults
from repro.envconfig import env_chunk_retries, env_chunk_timeout, env_worker_count
from repro.errors import (
    ChunkTimeout,
    FaultInjected,
    PoolError,
    RetryExhausted,
    WorkerCrash,
)
from repro.perf import NULL_RECORDER, PerfRecorder

__all__ = [
    "ResilientPool",
    "ShardMap",
    "spec_pool",
    "resolve_workers",
    "resolve_chunk_timeout",
    "resolve_chunk_retries",
    "BACKOFF_BASE_SECONDS",
    "BACKOFF_CAP_SECONDS",
]

#: First-retry backoff; doubles per attempt, capped below.  Small on
#: purpose: chunk re-execution is cheap and deterministic, the backoff only
#: exists to let a respawned pool finish initializing under load.
BACKOFF_BASE_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 2.0

#: Upper bound on the chunks one ``ShardMap`` round is cut into, per
#: worker: several chunks per worker let a slow chunk be absorbed by the
#: others, while each chunk stays large enough to amortize its IPC.
CHUNKS_PER_WORKER = 4

_PENDING = object()

#: Worker-side exception classes the retry loop is allowed to absorb: the
#: transport/infrastructure failures re-dispatch is designed for (dead
#: pipes, broken pools, unpicklable results) plus :class:`FaultInjected`,
#: whose whole point is exercising that loop.  Anything else — a
#: ``TypeError`` from a buggy chunk function, an assertion in library code —
#: is a programming error: retrying it re-runs the same bug ``retries``
#: times and then mislabels it "pool gave up", so it propagates to the
#: caller with its original type and traceback instead.
_RETRYABLE_CHUNK_ERRORS: Tuple[type, ...] = (
    FaultInjected,
    PoolError,
    OSError,
    EOFError,
    multiprocessing.ProcessError,
    multiprocessing.pool.MaybeEncodingError,
)


def resolve_workers(workers: Optional[int], env_var: str) -> int:
    """Resolve a worker count: explicit argument, else ``env_var``, else 1."""
    if workers is None:
        return env_worker_count(env_var) or 1
    return max(int(workers), 1)


def resolve_chunk_timeout(chunk_timeout: Optional[float] = None) -> Optional[float]:
    """Resolve a per-chunk deadline: explicit argument, else environment.

    ``None`` means "ask the environment"; an explicit non-positive value
    means "no deadline" (and forfeits the no-hang guarantee, so it is an
    opt-out, never a default).
    """
    if chunk_timeout is None:
        return env_chunk_timeout()
    return None if chunk_timeout <= 0 else float(chunk_timeout)


def resolve_chunk_retries(chunk_retries: Optional[int] = None) -> int:
    """Resolve a chunk retry budget: explicit argument, else environment."""
    if chunk_retries is None:
        return env_chunk_retries()
    return max(int(chunk_retries), 0)


class ResilientPool:
    """A persistent worker pool with timeouts, retries and self-respawn.

    Args:
        worker_fn: module-level function each chunk is dispatched to; it
            receives ``(chunk, fault_token)`` payload tuples.
        initializer / initargs: per-worker process initialization (rebuilds
            the picklable spec into live worker state).
        workers: pool size (>= 2; a single worker should use the serial
            path instead).
        site: fault-injection site name (``"gen"``, ``"verify"``,
            ``"search"`` or ``"service"``).
        chunk_timeout: per-chunk deadline in seconds (None = environment;
            <= 0 = no deadline).
        chunk_retries: re-dispatch budget per chunk (None = environment).
        perf: recorder the ``resilience.*`` counters land in.
    """

    def __init__(
        self,
        worker_fn: Callable,
        initializer: Callable,
        initargs: tuple,
        workers: int,
        *,
        site: str,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        if workers < 2:
            raise ValueError("a parallel pool needs at least 2 workers")
        self.worker_fn = worker_fn
        self.workers = workers
        self.site = site
        self.chunk_timeout = resolve_chunk_timeout(chunk_timeout)
        self.chunk_retries = resolve_chunk_retries(chunk_retries)
        self.perf = perf if perf is not None else NULL_RECORDER
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[multiprocessing.pool.Pool] = None
        try:
            self._spawn()
        except Exception as error:
            raise PoolError(f"could not start worker pool: {error}") from error

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> None:
        start_methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in start_methods else start_methods[0]
        self._pool = multiprocessing.get_context(method).Pool(
            processes=self.workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    def _terminate(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _respawn(self) -> None:
        """Tear down the pool (killing stuck workers) and start a fresh one."""
        self._terminate()
        self._spawn()
        self.perf.count("resilience.pool_respawns")

    def close(self) -> None:
        """Terminate and join every worker; safe to call more than once."""
        self._terminate()

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def run_chunks(
        self, chunks: Sequence, *, round_index: Optional[int] = None
    ) -> List:
        """Results for every chunk, in chunk order, surviving worker death.

        Raises :class:`RetryExhausted` when some chunk still has no result
        after every configured retry, so callers degrade that round on
        ``except PoolError`` alone.  Worker exceptions *outside*
        ``_RETRYABLE_CHUNK_ERRORS`` (a ``TypeError`` from a buggy chunk
        function, say) are programming errors, not infrastructure faults:
        they propagate immediately with their original type rather than
        burning the retry budget and degrading the round.
        """
        if not chunks:
            return []
        if self._pool is None:
            raise PoolError("pool is closed")
        results: List[Any] = [_PENDING] * len(chunks)
        pending = list(range(len(chunks)))
        last_error: Optional[PoolError] = None
        for attempt in range(self.chunk_retries + 1):
            if attempt:
                self.perf.count("resilience.chunk_retries", len(pending))
                time.sleep(
                    min(
                        BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)),
                        BACKOFF_CAP_SECONDS,
                    )
                )
            tokens: Dict[int, Any] = {}
            if attempt == 0:
                action = faults.fire(
                    self.site, faults.CHUNK_ACTIONS, round_index=round_index
                )
                if action is not None:
                    tokens[pending[0]] = faults.chunk_token(
                        action, self.chunk_timeout
                    )
                    self.perf.count("resilience.faults_injected")
            pending, timed_out, last_error = self._run_attempt(
                chunks, pending, tokens, results
            )
            if not pending:
                return results
            if attempt < self.chunk_retries and timed_out:
                # A timeout means a worker may be dead or wedged while
                # still holding a pool slot; a clean in-worker exception
                # leaves the pool healthy, so only timeouts force respawn.
                self._respawn()
        raise RetryExhausted(
            f"{len(pending)} of {len(chunks)} chunks still failing after "
            f"{self.chunk_retries} retries (last error: {last_error})"
        )

    def _run_attempt(
        self,
        chunks: Sequence,
        pending: List[int],
        tokens: Dict[int, Any],
        results: List[Any],
    ) -> Tuple[List[int], bool, Optional[PoolError]]:
        """One dispatch wave over ``pending``; fills ``results`` in place.

        Returns ``(still_failed, any_timeout, last_error)``.  Chunks whose
        result arrived after their deadline but before the sweep finished
        are recovered verbatim (``resilience.late_results``) — never
        re-executed, so recovery work is bounded by what actually failed.
        Worker exceptions outside ``_RETRYABLE_CHUNK_ERRORS`` propagate.
        """
        assert self._pool is not None
        try:
            handles = {
                index: self._pool.apply_async(
                    self.worker_fn, ((chunks[index], tokens.get(index)),)
                )
                for index in pending
            }
        except Exception as error:  # noqa: BLE001 — submission can fail with
            # anything from ValueError("Pool not running") to a pickling
            # error on the payload; every flavor means this wave dispatched
            # nothing, which the retry loop handles uniformly (respawn the
            # pool, re-dispatch every pending chunk).
            self.perf.count("resilience.dispatch_failures")
            return (
                list(pending),
                True,  # assume the pool is unusable
                WorkerCrash(f"chunk dispatch failed: {error}"),
            )
        failed: List[int] = []
        timed_out = False
        last_error: Optional[PoolError] = None
        for index, handle in handles.items():
            try:
                if self.chunk_timeout is None:
                    results[index] = handle.get()
                else:
                    results[index] = handle.get(timeout=self.chunk_timeout)
            except multiprocessing.TimeoutError:
                timed_out = True
                failed.append(index)
                last_error = ChunkTimeout(
                    f"chunk {index} missed its {self.chunk_timeout}s deadline"
                )
                self.perf.count("resilience.chunk_timeouts")
            except _RETRYABLE_CHUNK_ERRORS as error:
                failed.append(index)
                last_error = WorkerCrash(f"chunk {index} failed: {error}")
                self.perf.count("resilience.chunk_failures")
        still_failed: List[int] = []
        for index in failed:
            handle = handles[index]
            recovered = False
            if handle.ready():
                try:
                    results[index] = handle.get(timeout=0)
                    recovered = True
                    self.perf.count("resilience.late_results")
                except Exception:  # noqa: BLE001 — the chunk is already
                    # counted failed above; a second error here just means
                    # the late result is unusable too, so it stays failed
                    # and the normal retry path re-dispatches it.
                    pass
            if not recovered:
                still_failed.append(index)
        return still_failed, timed_out, last_error


# -- spec-initialized workers --------------------------------------------------

#: This worker process's ``(build(spec), fn)``; set once by the pool
#: initializer before any chunk runs, read-only afterwards.
_SPEC_WORKER: Optional[Tuple[Any, Callable[[Any, Any], Any]]] = None


def init_spec_worker(
    build: Callable[[Any], Any], spec: Any, fn: Callable[[Any, Any], Any]
) -> None:
    """Pool initializer: rebuild the worker state from its picklable spec."""
    global _SPEC_WORKER
    _SPEC_WORKER = (build(spec), fn)


def run_spec_chunk(payload: Tuple[Any, Any]) -> Any:
    """Chunk runner: the injected fault (if any), then ``fn(state, chunk)``."""
    chunk, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    assert _SPEC_WORKER is not None, "worker pool used before initialization"
    state, fn = _SPEC_WORKER
    return fn(state, chunk)


def spec_pool(
    site: str,
    build: Callable[[Any], Any],
    spec: Any,
    fn: Callable[[Any, Any], Any],
    workers: int,
    *,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
    perf: Optional[PerfRecorder] = None,
) -> ResilientPool:
    """A :class:`ResilientPool` whose workers run ``fn(build(spec), chunk)``.

    ``build`` and ``fn`` must be module-level (they travel to the workers
    by reference); raises :class:`PoolError` when the pool cannot start.
    """
    return ResilientPool(
        run_spec_chunk,
        init_spec_worker,
        (build, spec, fn),
        workers,
        site=site,
        chunk_timeout=chunk_timeout,
        chunk_retries=chunk_retries,
        perf=perf,
    )


class ShardMap:
    """A persistent spec-initialized pool mapped over one job list per round.

    Args:
        site: fault-injection site and counter family (``parallel.<site>.*``).
        build / spec / fn: see :func:`spec_pool`; ``fn(state, chunk)``
            returns ``(per-job results, counters)``.
        workers: pool size; below 2 no pool starts and :meth:`map` always
            returns None.
        min_batch: rounds whose batch size is below this run in-process —
            the per-job work would not pay for the IPC.
        chunk_timeout / chunk_retries: see :class:`ResilientPool`.
        perf: recorder the counters land in.
    """

    def __init__(
        self,
        site: str,
        build: Callable[[Any], Any],
        spec: Any,
        fn: Callable[[Any, Any], Any],
        workers: int,
        *,
        min_batch: int,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.site = site
        self.workers = workers
        self.min_batch = min_batch
        self.perf = perf if perf is not None else NULL_RECORDER
        self._pool: Optional[ResilientPool] = None
        if workers < 2:
            return
        try:
            self._pool = spec_pool(
                site,
                build,
                spec,
                fn,
                workers,
                chunk_timeout=chunk_timeout,
                chunk_retries=chunk_retries,
                perf=self.perf,
            )
        except PoolError as error:
            self._degrade(
                f"could not start {workers} {site} workers ({error}); "
                "running serially",
                "setup_failures",
            )
            return
        self._count({"pools": 1, "workers": workers})

    @property
    def active(self) -> bool:
        """Whether a worker pool is up (rounds may still run in-process)."""
        return self._pool is not None

    def map(
        self,
        jobs: Sequence,
        *,
        round_index: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> Optional[List]:
        """Per-job results in job order, or None: run this round in-process.

        ``batch_size`` (default ``len(jobs)``) is what ``min_batch`` is
        compared against.  ``round_index`` only feeds round-targeted fault
        entries (``kill_worker:gen:round2``); it never affects results.
        Worker exceptions that are not pool failures (a ``TypeError`` from
        a buggy chunk function) propagate.
        """
        size = len(jobs) if batch_size is None else batch_size
        if self._pool is None or not jobs or size < self.min_batch:
            return None
        chunk_size = -(-len(jobs) // (self.workers * CHUNKS_PER_WORKER))
        chunks = [jobs[i : i + chunk_size] for i in range(0, len(jobs), chunk_size)]
        try:
            per_chunk = self._pool.run_chunks(chunks, round_index=round_index)
        except PoolError as error:
            self.perf.count("resilience.rounds_degraded")
            self._degrade(
                f"{self.site} worker pool failed ({error}); "
                "falling back to serial for this round",
                "round_failures",
            )
            return None
        results: List[Any] = []
        for chunk_results, counters in per_chunk:
            results.extend(chunk_results)
            self.perf.merge_counts(counters)
        self._count({"rounds": 1, "jobs": len(jobs), "chunks": len(chunks)})
        return results

    def _count(self, counts: Mapping[str, int]) -> None:
        self.perf.merge_counts(
            {f"parallel.{self.site}.{name}": value for name, value in counts.items()}
        )

    def _degrade(self, message: str, counter: str) -> None:
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        self._count({counter: 1})

    def close(self) -> None:
        """Terminate and join every worker; safe to call more than once."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardMap":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
