"""The RepGen circuit generation algorithm (Algorithm 1 of the paper).

RepGen builds an (n, q)-complete ECC set round by round: the j-th round
extends every size-(j-1) *representative* by a single gate, keeps only the
extensions whose first-gate-dropped suffix is also a representative, groups
the resulting circuits by fingerprint, and verifies equivalence only within
(adjacent) fingerprint buckets.  Representatives are the precedence-minimal
circuits of their classes, so the number of circuits examined is bounded by
|R_n| * ch(G, Sigma, q, m) * n (Theorem 3) instead of the exponential count
of all circuits.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.envconfig import VERIFY_WORKERS_ENV_VAR, WORKERS_ENV_VAR, env_resume
from repro.errors import CheckpointError, FaultInjected
from repro.generator.cache import CacheKey, ECCCache, backend_kind, cache_key
from repro.generator.ecc import ECC, ECCSet, circuit_from_payload, circuit_to_payload
from repro.generator.parallel import hash_keys_for_chunk
from repro.ir.circuit import Circuit, Instruction
from repro.ir.gates import Gate
from repro.ir.gatesets import GateSet
from repro.ir.params import Angle, ParamSpec
from repro.perf import PerfRecorder
from repro.semantics.fingerprint import FingerprintContext
from repro.verifier.equivalence import EquivalenceVerifier, VerifierStats
from repro.verifier.parallel import verify_chunk
from repro.workerpool import ShardMap, resolve_workers

#: Seed for the fingerprint context's random inputs.  Part of the cache key:
#: two runs agree bit-for-bit only when their seeds agree.
DEFAULT_SEED = 20220433

#: Per probed bucket, how many of a candidate's earlier same-round
#: candidates are speculatively verified by the worker pool.  Bounds the
#: speculation at O(candidates) instead of O(bucket size^2); anything past
#: the bound falls back to the parent verifier (identical verdicts), so
#: this trades parallel coverage for total work, never correctness.
SPECULATIVE_BUCKET_BOUND = 8

#: Rounds with fewer candidates than this fingerprint in-process even when
#: a pool is up: the per-candidate work is ~a few microseconds, so IPC
#: would dominate.
MIN_SHARDED_CANDIDATES = 64

#: Rounds with fewer candidate pairs than this verify in-process even when
#: a pool is up: a single check costs ~a millisecond, so for tiny batches
#: the pickling round-trip would dominate.
MIN_SHARDED_PAIRS = 16

# One fingerprint job per parent: the parent circuit and its surviving
# extensions.
FingerprintJob = Tuple[Circuit, Sequence[Instruction]]


@dataclass
class GeneratorStats:
    """Metrics reported in Tables 5, 6 and 8 of the paper."""

    circuits_considered: int = 0
    num_representatives: int = 0
    num_transformations: int = 0
    num_eccs: int = 0
    verification_calls: int = 0
    verification_time: float = 0.0
    total_time: float = 0.0
    rounds: List[Dict[str, float]] = field(default_factory=list)
    # Hot-path instrumentation: fingerprint eval counts, state/matrix cache
    # hit rates, verifier timings (see repro.perf).
    perf: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "circuits_considered": self.circuits_considered,
            "num_representatives": self.num_representatives,
            "num_transformations": self.num_transformations,
            "num_eccs": self.num_eccs,
            "verification_calls": self.verification_calls,
            "verification_time": self.verification_time,
            "total_time": self.total_time,
            "perf": dict(self.perf),
        }


@dataclass
class GeneratorResult:
    """Output of a RepGen run: the ECC set plus bookkeeping."""

    ecc_set: ECCSet
    stats: GeneratorStats
    representatives: List[Circuit]

    @property
    def num_transformations(self) -> int:
        return self.ecc_set.num_transformations()


class RepGen:
    """Representative-based circuit generation for a gate set.

    Args:
        gate_set: the target gate set G.
        num_qubits: q — all generated circuits are over exactly q qubits.
        num_params: m — the number of symbolic parameters (defaults to the
            gate set's configured value).
        param_spec: the parameter-expression specification Sigma (defaults to
            the gate set's, i.e. {p_i, 2 p_i, p_i + p_j} with single use).
        verifier: an :class:`EquivalenceVerifier`; created on demand.
        seed: seed for the fingerprint context's random inputs.
        workers: size of the multiprocessing pool candidate fingerprinting
            is sharded across (None reads ``REPRO_GEN_WORKERS``, <= 1 runs
            serially).  The result is bit-identical to a serial run: only
            the fingerprint evaluation is parallel; bucket merging, ECC
            inserts and all verifier calls happen in the parent in
            enumeration order.
        verify_workers: size of the multiprocessing pool bucket-internal
            equivalence checks are sharded across (None reads
            ``REPRO_VERIFY_WORKERS``, <= 1 verifies serially).  Workers
            precompute a verdict table for each round; the parent then
            assigns candidates to ECC classes serially in enumeration
            order, so the output is byte-identical to a serial run
            regardless of which worker answered first.
        backend: simulator backend name for the fingerprint evaluation
            (see :mod:`repro.semantics.backend`).  Non-default backends get
            their own persistent-cache namespace, since their floating
            point arithmetic — and hence the fingerprint bucketing — may
            differ from the reference backend's.
        batched: evaluate each round's candidates through the backend's
            batched multi-state kernels (None reads ``REPRO_BATCHED``,
            default on).  Bit-identical to the per-state path on the numpy
            backend; fused-kernel backends (numba) get a dedicated
            persistent-cache namespace when batching is on, since their
            batched arithmetic may bucket differently.
        chunk_timeout: per-chunk deadline (seconds) for both worker pools'
            async dispatch (None reads ``REPRO_CHUNK_TIMEOUT``; <= 0
            disables the deadline).  Recovery never changes the output.
        chunk_retries: re-dispatch budget per failed/timed-out chunk (None
            reads ``REPRO_CHUNK_RETRIES``); only after the budget is
            exhausted does the affected *round* degrade to serial.
        resume: write a round-granular checkpoint through the persistent
            cache after every completed round and resume a killed run from
            the last completed one (None reads ``REPRO_RESUME``, default
            off).  Effective only when :meth:`generate` gets an enabled
            cache; a resumed run's final ECC JSON is byte-identical to an
            uninterrupted one's.
    """

    def __init__(
        self,
        gate_set: GateSet,
        num_qubits: int,
        num_params: Optional[int] = None,
        param_spec: Optional[ParamSpec] = None,
        verifier: Optional[EquivalenceVerifier] = None,
        seed: int = DEFAULT_SEED,
        workers: Optional[int] = None,
        verify_workers: Optional[int] = None,
        backend: str = "numpy",
        batched: Optional[bool] = None,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
        resume: Optional[bool] = None,
    ) -> None:
        self.gate_set = gate_set
        self.num_qubits = num_qubits
        self.seed = seed
        self.workers = resolve_workers(workers, WORKERS_ENV_VAR)
        self.verify_workers = resolve_workers(verify_workers, VERIFY_WORKERS_ENV_VAR)
        # Raw knobs: the pools resolve None against the environment, so a
        # RepGen built without explicit values still honors REPRO_CHUNK_*.
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries
        self.resume = env_resume() if resume is None else bool(resume)
        # Aggregated stats of the verifier *workers* (the parent verifier
        # keeps its own); reset per generate() run and merged into that
        # run's GeneratorStats.
        self._worker_verifier_stats = VerifierStats()
        self.num_params = gate_set.num_params if num_params is None else num_params
        self.param_spec = param_spec or ParamSpec(self.num_params)
        self.perf = PerfRecorder()
        self.fingerprints = FingerprintContext(
            num_qubits,
            self.num_params,
            seed=seed,
            backend=backend,
            batched=batched,
            perf=self.perf,
        )
        self.backend_name = self.fingerprints.backend_name
        self.batched = self.fingerprints.batched
        self.verifier = verifier or EquivalenceVerifier(
            self.num_params,
            backend=self.backend_name,
            batched=self.batched,
            perf=self.perf,
        )
        # Share the fingerprint context with the verifier: its numeric phase
        # screen then reuses the evolved states the generator already cached
        # for every candidate.  Only safe when the contexts would be
        # interchangeable anyway (same random inputs, same parameter count).
        if (
            self.verifier.seed == seed
            and self.verifier.num_params == self.num_params
            and getattr(self.verifier, "backend_name", "numpy") == self.backend_name
        ):
            self.verifier.set_fingerprint_context(self.fingerprints)

    # -- single-gate extensions -------------------------------------------------

    def single_gate_instructions(self, used_params: Iterable[int] = ()) -> Iterator[Instruction]:
        """Enumerate all single-gate applications allowed by G and Sigma.

        ``used_params`` is the set of parameters already consumed by the
        circuit being extended; under the single-use restriction, expressions
        touching them are skipped.
        """
        used = set(used_params)
        for gate in self.gate_set.gates:
            for qubits in itertools.permutations(range(self.num_qubits), gate.num_qubits):
                for params in self._param_choices(gate, used):
                    yield Instruction(gate, qubits, params)

    def _param_choices(
        self, gate: Gate, used: Set[int]
    ) -> Iterator[Tuple[Angle, ...]]:
        if gate.num_params == 0:
            yield ()
            return
        yield from self._param_choices_rec(gate.num_params, used)

    def _param_choices_rec(
        self, slots: int, used: Set[int]
    ) -> Iterator[Tuple[Angle, ...]]:
        if slots == 0:
            yield ()
            return
        for expr in self.param_spec.expressions_avoiding(used):
            newly_used = used | expr.params_used()
            for rest in self._param_choices_rec(slots - 1, newly_used):
                yield (expr,) + rest

    def characteristic(self) -> int:
        """ch(G, Sigma, q, m): the number of single-gate circuits."""
        return sum(1 for _ in self.single_gate_instructions())

    # -- the main algorithm -------------------------------------------------------

    def generate(
        self,
        max_gates: int,
        verbose: bool = False,
        *,
        cache: Optional[ECCCache] = None,
    ) -> GeneratorResult:
        """Run RepGen and return an (n, q)-complete ECC set (n = max_gates).

        With a ``cache``, a warm hit for this exact configuration (gate
        set, n, q, m, seed — plus the serialization schema version) skips
        generation entirely and a completed run is stored for the next one.
        With ``resume`` on as well, every completed round checkpoints
        through the cache (``repgen-ckpt@…`` namespace) and a killed run
        picks up at the last completed round; the checkpoint is deleted
        once the run finishes.
        """
        key: Optional[CacheKey] = None
        if cache is not None:
            key = self._cache_key(max_gates)
            cached = cache.load_generator_result(key)
            if cached is not None:
                self.perf.count("repgen.cache.hits")
                return cached
            self.perf.count("repgen.cache.misses")

        result = self._generate_uncached(max_gates, verbose, cache=cache)
        if cache is not None and key is not None:
            cache.store_generator_result(key, result)
            if self.resume:
                # The run completed; its checkpoint is spent.
                cache.delete(self._checkpoint_key(max_gates))
        return result

    def _cache_key(self, max_gates: int) -> CacheKey:
        return cache_key(
            backend_kind(
                "repgen",
                self.backend_name,
                batched=self.batched,
                batch_bit_identical=self.fingerprints.backend.batch_bit_identical,
            ),
            self.gate_set,
            max_gates,
            self.num_qubits,
            self.num_params,
            self.seed,
        )

    def _checkpoint_key(self, max_gates: int) -> CacheKey:
        """The ``repgen-ckpt@…`` key for this configuration's resume state.

        Same identity fields as the result key — only the kind namespace
        differs — so a checkpoint can never be confused with a finished
        result, and a different seed/backend/scale can never resume from it.
        """
        return cache_key(
            backend_kind(
                "repgen-ckpt",
                self.backend_name,
                batched=self.batched,
                batch_bit_identical=self.fingerprints.backend.batch_bit_identical,
            ),
            self.gate_set,
            max_gates,
            self.num_qubits,
            self.num_params,
            self.seed,
        )

    def _store_checkpoint(
        self,
        cache: ECCCache,
        key: CacheKey,
        completed_round: int,
        max_gates: int,
        eccs: List[ECC],
        ecc_buckets: Dict[int, List[int]],
        stats: GeneratorStats,
    ) -> None:
        """Persist the loop state a resume needs, atomically, after a round.

        The class list (with every member in insertion order — member order
        is what ``ECC.representative`` and the verdict anchors depend on)
        and the fingerprint bucket index are the whole loop state;
        representatives are recomputed from the classes on restore exactly
        as the round loop recomputes them.  Goes through the cache's
        checksummed atomic-write machinery, so a crash *during* a
        checkpoint write leaves the previous checkpoint intact.
        """
        body = {
            "completed_round": completed_round,
            "max_gates": max_gates,
            "eccs": [
                [circuit_to_payload(circuit) for circuit in ecc.circuits]
                for ecc in eccs
            ],
            "buckets": [
                [bucket, list(indices)] for bucket, indices in ecc_buckets.items()
            ],
            "stats": {
                "circuits_considered": stats.circuits_considered,
                "rounds": list(stats.rounds),
            },
        }
        if cache.store(key, body) is not None:
            self.perf.count("resilience.checkpoint_writes")

    def _restore_checkpoint(
        self,
        cache: ECCCache,
        key: CacheKey,
        max_gates: int,
        stats: GeneratorStats,
    ) -> Optional[Tuple[int, List[ECC], Dict[int, List[int]]]]:
        """Load resume state; returns (start round, classes, buckets) or None.

        An unusable checkpoint (wrong scale, undeserializable) is dropped
        with a warning and the run restarts from round 1 — resume is an
        optimization and must never change whether generation succeeds.
        """
        body = cache.load(key)
        if body is None:
            return None
        try:
            if int(body["max_gates"]) != max_gates:
                raise CheckpointError(
                    f"checkpoint is for n={body['max_gates']}, not n={max_gates}"
                )
            completed_round = int(body["completed_round"])
            if not 1 <= completed_round <= max_gates:
                raise CheckpointError(
                    f"checkpoint round {completed_round} out of range"
                )
            eccs = [
                ECC(
                    [
                        circuit_from_payload(payload, num_params=self.num_params)
                        for payload in circuits
                    ]
                )
                for circuits in body["eccs"]
            ]
            if not eccs:
                raise CheckpointError("checkpoint has no classes")
            ecc_buckets: Dict[int, List[int]] = {
                int(bucket): [int(index) for index in indices]
                for bucket, indices in body["buckets"]
            }
            circuits_considered = int(body["stats"]["circuits_considered"])
            rounds = list(body["stats"]["rounds"])
        except Exception as error:  # noqa: BLE001 — resume must never break a run
            warnings.warn(
                f"ignoring unusable resume checkpoint ({error}); "
                "restarting from round 1",
                RuntimeWarning,
                stacklevel=3,
            )
            self.perf.count("resilience.checkpoint_rejects")
            return None
        stats.circuits_considered = circuits_considered
        stats.rounds = rounds
        self.perf.count("resilience.resumes")
        self.perf.count("resilience.resumed_rounds", completed_round)
        return completed_round + 1, eccs, ecc_buckets

    def _generate_uncached(
        self,
        max_gates: int,
        verbose: bool,
        *,
        cache: Optional[ECCCache] = None,
    ) -> GeneratorResult:
        start_time = time.perf_counter()
        stats = GeneratorStats()
        # Worker stats are per-run (they merge into this run's perf snapshot
        # at the end); carrying them over would double-count a reused RepGen.
        self._worker_verifier_stats = VerifierStats()

        empty = Circuit(self.num_qubits, num_params=self.num_params)
        eccs: List[ECC] = [ECC([empty])]
        ecc_buckets: Dict[int, List[int]] = {}
        start_round = 1
        ckpt_key: Optional[CacheKey] = None
        if cache is not None and cache.enabled and self.resume:
            ckpt_key = self._checkpoint_key(max_gates)
            restored = self._restore_checkpoint(cache, ckpt_key, max_gates, stats)
            if restored is not None:
                start_round, eccs, ecc_buckets = restored
                if verbose:
                    print(f"[repgen] resuming at round {start_round}")

        if start_round == 1:
            self._register_bucket(ecc_buckets, self.fingerprints.hash_key(empty), 0)

        # Representatives are recomputed from the classes at the end of
        # every round; seeding them here (from the restored classes when
        # resuming) keeps the round loop itself oblivious to resume.
        rep_keys: Set[tuple] = set()
        reps_by_size: Dict[int, List[Circuit]] = {}
        for ecc in eccs:
            representative = ecc.representative
            rep_keys.add(representative.sequence_key())
            reps_by_size.setdefault(len(representative), []).append(representative)

        # The with-statement terminates every worker process on *any*
        # failure between here and the end of the round loop — including
        # the second pool failing to construct after the first one started.
        pool_knobs = dict(
            chunk_timeout=self.chunk_timeout,
            chunk_retries=self.chunk_retries,
            perf=self.perf,
        )
        verify_workers = self._verify_pool_size()
        with ShardMap(
            "gen",
            FingerprintContext.from_spec,
            self.fingerprints.spec(),
            hash_keys_for_chunk,
            self.workers,
            min_batch=MIN_SHARDED_CANDIDATES,
            **pool_knobs,
        ) as fingerprint_map, ShardMap(
            "verify",
            EquivalenceVerifier.from_spec,
            # Only a stock verifier is rebuilt in workers (see
            # _verify_pool_size).
            self.verifier.spec() if verify_workers >= 2 else None,
            verify_chunk,
            verify_workers,
            min_batch=MIN_SHARDED_PAIRS,
            **pool_knobs,
        ) as verify_map:
            for round_index in range(start_round, max_gates + 1):
                round_start = time.perf_counter()
                parents = reps_by_size.get(round_index - 1, [])

                # Enumerate this round's candidates: every surviving
                # single-gate extension of every representative, grouped by
                # parent so workers replay each parent state once.
                jobs: List[FingerprintJob] = []
                considered_this_round = 0
                for parent in parents:
                    used_params = parent.used_params()
                    parent_seq_key = parent.sequence_key()
                    extensions: List[Instruction] = []
                    for inst in self.single_gate_instructions(used_params):
                        if parent_seq_key:
                            # The candidate's first-gate-dropped suffix must
                            # be a representative; build its key from the
                            # parent's cached key instead of materializing
                            # the suffix.
                            suffix_key = parent_seq_key[1:] + (inst.sort_key(),)
                            if suffix_key not in rep_keys:
                                self.perf.count("repgen.suffix_rejects")
                                continue
                        extensions.append(inst)
                    if extensions:
                        jobs.append((parent, extensions))
                        considered_this_round += len(extensions)
                stats.circuits_considered += considered_this_round

                # Fingerprint the candidates (sharded across the pool when
                # one is available), then insert in enumeration order — the
                # inserts are what make the output deterministic, and they
                # always run in the parent.  When a verifier pool is up, the
                # equivalence checks the inserts will ask about are
                # precomputed as a verdict table first; the insert loop then
                # only looks verdicts up, so the assignment of candidates to
                # classes is identical to the serial path no matter which
                # worker answered first.
                keys_per_job = self._fingerprint_jobs(
                    jobs, fingerprint_map, round_index
                )
                candidates: List[Circuit] = []
                candidate_keys: List[int] = []
                for (parent, extensions), keys in zip(jobs, keys_per_job):
                    for inst, hash_key in zip(extensions, keys):
                        candidates.append(parent.appended(inst))
                        candidate_keys.append(hash_key)
                verdicts = self._verify_round_table(
                    candidates, candidate_keys, eccs, ecc_buckets, verify_map,
                    round_index,
                )
                for index, (candidate, hash_key) in enumerate(
                    zip(candidates, candidate_keys)
                ):
                    if verdicts is not None:
                        verdicts.candidate_index = index
                    self._insert_circuit(
                        candidate, hash_key, eccs, ecc_buckets, verdicts
                    )

                # Recompute representatives: the minimum of every class.
                rep_keys = set()
                reps_by_size = {}
                for ecc in eccs:
                    representative = ecc.representative
                    rep_keys.add(representative.sequence_key())
                    reps_by_size.setdefault(len(representative), []).append(
                        representative
                    )

                stats.rounds.append(
                    {
                        "round": round_index,
                        "considered": considered_this_round,
                        "eccs": len(eccs),
                        "time": time.perf_counter() - round_start,
                    }
                )
                if verbose:
                    print(
                        f"[repgen] round {round_index}: considered "
                        f"{considered_this_round}, classes {len(eccs)}"
                    )
                if ckpt_key is not None:
                    self._store_checkpoint(
                        cache, ckpt_key, round_index, max_gates, eccs,
                        ecc_buckets, stats,
                    )
                # The reproducible mid-run crash for resume testing fires
                # *after* the round's checkpoint, so a crashed run always
                # has its completed rounds on disk.
                if faults.fire("gen", ("crash_run",), round_index=round_index):
                    raise FaultInjected(
                        f"injected crash_run after round {round_index}"
                    )

        representatives = [ecc.representative for ecc in eccs]
        result_set = ECCSet(
            [ecc for ecc in eccs if not ecc.is_singleton()],
            self.num_qubits,
            self.num_params,
        )

        stats.num_representatives = len(representatives)
        stats.num_eccs = len(result_set)
        stats.num_transformations = result_set.num_transformations()
        worker_stats = self._worker_verifier_stats
        stats.verification_calls = self.verifier.stats.checks + worker_stats.checks
        stats.verification_time = (
            self.verifier.stats.time_seconds + worker_stats.time_seconds
        )
        if worker_stats.checks:
            # Surface the aggregated worker VerifierStats in the perf
            # snapshot (`verifier.workers.*`) so multi-worker runs keep the
            # Table 5 / Table 8 metrics observable per run.
            self.perf.merge_counts(
                {
                    f"verifier.workers.{name}": getattr(worker_stats, name)
                    for name in VerifierStats.COUNTER_FIELDS
                }
            )
            self.perf.add_time("verifier.workers", worker_stats.time_seconds)
        stats.total_time = time.perf_counter() - start_time
        stats.perf = self.perf.snapshot()
        return GeneratorResult(result_set, stats, representatives)

    # -- helpers --------------------------------------------------------------------

    def _verify_pool_size(self) -> int:
        """Verifier workers, or 1 when a custom verifier forbids sharding.

        Workers rebuilt from :meth:`EquivalenceVerifier.spec` could answer
        differently than a verifier subclass and break the byte-identity
        guarantee, so a subclass verifies in-process.
        """
        if self.verify_workers < 2 or type(self.verifier) is EquivalenceVerifier:
            return self.verify_workers
        warnings.warn(
            "parallel verification supports only stock EquivalenceVerifier "
            f"instances, not {type(self.verifier).__name__}; verifying "
            "serially",
            RuntimeWarning,
            stacklevel=4,
        )
        self.perf.count("verifier.parallel.unsupported_verifier")
        return 1

    def _verify_round_table(
        self,
        candidates: List[Circuit],
        keys: List[int],
        eccs: List[ECC],
        ecc_buckets: Dict[int, List[int]],
        verify_map: ShardMap,
        round_index: Optional[int] = None,
    ) -> Optional["_RoundVerdicts"]:
        """Precompute every verdict this round's inserts could ask for.

        Two families of (candidate, anchor) pairs cover the insert loop's
        question space exactly:

        * each candidate against the anchor (``circuits[0]``) of every class
          registered under its ±1 fingerprint buckets when the round starts
          — new classes created during the round register under *their*
          keys, never mutating the pre-round index lists; and
        * each candidate against the **earliest** earlier candidates within
          ±1 buckets (up to :data:`SPECULATIVE_BUCKET_BOUND` per bucket) —
          speculative, because an earlier candidate only becomes an anchor
          if it founds a new class.  Class founders are the *first* members
          of their class in enumeration order, so the earliest bucket
          occupants cover the actual anchors unless a single bucket hosts
          more distinct classes than the bound (rare); the bound keeps the
          speculation linear in bucket size instead of quadratic.  A lookup
          the table cannot answer falls back to the parent verifier, whose
          verdict is identical by construction — so truncation affects only
          how much work runs in parallel, never the output.

        Returns None when the round should verify serially (no pool, batch
        below :data:`MIN_SHARDED_PAIRS`, or the round degraded).
        """
        if not verify_map.active or not candidates:
            return None
        pairs = []
        pair_ids = []
        for index, (candidate, key) in enumerate(zip(candidates, keys)):
            seen: Set[int] = set()
            for probe in (key - 1, key, key + 1):
                for ecc_index in ecc_buckets.get(probe, ()):
                    if ecc_index in seen:
                        continue
                    seen.add(ecc_index)
                    pairs.append((candidate, eccs[ecc_index].circuits[0]))
                    pair_ids.append((index, ("ecc", ecc_index)))
        by_bucket: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            by_bucket.setdefault(key, []).append(index)
        for index, key in enumerate(keys):
            for probe in (key - 1, key, key + 1):
                # Bucket lists are in enumeration order, so this takes the
                # earliest earlier candidates — where the class founders are.
                for earlier in by_bucket.get(probe, ())[:SPECULATIVE_BUCKET_BOUND]:
                    if earlier >= index:
                        break
                    pairs.append((candidates[index], candidates[earlier]))
                    pair_ids.append((index, ("cand", earlier)))
        outcomes = verify_map.map(pairs, round_index=round_index)
        if outcomes is None:
            return None
        self._worker_verifier_stats.add(
            VerifierStats.merge(stats for _, stats in outcomes)
        )
        return _RoundVerdicts(
            {pair_id: result for pair_id, (result, _) in zip(pair_ids, outcomes)},
            len(eccs),
        )

    def _fingerprint_jobs(
        self,
        jobs: List[FingerprintJob],
        fingerprint_map: ShardMap,
        round_index: Optional[int] = None,
    ) -> List[List[int]]:
        """Hash keys for every job, sharded across the pool when worthwhile.

        Worker results merge in job order, so the insert sequence — and
        therefore the resulting ECC set — is identical to the serial path.
        """
        total = sum(len(extensions) for _, extensions in jobs)
        results = fingerprint_map.map(
            jobs, round_index=round_index, batch_size=total
        )
        if results is not None:
            # Seed the main-process fingerprint cache with the worker
            # states so the verifier's phase screen hits on them during
            # the inserts, exactly as it would after a serial round.
            seeded = 0
            keys: List[List[int]] = []
            for (parent, extensions), (job_keys, job_states) in zip(jobs, results):
                keys.append(job_keys)
                parent_key = parent.sequence_key()
                for inst, state in zip(extensions, job_states):
                    if state is not None:
                        self.fingerprints.seed_state(
                            parent_key + (inst.sort_key(),), state
                        )
                        seeded += 1
            self.perf.merge_counts(
                {
                    "repgen.parallel.candidates": total,
                    "repgen.parallel.states_seeded": seeded,
                }
            )
            return keys
        if self.batched:
            # One batched evaluation for the whole round: candidates are
            # grouped by instruction inside the context, so per-gate
            # dispatch is paid once per distinct instruction.  Candidate
            # states land in the shared cache exactly like the per-state
            # path (the verifier's phase screen reuses them).
            return self.fingerprints.hash_keys_batched(jobs)
        return [
            [
                self.fingerprints.hash_key_appended(parent, inst)
                for inst in extensions
            ]
            for parent, extensions in jobs
        ]

    def _insert_circuit(
        self,
        circuit: Circuit,
        key: int,
        eccs: List[ECC],
        ecc_buckets: Dict[int, List[int]],
        verdicts: Optional["_RoundVerdicts"] = None,
    ) -> None:
        """Place a candidate circuit into an existing ECC or a new singleton.

        ``key`` is the circuit's fingerprint bucket (computed incrementally
        by the caller).  Only classes stored under that bucket or the two
        adjacent buckets can possibly be equivalent (Section 7.1), so only
        those are checked with the verifier.

        With a ``verdicts`` table the equivalence answers come from the
        precomputed worker verdicts instead of a live verifier call; a miss
        (which the table construction makes impossible in practice, but is
        tolerated for safety) falls back to the parent verifier, whose
        answer is identical by construction.
        """
        candidate_indices: List[int] = []
        for probe in (key - 1, key, key + 1):
            candidate_indices.extend(ecc_buckets.get(probe, ()))
        seen: Set[int] = set()
        for index in candidate_indices:
            if index in seen:
                continue
            seen.add(index)
            ecc = eccs[index]
            if circuit in ecc:
                return
            equivalent: Optional[bool] = None
            if verdicts is not None:
                result = verdicts.lookup(index)
                if result is not None:
                    self.perf.count("verifier.parallel.table_hits")
                    equivalent = result.equivalent
                else:
                    self.perf.count("verifier.parallel.table_misses")
            if equivalent is None:
                equivalent = self.verifier.verify(circuit, ecc.circuits[0]).equivalent
            if equivalent:
                ecc.add(circuit)
                return
        eccs.append(ECC([circuit]))
        self._register_bucket(ecc_buckets, key, len(eccs) - 1)
        if verdicts is not None:
            verdicts.register_new_class()

    @staticmethod
    def _register_bucket(buckets: Dict[int, List[int]], key: int, index: int) -> None:
        buckets.setdefault(key, []).append(index)


class _RoundVerdicts:
    """Precomputed verdict table for one round's ECC inserts.

    Entries are keyed by ``(candidate enumeration index, anchor token)``: a
    class that existed when the round started is addressed as
    ``("ecc", class index)``, a class created *during* the round as
    ``("cand", index of the candidate that founded it)`` — its anchor
    circuit (``circuits[0]``) is exactly that candidate.  The insert loop
    reports class creations via :meth:`register_new_class`, so anchor
    tokens stay in lockstep with ``eccs`` without any re-verification.
    """

    __slots__ = ("table", "anchor_tokens", "candidate_index")

    def __init__(self, table: Dict, num_pre_round_classes: int) -> None:
        self.table = table
        self.anchor_tokens: List[tuple] = [
            ("ecc", index) for index in range(num_pre_round_classes)
        ]
        #: Enumeration index of the candidate currently being inserted;
        #: advanced by the caller before each insert.
        self.candidate_index = -1

    def lookup(self, ecc_index: int):
        """The precomputed verdict for the current candidate vs a class."""
        return self.table.get((self.candidate_index, self.anchor_tokens[ecc_index]))

    def register_new_class(self) -> None:
        self.anchor_tokens.append(("cand", self.candidate_index))
