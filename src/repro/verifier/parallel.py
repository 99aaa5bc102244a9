"""The verification chunk function RepGen shards its rounds through.

The equivalence checks inside (adjacent) fingerprint buckets — the
symbolic bulk of generation — shard across a
:class:`repro.workerpool.ShardMap` (fault site ``verify``):

* the parent enumerates, per round, every (candidate, anchor) pair the ECC
  insert loop could possibly ask about: candidates against the classes that
  existed when the round started, and candidates against *earlier*
  candidates of the same round that might found a new class (the
  speculative intra-round pairs);
* each worker owns an :class:`~repro.verifier.equivalence.EquivalenceVerifier`
  rebuilt from the parent verifier's :meth:`spec` (same seed, parameter
  count, backend and phase-search flags) and verifies its shard of pairs;
* the parent merges the verdicts into a table and replays the ECC insert
  loop **serially, in enumeration order**, consulting the table instead of
  calling the verifier.  Which worker answered first never matters: a
  verdict is a pure function of the two circuits and the verifier spec, so
  the merged ECC set — and hence ``ECCSet.to_json`` — is byte-identical to
  a serial run's.

Each verdict comes back with its :class:`VerifierStats` delta, and each
chunk with its ``verifier.*`` perf counters; the parent aggregates them
(via :meth:`VerifierStats.merge`) into ``GeneratorStats`` so multi-worker
runs keep the Table 5 / Table 8 metrics and the cache hit rates
observable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ir.circuit import Circuit
from repro.perf import PerfRecorder
from repro.verifier.equivalence import (
    EquivalenceVerifier,
    VerificationResult,
    VerifierStats,
)

__all__ = ["verify_chunk"]


def verify_chunk(
    verifier: EquivalenceVerifier, pairs: Sequence[Tuple[Circuit, Circuit]]
) -> Tuple[List[Tuple[VerificationResult, VerifierStats]], Dict[str, int]]:
    """Per pair, its verdict and stats delta; plus the chunk's perf counters.

    The verifier itself persists across chunks (so its symbolic matrix and
    fingerprint caches stay warm within a run), but stats and perf counters
    are swapped out so the parent receives exact deltas it can aggregate
    without double counting.
    """
    verifier.perf = PerfRecorder()
    outcomes = []
    for circuit_a, circuit_b in pairs:
        verifier.stats = VerifierStats()
        outcomes.append((verifier.verify(circuit_a, circuit_b), verifier.stats))
    return outcomes, dict(verifier.perf.counters)
