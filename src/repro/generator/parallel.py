"""The fingerprint chunk function RepGen shards its rounds through.

The paper's equivalence-set generation runs used 128 cores; the candidates
within one RepGen round are independent up to the ECC insert, so the
fingerprint evaluation — the numeric bulk of a round — shards cleanly
across a :class:`repro.workerpool.ShardMap` (fault site ``gen``):

* the parent enumerates and suffix-filters the candidate extensions of
  every representative (cheap, deterministic);
* each worker owns a :class:`~repro.semantics.fingerprint.FingerprintContext`
  rebuilt from the parent context's spec (same seed, hence bit-identical
  random inputs) and returns the integer hash keys of its shard;
* the parent merges the keys back in enumeration order and performs the
  ECC inserts (and all verifier calls) serially.

Because the incremental fingerprint path performs the same ordered
floating-point operations as a full replay, a worker that replays a parent
circuit from scratch and applies one gate produces the *same float* the
serial generator computes — so the merged ECC set is bit-identical to the
serial run's.  ``tests/test_parallel.py`` and the micro-benchmarks assert
``ECCSet.to_json`` byte equality between serial and multi-worker runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ir.circuit import Circuit, Instruction
from repro.semantics.fingerprint import FingerprintContext

__all__ = ["hash_keys_for_chunk"]


def hash_keys_for_chunk(
    context: FingerprintContext,
    chunk: Sequence[Tuple[Circuit, Sequence[Instruction]]],
) -> Tuple[List[Tuple[List[int], list]], Dict[str, int]]:
    """Hash keys and evolved states for every candidate of a chunk of jobs.

    A job is one parent circuit and its surviving extensions.  Each
    parent's evolved state is replayed once (bit-identical to the serial
    generator's incrementally-built state) and shared by all of the
    parent's candidates through the worker context's state cache.  When the
    context runs batched, the whole chunk goes through one
    :meth:`~repro.semantics.fingerprint.FingerprintContext.hash_keys_batched`
    call, so candidates are grouped by instruction *across* the chunk's
    parents and per-gate dispatch is paid once per distinct instruction.
    The candidate statevectors ride back alongside the keys (2^q amplitudes
    each — tiny at the q this generator targets) so the main process can
    seed its own fingerprint cache: the verifier's numeric phase screen
    reuses those states during the ECC inserts, exactly as it does after a
    serial round.  A state entry may be None if the worker's cache evicted
    it; the parent then recomputes it on demand.
    """
    if context.batched:
        keys_per_job = context.hash_keys_batched(chunk)
    else:
        keys_per_job = [
            [context.hash_key_appended(parent, inst) for inst in instructions]
            for parent, instructions in chunk
        ]
    results = []
    for (parent, instructions), keys in zip(chunk, keys_per_job):
        parent_key = parent.sequence_key()
        states = [
            context.cached_state(parent_key + (inst.sort_key(),))
            for inst in instructions
        ]
        results.append((keys, states))
    return results, {}
