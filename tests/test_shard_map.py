"""Contract tests for :class:`repro.workerpool.ShardMap` on its own.

The three pooled sites (RepGen fingerprinting, RepGen verification and the
``parallel-backtracking`` search wave) test the primitive through their
own byte-identity checks.  Here it runs a trivial module-level chunk
function, so each clause of the contract — job-order results, the one
chunking formula, the counter merge, the in-process fallbacks and the one
degrade policy — is pinned down without any site in the way.
"""

from __future__ import annotations

import pytest

from repro.errors import RetryExhausted
from repro.perf import PerfRecorder
from repro.workerpool import CHUNKS_PER_WORKER, ResilientPool, ShardMap


def _build(spec):
    return {"offset": spec}


def _square_plus_offset(state, chunk):
    """Per-job results plus one counter per chunk, as every site returns."""
    results = [job * job + state["offset"] for job in chunk]
    return results, {"test.chunk_jobs": len(chunk), "test.chunk_calls": 1}


def _type_error_on_negative(state, chunk):
    if any(job < 0 for job in chunk):
        raise TypeError("negative job")
    return list(chunk), {}


def _shard_map(workers=2, *, fn=_square_plus_offset, min_batch=1, perf=None):
    return ShardMap(
        "test", _build, 10, fn, workers, min_batch=min_batch, perf=perf
    )


@pytest.mark.parametrize("num_jobs", [1, 7, 8, 9, 33])
def test_results_come_back_in_job_order(num_jobs):
    perf = PerfRecorder()
    jobs = list(range(num_jobs))
    with _shard_map(perf=perf) as shard_map:
        results = shard_map.map(jobs)
    assert results == [job * job + 10 for job in jobs]
    # The one chunking formula: at most CHUNKS_PER_WORKER contiguous
    # chunks per worker, every chunk non-empty.
    chunk_size = -(-num_jobs // (2 * CHUNKS_PER_WORKER))
    expected_chunks = -(-num_jobs // chunk_size)
    assert expected_chunks <= 2 * CHUNKS_PER_WORKER
    assert perf.value("parallel.test.chunks") == expected_chunks
    # Every chunk's counters were merged into the caller's recorder.
    assert perf.value("test.chunk_calls") == expected_chunks
    assert perf.value("test.chunk_jobs") == num_jobs
    assert perf.value("parallel.test.rounds") == 1
    assert perf.value("parallel.test.jobs") == num_jobs


def test_pool_counters_name_the_site():
    perf = PerfRecorder()
    with _shard_map(perf=perf) as shard_map:
        assert shard_map.active
    assert perf.value("parallel.test.pools") == 1
    assert perf.value("parallel.test.workers") == 2


def test_single_worker_starts_no_pool():
    perf = PerfRecorder()
    with _shard_map(1, perf=perf) as shard_map:
        assert not shard_map.active
        assert shard_map.map([1, 2, 3]) is None
    assert perf.counters == {}


def test_batches_below_min_batch_run_in_process():
    perf = PerfRecorder()
    with _shard_map(min_batch=4, perf=perf) as shard_map:
        assert shard_map.map([]) is None
        assert shard_map.map([1, 2, 3]) is None
        # ``batch_size`` is what the minimum is compared against, not
        # the number of jobs shipped.
        assert shard_map.map([1, 2, 3, 4, 5], batch_size=3) is None
        assert shard_map.map([1, 2], batch_size=4) == [11, 14]
    assert perf.value("parallel.test.rounds") == 1


def test_failed_round_degrades_and_keeps_the_pool(monkeypatch):
    perf = PerfRecorder()
    real_run_chunks = ResilientPool.run_chunks
    calls = []

    def fail_first_round(self, chunks, *, round_index=None):
        calls.append(round_index)
        if len(calls) == 1:
            raise RetryExhausted("injected")
        return real_run_chunks(self, chunks, round_index=round_index)

    monkeypatch.setattr(ResilientPool, "run_chunks", fail_first_round)
    with _shard_map(perf=perf) as shard_map:
        with pytest.warns(RuntimeWarning, match="test worker pool failed"):
            assert shard_map.map([1, 2, 3], round_index=0) is None
        # The pool stays up: the next round runs on it.
        assert shard_map.active
        assert shard_map.map([1, 2, 3], round_index=1) == [11, 14, 19]
    assert calls == [0, 1]
    assert perf.value("resilience.rounds_degraded") == 1
    assert perf.value("parallel.test.round_failures") == 1
    assert perf.value("parallel.test.rounds") == 1


def test_setup_failure_warns_and_runs_in_process(monkeypatch):
    def refuse_to_spawn(self):
        raise OSError("no processes left")

    perf = PerfRecorder()
    monkeypatch.setattr(ResilientPool, "_spawn", refuse_to_spawn)
    with pytest.warns(RuntimeWarning, match="could not start 2 test workers"):
        shard_map = _shard_map(perf=perf)
    with shard_map:
        assert not shard_map.active
        assert shard_map.map([1, 2, 3]) is None
    assert perf.value("parallel.test.setup_failures") == 1
    assert perf.value("parallel.test.pools") == 0
    # A pool that never started degrades no round.
    assert perf.value("resilience.rounds_degraded") == 0


def test_chunk_function_errors_propagate():
    perf = PerfRecorder()
    with _shard_map(fn=_type_error_on_negative, perf=perf) as shard_map:
        with pytest.raises(TypeError, match="negative job"):
            shard_map.map([1, -2, 3])
    assert perf.value("resilience.rounds_degraded") == 0
    assert perf.value("parallel.test.round_failures") == 0


def test_close_is_idempotent_and_later_rounds_fail_over():
    perf = PerfRecorder()
    shard_map = _shard_map(perf=perf)
    shard_map.close()
    shard_map.close()
    # A closed pool is a pool failure, handled by the one degrade policy.
    with pytest.warns(RuntimeWarning, match="pool is closed"):
        assert shard_map.map([1, 2, 3]) is None
    assert perf.value("resilience.rounds_degraded") == 1
