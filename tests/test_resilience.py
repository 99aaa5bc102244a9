"""End-to-end resilience tests: recovery must never change the output.

Every fault class the pools recover from — killed workers, delayed chunks,
clean in-worker failures, exhausted retry budgets — is injected here
against a real multi-worker RepGen run, and the resulting
``ECCSet.to_json`` is asserted *byte-identical* to the serial baseline.
Recovery is additionally asserted to be observable (the ``resilience.*``
perf counters) and leak-free (no worker process outlives its run, even
when an exception escapes mid-round).
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro import faults
from repro.errors import FaultInjected
from repro.faults import FaultPlan
from repro.generator import RepGen
from repro.generator.parallel import hash_keys_for_chunk
from repro.ir.gatesets import NAM
from repro.semantics.fingerprint import FingerprintContext
from repro.workerpool import (
    ResilientPool,
    ShardMap,
    init_spec_worker,
    run_spec_chunk,
    resolve_chunk_retries,
    resolve_chunk_timeout,
)

#: Small enough that an injected delay/kill is detected in ~a second, large
#: enough that honest chunks at this scale never time out spuriously.
TIMEOUT = 2.0


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


def _generate(plan=None, **kwargs):
    faults.set_fault_plan(FaultPlan.from_string(plan) if plan else None)
    generator = RepGen(NAM, num_qubits=2, num_params=2, **kwargs)
    result = generator.generate(2)
    return result


@pytest.fixture(scope="module")
def serial_json():
    generator = RepGen(NAM, num_qubits=2, num_params=2, workers=1)
    return generator.generate(2).ecc_set.to_json()


class TestByteIdentityUnderFaults:
    def test_killed_gen_worker(self, serial_json):
        result = _generate(
            "kill_worker:gen:round2", workers=2, chunk_timeout=TIMEOUT, chunk_retries=2
        )
        assert result.ecc_set.to_json() == serial_json
        perf = result.stats.perf
        assert perf.get("resilience.faults_injected") == 1
        assert perf.get("resilience.chunk_timeouts", 0) >= 1
        assert perf.get("resilience.pool_respawns", 0) >= 1
        assert perf.get("resilience.chunk_retries", 0) >= 1
        # The run recovered: no round fell back to the serial path.
        assert "resilience.rounds_degraded" not in perf

    def test_delayed_gen_chunk(self, serial_json):
        result = _generate(
            "delay_chunk:gen:round2", workers=2, chunk_timeout=TIMEOUT, chunk_retries=2
        )
        assert result.ecc_set.to_json() == serial_json
        assert result.stats.perf.get("resilience.chunk_timeouts", 0) >= 1

    def test_failed_gen_chunk(self, serial_json):
        result = _generate(
            "fail_chunk:gen:round2", workers=2, chunk_timeout=TIMEOUT, chunk_retries=2
        )
        assert result.ecc_set.to_json() == serial_json
        perf = result.stats.perf
        assert perf.get("resilience.chunk_failures", 0) >= 1
        assert perf.get("resilience.chunk_retries", 0) >= 1
        # A clean in-worker exception retries on the live pool: no respawn.
        assert "resilience.pool_respawns" not in perf

    def test_killed_verify_worker(self, serial_json):
        result = _generate(
            "kill_worker:verify:round2",
            verify_workers=2,
            chunk_timeout=TIMEOUT,
            chunk_retries=2,
        )
        assert result.ecc_set.to_json() == serial_json
        assert result.stats.perf.get("resilience.pool_respawns", 0) >= 1

    def test_failed_verify_chunk(self, serial_json):
        result = _generate(
            "fail_chunk:verify:round2",
            verify_workers=2,
            chunk_timeout=TIMEOUT,
            chunk_retries=2,
        )
        assert result.ecc_set.to_json() == serial_json
        assert result.stats.perf.get("resilience.chunk_failures", 0) >= 1

    def test_exhausted_retries_degrade_the_round_not_the_run(self, serial_json):
        # Every dispatch's first attempt fails and the budget is zero, so
        # each parallel round degrades to serial — and the output still
        # does not move by a byte.
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = _generate(
                "fail_chunk:gen:*", workers=2, chunk_timeout=TIMEOUT, chunk_retries=0
            )
        assert result.ecc_set.to_json() == serial_json
        assert result.stats.perf.get("resilience.rounds_degraded", 0) >= 1


class TestNoLeakedWorkers:
    def _foreign_children(self, before):
        return {
            child.pid
            for child in multiprocessing.active_children()
            if child.pid not in before
        }

    def test_exception_mid_round_terminates_every_worker(self):
        # PR 6's pool-leak bugfix: when an exception escapes between pool
        # creation and the end of the round loop, every worker process must
        # still be torn down.  crash_run raises in the parent mid-run with
        # both pools alive — the historical leak scenario.
        before = {child.pid for child in multiprocessing.active_children()}
        faults.set_fault_plan(FaultPlan.from_string("crash_run:gen:round1"))
        generator = RepGen(
            NAM, num_qubits=2, num_params=2, workers=2, verify_workers=2
        )
        with pytest.raises(FaultInjected):
            generator.generate(2)
        deadline = time.perf_counter() + 10.0
        while self._foreign_children(before) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert self._foreign_children(before) == set()

    def test_pool_context_manager_terminates_workers(self):
        before = {child.pid for child in multiprocessing.active_children()}
        generator = RepGen(NAM, num_qubits=2, num_params=2)
        with ShardMap(
            "gen",
            FingerprintContext.from_spec,
            generator.fingerprints.spec(),
            hash_keys_for_chunk,
            2,
            min_batch=1,
        ) as shard_map:
            assert shard_map.active
        deadline = time.perf_counter() + 10.0
        while self._foreign_children(before) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert self._foreign_children(before) == set()


def _noop_init() -> None:
    pass


def _buggy_chunk_fn(payload):
    chunk, _token = payload
    return chunk + None  # seeded TypeError: a bug, not an infrastructure fault


class TestProgrammingErrorsSurface:
    def test_seeded_typeerror_in_chunk_fn_propagates(self):
        # The retry loop absorbs infrastructure faults (timeouts, crashes,
        # FaultInjected) — a TypeError from a buggy chunk function must NOT
        # be retried into RetryExhausted and a degraded round; it surfaces
        # with its original type so the bug is debuggable.
        from repro.perf import PerfRecorder

        perf = PerfRecorder()
        with ResilientPool(
            _buggy_chunk_fn,
            _noop_init,
            (),
            2,
            site="gen",
            chunk_timeout=TIMEOUT,
            chunk_retries=3,
            perf=perf,
        ) as pool:
            with pytest.raises(TypeError):
                pool.run_chunks([1, 2, 3])
        # No retry budget was burned on the programming error.
        assert perf.value("resilience.chunk_retries") == 0
        assert perf.value("resilience.chunk_failures") == 0

    def test_fault_injected_stays_retryable(self):
        # Contrast: the chaos machinery's own exception remains on the
        # absorb-and-retry path (fail_chunk recovery is exercised end-to-end
        # in TestByteIdentityUnderFaults; this pins the classification).
        from repro.workerpool import _RETRYABLE_CHUNK_ERRORS

        assert issubclass(FaultInjected, _RETRYABLE_CHUNK_ERRORS)
        assert not issubclass(TypeError, _RETRYABLE_CHUNK_ERRORS)


class TestChunkPurity:
    def test_chunk_results_are_bit_identical_on_re_execution(self):
        # The safety argument for re-dispatch: a chunk's results are a pure
        # function of (chunk payload, worker-initializer spec), so a retried
        # chunk returns exactly what the first dispatch would have.
        generator = RepGen(NAM, num_qubits=2, num_params=2)
        parent = generator.generate(1).representatives[0]
        extensions = list(generator.single_gate_instructions(parent.used_params()))
        assert extensions
        chunk = [(parent, extensions)]
        spec = generator.fingerprints.spec()
        # Through the shared worker initializer and chunk runner, exactly
        # as a (re)spawned worker executes it.
        init_spec_worker(FingerprintContext.from_spec, spec, hash_keys_for_chunk)
        first, _ = run_spec_chunk((chunk, None))
        init_spec_worker(FingerprintContext.from_spec, spec, hash_keys_for_chunk)
        second, _ = run_spec_chunk((chunk, None))
        assert [keys for keys, _ in first] == [keys for keys, _ in second]
        for (_, states_a), (_, states_b) in zip(first, second):
            for state_a, state_b in zip(states_a, states_b):
                assert (state_a is None) == (state_b is None)
                if state_a is not None:
                    assert np.array_equal(state_a, state_b)


class TestKnobResolution:
    def test_timeout_defaults_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert resolve_chunk_timeout(None) == 120.0
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        assert resolve_chunk_timeout(None) == 7.5

    def test_explicit_timeout_wins_and_nonpositive_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        assert resolve_chunk_timeout(3.0) == 3.0
        assert resolve_chunk_timeout(0) is None
        assert resolve_chunk_timeout(-1) is None

    def test_retries_default_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_RETRIES", raising=False)
        assert resolve_chunk_retries(None) == 2
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "5")
        assert resolve_chunk_retries(None) == 5

    def test_explicit_retries_clamp_at_zero(self):
        assert resolve_chunk_retries(3) == 3
        assert resolve_chunk_retries(-2) == 0

    def test_single_worker_pool_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ResilientPool(print, print, (), 1, site="gen")
