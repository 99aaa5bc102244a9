"""Tests for sharded multiprocess RepGen fingerprinting (the ``gen`` site).

The load-bearing property is *determinism*: a multi-worker run must produce
an ECC set that is byte-identical (via ``ECCSet.to_json``) to the serial
run's, because workers only compute fingerprint hash keys while all ECC
inserts and verifier calls happen in the parent in enumeration order.
"""

from __future__ import annotations

import pickle

import pytest

from repro.envconfig import WORKERS_ENV_VAR
from repro.errors import RetryExhausted
from repro.generator import RepGen
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate, get_gate
from repro.ir.gatesets import NAM
from repro.semantics.fingerprint import FingerprintContext
from repro.workerpool import ResilientPool, resolve_workers


def _generate(workers):
    return RepGen(NAM, num_qubits=2, num_params=2, workers=workers).generate(2)


@pytest.fixture(scope="module")
def serial_result():
    return _generate(workers=1)


class TestParallelEqualsSerial:
    def test_two_workers_byte_identical(self, serial_result):
        parallel = _generate(workers=2)
        assert parallel.ecc_set.to_json() == serial_result.ecc_set.to_json()

    def test_four_workers_byte_identical(self, serial_result):
        parallel = _generate(workers=4)
        assert parallel.ecc_set.to_json() == serial_result.ecc_set.to_json()

    def test_representatives_and_stats_match(self, serial_result):
        parallel = _generate(workers=2)
        assert [c.sequence_key() for c in parallel.representatives] == [
            c.sequence_key() for c in serial_result.representatives
        ]
        assert (
            parallel.stats.circuits_considered
            == serial_result.stats.circuits_considered
        )
        assert parallel.stats.num_eccs == serial_result.stats.num_eccs

    def test_parallel_counters_surfaced(self):
        result = _generate(workers=2)
        assert result.stats.perf.get("parallel.gen.pools") == 1
        assert result.stats.perf.get("parallel.gen.workers") == 2
        assert result.stats.perf.get("parallel.gen.rounds", 0) >= 1
        candidates = result.stats.perf.get("repgen.parallel.candidates", 0)
        assert candidates > 0
        # Worker states are copied back into the parent's fingerprint cache
        # so the verifier's phase screen reuses them during the inserts.
        assert result.stats.perf.get("repgen.parallel.states_seeded") == candidates

    def test_pool_failure_falls_back_to_serial(self, serial_result, monkeypatch):
        # A PoolError is what escapes the pool when a chunk exhausted its
        # retry budget (RetryExhausted is a PoolError); the round — not the
        # run — then degrades to serial with identical output.
        def explode(self, chunks, *, round_index=None):
            raise RetryExhausted("injected worker failure")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = _generate(workers=2)
        assert result.ecc_set.to_json() == serial_result.ecc_set.to_json()
        assert result.stats.perf.get("parallel.gen.round_failures", 0) >= 1
        assert result.stats.perf.get(
            "resilience.rounds_degraded"
        ) == result.stats.perf.get("parallel.gen.round_failures")

    def test_non_pool_errors_surface(self, monkeypatch):
        # Programming bugs must not silently degrade to serial: only
        # PoolError (pool infrastructure) triggers the fallback.
        def explode(self, chunks, *, round_index=None):
            raise TypeError("a bug, not an infrastructure failure")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        with pytest.raises(TypeError, match="a bug"):
            _generate(workers=2)

    def test_pool_setup_failure_falls_back_to_serial(self, serial_result, monkeypatch):
        def explode(self):
            raise OSError("injected fork failure")

        monkeypatch.setattr(ResilientPool, "_spawn", explode)
        with pytest.warns(RuntimeWarning, match="running serially"):
            result = _generate(workers=2)
        assert result.ecc_set.to_json() == serial_result.ecc_set.to_json()
        assert result.stats.perf.get("parallel.gen.setup_failures") == 1
        assert "parallel.gen.pools" not in result.stats.perf


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3, WORKERS_ENV_VAR) == 3

    def test_env_var_is_read(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert resolve_workers(None, WORKERS_ENV_VAR) == 4
        assert RepGen(NAM, num_qubits=2).workers == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None, WORKERS_ENV_VAR) == 1

    def test_garbage_env_var_warns_and_runs_serially(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.warns(RuntimeWarning, match="non-integer"):
            assert resolve_workers(None, WORKERS_ENV_VAR) == 1

    def test_nonpositive_values_clamp_to_serial(self):
        assert resolve_workers(0, WORKERS_ENV_VAR) == 1
        assert resolve_workers(-3, WORKERS_ENV_VAR) == 1


class TestPicklability:
    def test_fingerprint_context_spec_roundtrip(self):
        context = FingerprintContext(3, 2, seed=7)
        rebuilt = FingerprintContext.from_spec(context.spec())
        circuit = Circuit(3).h(0).cx(0, 1).t(2)
        assert rebuilt.hash_key(circuit) == context.hash_key(circuit)
        assert rebuilt.param_values == context.param_values

    def test_fingerprint_context_pickles(self):
        context = FingerprintContext(2, 2, seed=11)
        rebuilt = pickle.loads(pickle.dumps(context))
        circuit = Circuit(2).h(0).cx(0, 1)
        assert rebuilt.hash_key(circuit) == context.hash_key(circuit)

    def test_registered_gates_pickle_by_reference(self):
        gate = get_gate("h")
        assert pickle.loads(pickle.dumps(gate)) is gate

    def test_circuits_with_constant_gates_pickle(self):
        # Constant gates memoize their matrix through a closure, which value
        # pickling cannot handle; the registry-reference __reduce__ makes
        # whole circuits (what the worker pool ships) picklable anyway.
        circuit = Circuit(2).h(0).cx(0, 1).t(1)
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored == circuit

    def test_unregistered_gate_pickle_raises_clear_error(self):
        import numpy as np

        rogue = Gate(
            "h",  # shadows a registry name but is a different instance
            1,
            0,
            lambda _params: np.eye(2, dtype=complex),
            lambda _builder, _angles: None,
        )
        with pytest.raises(pickle.PicklingError, match="registered"):
            pickle.dumps(rogue)
