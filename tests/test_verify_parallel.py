"""Tests for sharded multiprocess verification (the ``verify`` site).

The load-bearing property is *determinism*: a run with verifier workers
must produce an ECC set byte-identical (via ``ECCSet.to_json``) to the
serial run's, because workers only answer (candidate, anchor) equivalence
questions while the assignment of candidates to classes happens in the
parent in enumeration order, consulting the precomputed verdict table.

A second family of tests pins the bucket-adjacency property the verdict
table inherits from ``_insert_circuit``: the ±1-bucket probing never
misses an equivalence that a full pairwise sweep over the resulting class
representatives finds — serial and 2-worker alike.
"""

from __future__ import annotations

import pickle

import pytest

from repro.envconfig import VERIFY_WORKERS_ENV_VAR
from repro.errors import RetryExhausted
from repro.generator import RepGen
from repro.ir.circuit import Circuit
from repro.ir.gatesets import NAM, GateSet
from repro.verifier import EquivalenceVerifier, VerifierStats
from repro.verifier.parallel import verify_chunk
from repro.workerpool import ResilientPool, ShardMap, resolve_workers, spec_pool


def _generate(verify_workers):
    return RepGen(
        NAM, num_qubits=2, num_params=2, verify_workers=verify_workers
    ).generate(2)


@pytest.fixture(scope="module")
def serial_result():
    return _generate(verify_workers=1)


class TestParallelVerificationEqualsSerial:
    def test_two_workers_byte_identical(self, serial_result):
        parallel = _generate(verify_workers=2)
        assert parallel.ecc_set.to_json() == serial_result.ecc_set.to_json()

    def test_four_workers_byte_identical(self, serial_result):
        parallel = _generate(verify_workers=4)
        assert parallel.ecc_set.to_json() == serial_result.ecc_set.to_json()

    def test_representatives_match(self, serial_result):
        parallel = _generate(verify_workers=2)
        assert [c.sequence_key() for c in parallel.representatives] == [
            c.sequence_key() for c in serial_result.representatives
        ]
        assert parallel.stats.num_eccs == serial_result.stats.num_eccs

    def test_combined_with_fingerprint_workers(self, serial_result):
        both = RepGen(
            NAM, num_qubits=2, num_params=2, workers=2, verify_workers=2
        ).generate(2)
        assert both.ecc_set.to_json() == serial_result.ecc_set.to_json()

    def test_worker_stats_aggregated_into_parent(self, serial_result):
        result = _generate(verify_workers=2)
        perf = result.stats.perf
        assert perf.get("parallel.verify.pools") == 1
        assert perf.get("parallel.verify.workers") == 2
        assert perf.get("parallel.verify.rounds", 0) >= 1
        assert perf.get("parallel.verify.jobs", 0) > 0
        # The insert loop answered every question from the table.
        assert perf.get("verifier.parallel.table_hits", 0) > 0
        assert perf.get("verifier.parallel.table_misses", 0) == 0
        # Aggregated worker VerifierStats are surfaced as verifier.workers.*
        # and roll up into the run's verification totals.
        worker_checks = perf.get("verifier.workers.checks", 0)
        assert isinstance(worker_checks, int) and worker_checks > 0
        assert perf.get("verifier.workers.symbolic_proofs", 0) > 0
        assert perf.get("verifier.workers.seconds", 0.0) > 0.0
        assert result.stats.verification_calls >= worker_checks
        # Speculation means at least as many checks as the serial run did.
        assert (
            result.stats.verification_calls
            >= serial_result.stats.verification_calls
        )

    def test_reused_generator_does_not_double_count_worker_stats(self):
        generator = RepGen(NAM, num_qubits=2, num_params=2, verify_workers=2)
        first = generator.generate(2)
        second = generator.generate(2)
        # Identical runs ask identical questions, and the perf recorder is
        # cumulative across runs — so the second snapshot must hold exactly
        # twice the first run's worker checks.  Re-merging the first run's
        # (cumulative) worker stats would make it three times.
        first_checks = first.stats.perf.get("verifier.workers.checks")
        assert first_checks > 0
        assert second.stats.perf.get("verifier.workers.checks") == 2 * first_checks

    def test_round_failure_falls_back_to_serial(self, serial_result, monkeypatch):
        # Only PoolError (infrastructure failure surviving the pool's own
        # retry loop) triggers the serial fallback; bugs surface instead.
        def explode(self, chunks, *, round_index=None):
            raise RetryExhausted("injected verifier worker failure")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = _generate(verify_workers=2)
        assert result.ecc_set.to_json() == serial_result.ecc_set.to_json()
        assert result.stats.perf.get("parallel.verify.round_failures", 0) >= 1
        assert result.stats.perf.get(
            "resilience.rounds_degraded"
        ) == result.stats.perf.get("parallel.verify.round_failures")

    def test_non_pool_errors_surface(self, monkeypatch):
        def explode(self, chunks, *, round_index=None):
            raise TypeError("a bug, not an infrastructure failure")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        with pytest.raises(TypeError, match="a bug"):
            _generate(verify_workers=2)

    def test_pool_setup_failure_falls_back_to_serial(self, serial_result, monkeypatch):
        def explode(self):
            raise OSError("injected fork failure")

        monkeypatch.setattr(ResilientPool, "_spawn", explode)
        with pytest.warns(RuntimeWarning, match="running serially"):
            result = _generate(verify_workers=2)
        assert result.ecc_set.to_json() == serial_result.ecc_set.to_json()
        assert result.stats.perf.get("parallel.verify.setup_failures") == 1

    def test_custom_verifier_subclass_verifies_serially(self, serial_result):
        class PickyVerifier(EquivalenceVerifier):
            pass

        verifier = PickyVerifier(2)
        with pytest.warns(RuntimeWarning, match="stock EquivalenceVerifier"):
            result = RepGen(
                NAM,
                num_qubits=2,
                num_params=2,
                verifier=verifier,
                verify_workers=2,
            ).generate(2)
        assert result.ecc_set.to_json() == serial_result.ecc_set.to_json()
        assert result.stats.perf.get("verifier.parallel.unsupported_verifier") == 1


class TestBucketAdjacency:
    """±1-bucket probing vs a full pairwise sweep at the quick scale.

    If the probing missed an equivalence, two circuits that belong together
    would land in different classes — and by transitivity their class
    representatives would verify as equivalent.  So the sweep checks every
    pair of distinct representatives and expects *no* equivalence.
    """

    # A small constant gate set keeps the all-pairs sweep tractable.
    MINI = GateSet("adjacency_mini", ["h", "cx", "t"], num_params=0)

    def _representatives(self, verify_workers):
        result = RepGen(
            self.MINI, num_qubits=2, num_params=0, verify_workers=verify_workers
        ).generate(2)
        return [circuit for circuit in result.representatives]

    def _assert_no_missed_equivalence(self, representatives):
        sweep = EquivalenceVerifier(num_params=0)
        for i, rep_a in enumerate(representatives):
            for rep_b in representatives[i + 1 :]:
                assert not sweep.verify(rep_a, rep_b).equivalent, (
                    f"bucket probing split an equivalence class: "
                    f"{rep_a} == {rep_b}"
                )

    def test_serial_probing_matches_full_sweep(self):
        representatives = self._representatives(verify_workers=1)
        assert len(representatives) > 1
        self._assert_no_missed_equivalence(representatives)

    def test_two_worker_probing_matches_full_sweep(self):
        serial = self._representatives(verify_workers=1)
        parallel = self._representatives(verify_workers=2)
        assert [c.sequence_key() for c in parallel] == [
            c.sequence_key() for c in serial
        ]
        self._assert_no_missed_equivalence(parallel)


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(VERIFY_WORKERS_ENV_VAR, "7")
        assert resolve_workers(3, VERIFY_WORKERS_ENV_VAR) == 3

    def test_env_var_is_read(self, monkeypatch):
        monkeypatch.setenv(VERIFY_WORKERS_ENV_VAR, "4")
        assert resolve_workers(None, VERIFY_WORKERS_ENV_VAR) == 4
        assert RepGen(NAM, num_qubits=2).verify_workers == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(VERIFY_WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None, VERIFY_WORKERS_ENV_VAR) == 1
        assert RepGen(NAM, num_qubits=2).verify_workers == 1

    def test_garbage_env_var_warns_and_runs_serially(self, monkeypatch):
        monkeypatch.setenv(VERIFY_WORKERS_ENV_VAR, "many")
        with pytest.warns(RuntimeWarning, match="non-integer"):
            assert resolve_workers(None, VERIFY_WORKERS_ENV_VAR) == 1

    def test_independent_of_fingerprint_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEN_WORKERS", "5")
        monkeypatch.delenv(VERIFY_WORKERS_ENV_VAR, raising=False)
        generator = RepGen(NAM, num_qubits=2)
        assert generator.workers == 5
        assert generator.verify_workers == 1


class TestVerifierSpec:
    def test_spec_roundtrip_preserves_verdicts(self):
        verifier = EquivalenceVerifier(
            num_params=2, search_linear_phase=True, seed=11
        )
        rebuilt = EquivalenceVerifier.from_spec(verifier.spec())
        assert rebuilt.num_params == verifier.num_params
        assert rebuilt.search_linear_phase is True
        assert rebuilt.seed == 11
        assert rebuilt.backend_name == verifier.backend_name
        equal = (Circuit(1).h(0).h(0), Circuit(1))
        different = (Circuit(1).x(0), Circuit(1).z(0))
        for pair in (equal, different):
            assert (
                rebuilt.verify(*pair).equivalent
                == verifier.verify(*pair).equivalent
            )

    def test_spec_is_picklable(self):
        spec = EquivalenceVerifier(num_params=1).spec()
        assert pickle.loads(pickle.dumps(spec)) == spec


def _verify_map(workers, perf=None):
    return ShardMap(
        "verify",
        EquivalenceVerifier.from_spec,
        EquivalenceVerifier(num_params=0).spec(),
        verify_chunk,
        workers,
        min_batch=1,
        perf=perf,
    )


class TestPoolDirectly:
    def test_verify_pairs_returns_results_in_pair_order(self):
        from repro.perf import PerfRecorder

        pairs = [
            (Circuit(1).h(0).h(0), Circuit(1)),  # equivalent
            (Circuit(1).x(0), Circuit(1).z(0)),  # not equivalent
            (Circuit(1).s(0).s(0), Circuit(1).z(0)),  # equivalent
        ]
        perf = PerfRecorder()
        with _verify_map(2, perf) as verify_map:
            outcomes = verify_map.map(pairs)
        assert [result.equivalent for result, _ in outcomes] == [True, False, True]
        stats = VerifierStats.merge(stats for _, stats in outcomes)
        assert stats.checks == len(pairs)
        assert isinstance(stats.checks, int)
        assert stats.time_seconds > 0.0
        # The workers' verifier.* counters came back and were merged.
        assert any(name.startswith("verifier.") for name in perf.counters)
        assert perf.value("parallel.verify.jobs") == len(pairs)

    def test_empty_batch(self):
        with _verify_map(2) as verify_map:
            assert verify_map.active
            assert verify_map.map([]) is None

    def test_single_worker_pool_rejected(self):
        with _verify_map(1) as verify_map:
            assert not verify_map.active
            assert verify_map.map([(Circuit(1), Circuit(1))]) is None
        with pytest.raises(ValueError, match="at least 2"):
            spec_pool(
                "verify",
                EquivalenceVerifier.from_spec,
                EquivalenceVerifier(num_params=0).spec(),
                verify_chunk,
                1,
            )
