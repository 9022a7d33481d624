"""Tests for the sweep orchestration subsystem (:mod:`repro.runner`)."""

from __future__ import annotations

import math

import pytest

from repro.baselines import ZeroInfinityPolicy
from repro.core import RatelPolicy
from repro.core.evaluation import EvalOutcome
from repro.faults import (
    CrashPolicy,
    FaultInjected,
    FlakyPolicy,
    FlakyThenSlowPolicy,
    PoisonPolicy,
    SlowPolicy,
)
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.runner import (
    CacheKeyError,
    PointFailure,
    ProgressEvent,
    ResultCache,
    Sweep,
    SweepError,
    SweepPoint,
    cache_key,
    compute_point,
    is_failure,
)
from repro.runner.cache import CORRUPT

SERVER = evaluation_server()
CONFIG = llm("13B")


def grid(batches=(8, 16), policies=(ZeroInfinityPolicy(), RatelPolicy())):
    return [
        SweepPoint.evaluate(policy, CONFIG, batch, SERVER)
        for batch in batches
        for policy in policies
    ]


class TestCacheKeys:
    def test_deterministic_across_instances(self):
        """Fresh-but-equal policies/configs/servers produce the same key."""
        a = SweepPoint.evaluate(RatelPolicy(), llm("13B"), 32, evaluation_server())
        b = SweepPoint.evaluate(RatelPolicy(), llm("13B"), 32, evaluation_server())
        assert a.key() == b.key()

    def test_distinguishes_batch(self):
        a = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        b = SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER)
        assert a.key() != b.key()

    def test_distinguishes_policy_variant(self):
        a = SweepPoint.evaluate(RatelPolicy("optimized"), CONFIG, 32, SERVER)
        b = SweepPoint.evaluate(RatelPolicy("naive"), CONFIG, 32, SERVER)
        assert a.key() != b.key()

    def test_distinguishes_server(self):
        a = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, evaluation_server(n_ssds=12))
        b = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, evaluation_server(n_ssds=6))
        assert a.key() != b.key()

    def test_distinguishes_kind(self):
        a = SweepPoint.evaluate(RatelPolicy(), CONFIG, 1, SERVER)
        b = SweepPoint.max_trainable(RatelPolicy(), SERVER)
        assert a.key() != b.key()

    def test_private_policy_state_excluded(self):
        """Planner memo tables must not leak into the content key."""
        policy = RatelPolicy()
        before = SweepPoint.evaluate(policy, CONFIG, 32, SERVER).key()
        policy.plan(profile_model(CONFIG, 32), SERVER)  # populates _plan_cache
        after = SweepPoint.evaluate(policy, CONFIG, 32, SERVER).key()
        assert before == after

    def test_unserialisable_component_raises(self):
        with pytest.raises(CacheKeyError):
            cache_key("test", payload=object())


class TestSweepCaching:
    def test_hit_returns_identical_metrics(self):
        sweep = Sweep()
        first = sweep.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        second = sweep.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        assert not first.cached
        assert second.cached
        assert second.tokens_per_s == first.tokens_per_s
        assert second.metrics == first.metrics
        assert sweep.stats.hits == 1
        assert sweep.stats.misses == 1

    def test_duplicate_points_computed_once(self):
        sweep = Sweep()
        point = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        results = sweep.run([point, point, point])
        assert sweep.stats.misses == 1
        assert results[0].tokens_per_s == results[1].tokens_per_s == results[2].tokens_per_s

    def test_disk_cache_roundtrip(self, tmp_path):
        first = Sweep(cache_dir=str(tmp_path))
        outcome = first.evaluate(RatelPolicy(), CONFIG, 32, SERVER)

        second = Sweep(cache_dir=str(tmp_path))
        restored = second.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        assert restored.cached
        assert second.stats.disk_hits == 1
        assert restored.tokens_per_s == outcome.tokens_per_s
        assert restored.metrics == outcome.metrics
        assert restored.result is None  # traces stay out of the JSON layer

    def test_detail_restores_live_result(self, tmp_path):
        Sweep(cache_dir=str(tmp_path)).evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        fresh = Sweep(cache_dir=str(tmp_path))
        outcome = fresh.evaluate(RatelPolicy(), CONFIG, 32, SERVER, detail=True)
        assert outcome.require_result().trace is not None

    def test_scalar_points_cached(self):
        sweep = Sweep()
        a = sweep.max_trainable(RatelPolicy(), SERVER)
        b = sweep.max_trainable(RatelPolicy(), SERVER)
        assert a == b
        assert sweep.stats.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        sweep = Sweep(cache_dir=str(tmp_path))
        point = SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER)
        sweep.run_point(point)
        for path in tmp_path.rglob("*.json"):
            path.write_text("{not json")
        fresh = Sweep(cache_dir=str(tmp_path))
        outcome = fresh.run_point(point)
        assert isinstance(outcome, EvalOutcome)
        assert fresh.stats.disk_hits == 0

    def test_edited_disk_entry_is_quarantined_not_served(self, tmp_path):
        """A still-valid-JSON edit of a stored number must fail the CRC."""
        point = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        true_time = Sweep(cache_dir=str(tmp_path)).run_point(point).iteration_time
        [entry] = tmp_path.rglob("*.json")
        stored = f'"iteration_time": {true_time!r}'
        edited = f'"iteration_time": 9{true_time!r}'
        text = entry.read_text()
        assert stored in text
        entry.write_text(text.replace(stored, edited))

        fresh = Sweep(cache_dir=str(tmp_path))
        outcome = fresh.run_point(point)
        assert outcome.iteration_time == true_time
        assert not outcome.cached
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert entry.with_name(entry.name + ".corrupt").exists()
        metrics = fresh.metrics()
        assert metrics.value("sweep_cache_corrupt_total", kind="evaluate") == 1
        assert metrics.value("sweep_cache_misses_total", kind="evaluate") == 1


class TestExecutorEquivalence:
    def _values(self, outcomes):
        return [
            o.tokens_per_s if o.feasible else None for o in outcomes
        ]

    def test_process_pool_matches_serial(self):
        serial = Sweep(executor="serial").run(grid())
        parallel = Sweep(executor="process", max_workers=2).run(grid())
        assert self._values(serial) == self._values(parallel)

    def test_thread_pool_matches_serial(self):
        serial = Sweep(executor="serial").run(grid())
        threaded = Sweep(executor="thread", max_workers=2).run(grid())
        assert self._values(serial) == self._values(threaded)

    def test_results_ordered_like_input(self):
        points = grid(batches=(8, 16, 32))
        outcomes = Sweep(executor="process", max_workers=3).run(points)
        for point, outcome in zip(points, outcomes):
            assert outcome.policy == point.policy.name
            assert outcome.batch_size == point.batch_size

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            Sweep(executor="fork-bomb")


class TestProgressHook:
    def test_fires_once_per_point(self):
        events: list[ProgressEvent] = []
        sweep = Sweep(progress=events.append)
        points = grid()
        sweep.run(points)
        assert len(events) == len(points)
        assert {e.index for e in events} == set(range(len(points)))
        assert all(e.total == len(points) for e in events)
        assert not any(e.cached for e in events)

    def test_cached_flag_on_rerun(self):
        events: list[ProgressEvent] = []
        sweep = Sweep(progress=events.append)
        sweep.run(grid())
        events.clear()
        sweep.run(grid())
        assert events and all(e.cached for e in events)


class TestEvalOutcome:
    def test_payload_roundtrip(self):
        outcome = compute_point(SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER))
        restored = EvalOutcome.from_payload(outcome.to_payload())
        assert restored.tokens_per_s == outcome.tokens_per_s
        assert restored.metrics == outcome.metrics
        assert restored.plan.a_g2m == outcome.plan.a_g2m
        assert restored.feasible == outcome.feasible

    def test_infeasible_metrics_are_nan(self):
        outcome = compute_point(
            SweepPoint.evaluate(RatelPolicy(), llm("412B"), 64, evaluation_server(n_ssds=1))
        )
        assert not outcome.feasible
        assert math.isnan(outcome.tokens_per_s)
        assert "cannot fit" in outcome.reason
        with pytest.raises(ValueError, match="not simulated"):
            outcome.require_result()

    def test_policy_evaluate_matches_simulate(self):
        """The rich outcome carries exactly the legacy simulate() numbers."""
        policy = RatelPolicy()
        profile = profile_model(CONFIG, 32)
        outcome = policy.evaluate(profile, SERVER)
        legacy = policy.simulate(profile, SERVER)
        assert outcome.tokens_per_s == legacy.tokens_per_s
        assert outcome.iteration_time == legacy.iteration_time


class TestResultCacheUnit:
    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_stats_hit_rate(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_get_reports_a_quarantined_entry_for_that_call(self, tmp_path):
        ResultCache(disk_dir=tmp_path).put("k", 1, {"v": 1})
        (tmp_path / "k.json").write_bytes(b"junk")
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get("k") == (CORRUPT, None)
        assert cache.get("k") is None  # already quarantined: a plain miss
        assert (cache.stats.corrupt, cache.stats.misses) == (1, 2)


class TestProgressHookResilience:
    def test_raising_hook_does_not_abort_the_sweep(self, caplog):
        """S1: a broken observer must not kill the run it observes."""

        def explode(event):
            raise RuntimeError("observer bug")

        sweep = Sweep(progress=explode)
        points = grid()
        with caplog.at_level("ERROR", logger="repro.runner"):
            outcomes = sweep.run(points)
        assert len(outcomes) == len(points)
        assert all(isinstance(o, EvalOutcome) for o in outcomes)
        assert any("progress hook raised" in r.message for r in caplog.records)

    def test_raising_hook_logged_once_per_point(self, caplog):
        calls = []

        def explode(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        points = grid()
        with caplog.at_level("ERROR", logger="repro.runner"):
            Sweep(progress=explode).run(points)
        assert len(calls) == len(points)


class TestSweepValidation:
    def test_unknown_on_error_rejected(self):
        with pytest.raises(SweepError):
            Sweep(on_error="shrug")

    def test_negative_retries_rejected(self):
        with pytest.raises(SweepError):
            Sweep(retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(SweepError):
            Sweep(timeout=0.0)


class TestQuarantineSerial:
    def test_poisoned_point_quarantined_others_complete(self):
        sweep = Sweep(retries=1, retry_backoff_s=0.001, on_error="quarantine")
        points = [
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER),
        ]
        outcomes = sweep.run(points)
        assert isinstance(outcomes[0], EvalOutcome) and outcomes[0].feasible
        assert isinstance(outcomes[2], EvalOutcome) and outcomes[2].feasible
        failure = outcomes[1]
        assert is_failure(failure)
        assert failure.error_type == "FaultInjected"
        assert failure.attempts == 2  # first try + one retry
        assert not failure.feasible  # renders as a non-result in tables
        assert "quarantined" in str(failure)

    def test_default_mode_still_raises(self):
        sweep = Sweep()
        with pytest.raises(FaultInjected):
            sweep.run([SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER)])

    def test_retry_rescues_flaky_point(self, tmp_path):
        sweep = Sweep(retries=2, retry_backoff_s=0.001, on_error="quarantine")
        policy = FlakyPolicy(str(tmp_path), fail_times=2)
        [outcome] = sweep.run([SweepPoint.evaluate(policy, CONFIG, 8, SERVER)])
        assert isinstance(outcome, EvalOutcome)

    def test_failures_never_cached(self, tmp_path):
        """A quarantined point is recomputed on the next run — and can heal."""
        sweep = Sweep(retries=0, on_error="quarantine", cache_dir=str(tmp_path / "cache"))
        policy = FlakyPolicy(str(tmp_path), fail_times=1)
        point = SweepPoint.evaluate(policy, CONFIG, 8, SERVER)
        [first] = sweep.run([point])
        assert is_failure(first)
        [second] = sweep.run([point])  # sentinel consumed: now healthy
        assert isinstance(second, EvalOutcome)

    def test_point_failure_is_frozen_metadata(self):
        failure = PointFailure(
            kind="evaluate", label="x", error_type="OSError", message="boom", attempts=3
        )
        assert not failure.feasible
        assert "3 attempt(s)" in str(failure)
        assert "OSError" in str(failure)


class TestQuarantinePool:
    def test_worker_crash_and_poison_quarantine_only_the_poison(self, tmp_path):
        """The acceptance scenario: one worker hard-crashes (retried after
        the pool is rebuilt), one point always raises (quarantined); the
        healthy points all complete."""
        points = [
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(CrashPolicy(str(tmp_path)), CONFIG, 8, SERVER),
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER),
        ]
        sweep = Sweep(
            executor="process",
            max_workers=2,
            retries=2,
            retry_backoff_s=0.01,
            on_error="quarantine",
        )
        outcomes = sweep.run(points)
        assert isinstance(outcomes[0], EvalOutcome) and outcomes[0].feasible
        assert isinstance(outcomes[1], EvalOutcome)  # crash retried to success
        assert is_failure(outcomes[2])  # only the poisoned point fails
        assert outcomes[2].error_type == "FaultInjected"
        assert isinstance(outcomes[3], EvalOutcome) and outcomes[3].feasible

    def test_worker_crash_raises_without_retries(self, tmp_path):
        # A second point keeps the sweep on the pool path (a single
        # unique point with no timeout drains serially in-process).
        sweep = Sweep(executor="process", max_workers=2, on_error="raise")
        points = [
            SweepPoint.evaluate(CrashPolicy(str(tmp_path)), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
        ]
        with pytest.raises(Exception):  # noqa: B017 - BrokenProcessPool
            sweep.run(points)

    def test_flaky_point_retried_across_workers(self, tmp_path):
        sweep = Sweep(
            executor="process",
            max_workers=2,
            retries=2,
            retry_backoff_s=0.01,
            on_error="quarantine",
        )
        policy = FlakyPolicy(str(tmp_path), fail_times=2)
        outcomes = sweep.run(
            [
                SweepPoint.evaluate(policy, CONFIG, 8, SERVER),
                SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            ]
        )
        assert all(isinstance(o, EvalOutcome) for o in outcomes)

    def test_timeout_quarantines_slow_point_only(self):
        sweep = Sweep(
            executor="process", max_workers=2, timeout=0.5, on_error="quarantine"
        )
        outcomes = sweep.run(
            [
                SweepPoint.evaluate(SlowPolicy(2.0), CONFIG, 8, SERVER),
                SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            ]
        )
        assert is_failure(outcomes[0])
        assert outcomes[0].timed_out
        assert "timeout" in outcomes[0].message
        assert isinstance(outcomes[1], EvalOutcome) and outcomes[1].feasible

    def test_timeout_raises_in_fail_fast_mode(self):
        sweep = Sweep(executor="process", max_workers=1, timeout=0.5, on_error="raise")
        with pytest.raises(TimeoutError):
            sweep.run([SweepPoint.evaluate(SlowPolicy(2.0), CONFIG, 8, SERVER)])


class TestShimsRemoved:
    """The pre-``evaluate()`` shims are gone after their deprecation cycle."""

    def test_legacy_helpers_are_gone(self):
        import repro.experiments.common as common

        assert not hasattr(common, "throughput_tokens_per_s")
        assert not hasattr(common, "best_throughput")


class TestSummaryLine:
    """Every ``run()`` ends with one INFO line a human can grep for."""

    def test_clean_run_logs_counts(self, caplog):
        sweep = Sweep()
        with caplog.at_level("INFO", logger="repro.runner"):
            sweep.run(grid(batches=(8,)))
        [line] = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep:")
        ]
        assert "2 points, 2 computed, 0 cache hits, 0 quarantined" in line
        assert "last failure" not in line

    def test_quarantined_run_names_the_last_failure(self, caplog):
        sweep = Sweep(retries=0, on_error="quarantine")
        points = [
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
        ]
        with caplog.at_level("INFO", logger="repro.runner"):
            sweep.run(points)
        [line] = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep:")
        ]
        assert "1 quarantined" in line
        assert "last failure" in line
        assert "FaultInjected" in line

    def test_cache_hits_counted(self, caplog, tmp_path):
        sweep = Sweep(cache_dir=str(tmp_path))
        points = grid(batches=(8,))
        sweep.run(points)
        with caplog.at_level("INFO", logger="repro.runner"):
            sweep.run(points)
        [line] = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep:")
        ]
        assert "0 computed, 2 cache hits" in line


class TestRetryThenTimeout:
    def test_transient_failure_then_slow_retry_quarantines(self, tmp_path):
        """A point whose retry hangs burns both its attempts: the first
        raises (earning the retry), the retry hits the per-point timeout."""
        sweep = Sweep(
            executor="process",
            max_workers=2,
            retries=1,
            retry_backoff_s=0.01,
            timeout=0.5,
            on_error="quarantine",
        )
        policy = FlakyThenSlowPolicy(str(tmp_path), delay_s=2.0)
        [failure] = sweep.run([SweepPoint.evaluate(policy, CONFIG, 8, SERVER)])
        assert is_failure(failure)
        assert failure.attempts == 2
        assert failure.timed_out
        assert "timeout" in failure.message
