"""MemberExecutor: bounded scatter-gather of per-member I/O.

The contract under test, from ``docs/concurrency.md``: outcomes come
back in *task order* no matter how the pool interleaved the work;
ordinary ``Exception`` failures are captured per-outcome while a
``BaseException`` (a simulated crash) is fatal; ``parallel="off"`` and
single-task calls degrade to the deterministic inline loop; deadlines
abandon stragglers without stalling the rest; hedged reads give a
straggling scan a second worker and keep whichever attempt wins.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlineExceededError, FederationError
from repro.multidb.executor import (
    DEFAULT_WORKER_CAP,
    MemberExecutor,
    MemberOutcome,
    MemberTask,
)
from repro.obs import InMemoryCollector, Observability

pytestmark = pytest.mark.concurrency


def make_obs():
    collector = InMemoryCollector()
    obs = Observability(enabled=True, exporters=[collector])
    return obs, collector


def names_and_values(outcomes):
    return [(outcome.name, outcome.value) for outcome in outcomes]


class TestConstruction:
    def test_rejects_bad_parallel_mode(self):
        with pytest.raises(FederationError, match="parallel must be"):
            MemberExecutor(parallel="maybe")

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "four"])
    def test_rejects_bad_max_workers(self, bad):
        with pytest.raises(FederationError, match="max_workers"):
            MemberExecutor(max_workers=bad)

    @pytest.mark.parametrize("bad", [0, -0.5])
    def test_rejects_bad_hedge_after(self, bad):
        with pytest.raises(FederationError, match="hedge_after"):
            MemberExecutor(hedge_after=bad)

    def test_default_pool_is_capped(self):
        executor = MemberExecutor(parallel="on")
        try:
            executor.map([MemberTask(f"m{i}", lambda i=i: i)
                          for i in range(DEFAULT_WORKER_CAP + 4)])
            assert executor._pool_size == DEFAULT_WORKER_CAP
        finally:
            executor.shutdown()


class TestSerialFallback:
    def test_parallel_off_runs_inline_in_order(self):
        calls = []

        def record(name):
            calls.append(name)
            return name.upper()

        executor = MemberExecutor(parallel="off")
        outcomes = executor.map(
            [MemberTask(n, lambda n=n: record(n)) for n in ("a", "b", "c")]
        )
        assert calls == ["a", "b", "c"]
        assert names_and_values(outcomes) == [
            ("a", "A"), ("b", "B"), ("c", "C")
        ]
        assert all(o.ok and o.latency is not None for o in outcomes)
        assert executor._pool is None  # no threads were harmed

    def test_empty_task_list(self):
        assert MemberExecutor().map([]) == []

    def test_exceptions_are_captured_per_outcome(self):
        executor = MemberExecutor(parallel="off")
        boom = ValueError("boom")

        def fail():
            raise boom

        outcomes = executor.map([
            MemberTask("good", lambda: 1),
            MemberTask("bad", fail),
            MemberTask("rest", lambda: 3),
        ])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error is boom

    def test_base_exception_propagates_immediately(self):
        executor = MemberExecutor(parallel="off")
        ran = []

        def die():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            executor.map([
                MemberTask("dying", die),
                MemberTask("never", lambda: ran.append("never")),
            ])
        assert ran == []

    def test_single_task_is_inline_even_when_parallel(self):
        executor = MemberExecutor(parallel="on")
        try:
            (outcome,) = executor.map([MemberTask("only", lambda: 42)])
            assert outcome.value == 42
            assert executor._pool is None
        finally:
            executor.shutdown()


class TestScatterGather:
    def test_outcomes_come_back_in_task_order(self):
        """The first task finishes last; the gathered list is still in
        task order with every value in its slot."""
        release = threading.Event()

        def slow():
            assert release.wait(5.0)
            return "slow"

        executor = MemberExecutor(parallel="on", max_workers=4)
        try:
            finished = []

            def quick(name):
                finished.append(name)
                if len(finished) >= 2:
                    release.set()
                return name

            outcomes = executor.map([
                MemberTask("a", slow),
                MemberTask("b", lambda: quick("b")),
                MemberTask("c", lambda: quick("c")),
            ])
            assert names_and_values(outcomes) == [
                ("a", "slow"), ("b", "b"), ("c", "c")
            ]
        finally:
            executor.shutdown()

    def test_every_task_runs_despite_failures(self):
        executor = MemberExecutor(parallel="on", max_workers=2)
        try:
            ran = []

            def fail(name):
                ran.append(name)
                raise ValueError(name)

            outcomes = executor.map([
                MemberTask("a", lambda: fail("a")),
                MemberTask("b", lambda: ran.append("b") or "b"),
                MemberTask("c", lambda: fail("c")),
            ])
            assert sorted(ran) == ["a", "b", "c"]
            assert [o.ok for o in outcomes] == [False, True, False]
            assert str(outcomes[0].error) == "a"
            assert str(outcomes[2].error) == "c"
        finally:
            executor.shutdown()

    def test_fatal_error_reraises_after_gathering(self):
        """A BaseException is gathered, then re-raised — the other
        tasks still ran to completion."""
        executor = MemberExecutor(parallel="on", max_workers=2)
        try:
            ran = []

            def die():
                raise KeyboardInterrupt()

            with pytest.raises(KeyboardInterrupt):
                executor.map([
                    MemberTask("dying", die),
                    MemberTask("other", lambda: ran.append("other")),
                ])
            assert ran == ["other"]
        finally:
            executor.shutdown()

    def test_deadline_abandons_the_straggler(self):
        release = threading.Event()

        def straggler():
            assert release.wait(5.0)
            return "late"

        obs, _ = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=2, obs=obs)
        try:
            outcomes = executor.map([
                MemberTask("slow", straggler, deadline=0.05),
                MemberTask("fast", lambda: "ok"),
            ])
            assert outcomes[0].timed_out
            assert isinstance(outcomes[0].error, DeadlineExceededError)
            assert outcomes[1].value == "ok"
            assert obs.metrics.counter_value("connector.pool.rejected") >= 1
        finally:
            release.set()
            executor.shutdown()

    def test_hedge_wins_when_the_primary_stalls(self):
        release = threading.Event()
        attempts = []

        def scan():
            attempts.append(threading.get_ident())
            if len(attempts) == 1:
                assert release.wait(5.0)  # the primary stalls
                return "stale"
            return "fresh"  # the hedge returns immediately

        obs, _ = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=4,
                                  hedge_after=0.02, obs=obs)
        try:
            outcomes = executor.map([
                MemberTask("m", scan, hedge=True),
                MemberTask("other", lambda: "other"),
            ])
            assert outcomes[0].hedged
            assert outcomes[0].value == "fresh"
            metrics = obs.metrics
            assert metrics.counter_value("connector.pool.hedges") == 1
            assert metrics.counter_value("connector.pool.rejected") >= 1
        finally:
            release.set()
            executor.shutdown()

    def test_pool_counters_balance(self):
        obs, _ = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=4, obs=obs)
        try:
            executor.map([MemberTask(f"m{i}", lambda i=i: i)
                          for i in range(6)])
            metrics = obs.metrics
            assert metrics.counter_value("connector.pool.submitted") == 6
            assert metrics.counter_value("connector.pool.completed") == 6
            assert metrics.counter_value("connector.pool.rejected") == 0
        finally:
            executor.shutdown()

    def test_latency_histogram_is_tagged_by_member(self):
        obs, _ = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=2, obs=obs)
        try:
            executor.map([
                MemberTask("alpha", lambda: time.sleep(0.01)),
                MemberTask("beta", lambda: None),
            ])
            snapshot = obs.metrics.snapshot()["histograms"]
            tagged = {name for name in snapshot
                      if name.startswith("connector.pool.latency")}
            assert any("alpha" in name for name in tagged)
            assert any("beta" in name for name in tagged)
        finally:
            executor.shutdown()


class TestSpans:
    def test_scatter_span_has_a_child_per_member_in_task_order(self):
        obs, collector = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=4, obs=obs)
        try:
            executor.map(
                [MemberTask(n, lambda n=n: n) for n in ("c", "a", "b")],
                label="probe",
            )
            root = collector.find("scatter-gather")
            assert root is not None
            assert root.attributes["op"] == "probe"
            assert root.attributes["tasks"] == 3
            assert [child.name for child in root.children] == \
                ["scatter-gather.member"] * 3
            assert [child.attributes["member"] for child in root.children] \
                == ["c", "a", "b"]
            assert all(child.attributes["latency_ms"] >= 0.0
                       for child in root.children)
        finally:
            executor.shutdown()

    def test_worker_spans_nest_under_their_member_span(self):
        """A span opened by the task callable on the worker thread lands
        under that task's pre-attached member span."""
        obs, collector = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=2, obs=obs)

        def traced(name):
            with obs.span("connector.scan", member=name):
                return name

        try:
            executor.map([
                MemberTask("x", lambda: traced("x")),
                MemberTask("y", lambda: traced("y")),
            ])
            root = collector.find("scatter-gather")
            for child in root.children:
                inner = [grand.name for grand in child.children]
                assert inner == ["connector.scan"]
                assert child.children[0].attributes["member"] == \
                    child.attributes["member"]
        finally:
            executor.shutdown()

    def test_serial_path_opens_no_scatter_span(self):
        obs, collector = make_obs()
        executor = MemberExecutor(parallel="off", obs=obs)
        executor.map([MemberTask(n, lambda n=n: n) for n in ("a", "b")])
        assert collector.find("scatter-gather") is None

    def test_failed_member_span_records_the_error(self):
        obs, collector = make_obs()
        executor = MemberExecutor(parallel="on", max_workers=2, obs=obs)

        def fail():
            raise ValueError("boom")

        try:
            executor.map([
                MemberTask("bad", fail),
                MemberTask("good", lambda: 1),
            ])
            root = collector.find("scatter-gather")
            by_member = {child.attributes["member"]: child
                         for child in root.children}
            assert by_member["bad"].attributes["error"] == "ValueError"
            assert "error" not in by_member["good"].attributes
        finally:
            executor.shutdown()


class TestOutcomeRepr:
    def test_reprs_are_stable(self):
        assert "ok" in repr(MemberOutcome("m", value=1))
        assert "ValueError" in repr(MemberOutcome("m", error=ValueError()))
        assert "hedge" in repr(MemberTask("m", lambda: 1)).lower()
