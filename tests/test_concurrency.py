"""Parallel/serial equivalence: scatter-gather is an optimization,
never a semantics change.

The central property: a federation built with ``parallel="on"`` and
one built with ``parallel="off"`` — same members, same fault schedule
— produce identical ``QueryResult``/``UpdateResult`` *contents*
(answers, member outcomes, flushed flags, journal update ids) and,
when a flush fails partway, converge to identical member states after
recovery. Pool-level metrics (submitted/completed counters, latency
histograms) legitimately differ between the modes and are exactly the
things these tests never compare.

Fault schedules are per-member scripted counters
(:meth:`FaultyConnector.fail_next`), which are order-independent: each
member's connector is only ever driven by its own task, so the same
schedule bites identically no matter how the pool interleaves members.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemberUnavailableError, StaleMemberError
from repro.multidb import (
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    InMemoryJournal,
    ResiliencePolicy,
)
from repro.multidb.resilience import FakeClock
from repro.workloads.stocks import StockWorkload

pytestmark = pytest.mark.concurrency

STYLES = ("euter", "chwab", "ource")


def canon(relations):
    return {
        rel: sorted(json.dumps(row, sort_keys=True) for row in rows)
        for rel, rows in relations.items()
    }


class Twin:
    """One federation (either mode) over per-member fault injectors."""

    def __init__(self, workload, parallel):
        self.clock = FakeClock()
        self.faulty = {
            style: FaultyConnector(
                InMemoryConnector(workload.relations_for(style)),
                clock=self.clock,
            )
            for style in STYLES
        }
        policy = ResiliencePolicy(max_attempts=2, failure_threshold=100,
                                  jitter=0.0)
        self.federation = Federation.from_config(
            FederationConfig(parallel=parallel, journal=InMemoryJournal())
        )
        for style in STYLES:
            self.federation.add_member(style, style,
                                       connector=self.faulty[style],
                                       policy=policy, clock=self.clock)

    def schedule(self, counts):
        for style, count in zip(STYLES, counts):
            if count:
                self.faulty[style].fail_next(count)

    def member_states(self):
        return {style: canon(self.faulty[style].inner.scan())
                for style in STYLES}

    def statuses(self):
        return {entry.member: entry.status
                for entry in self.federation.availability()}


def run_schedule(workload, parallel, install_faults, update_faults):
    """Drive one federation through the schedule; return the full
    observable record (everything but pool metrics)."""
    twin = Twin(workload, parallel)
    record = {}

    twin.schedule(install_faults)
    try:
        twin.federation.install()
    except MemberUnavailableError as exc:
        # Every member down: both modes must refuse identically.
        record["install"] = ("raised", str(exc))
        return record
    record["quarantined"] = sorted(twin.federation.quarantined)
    record["statuses"] = twin.statuses()

    answers = twin.federation.query(
        "?.dbI.p(.date=D, .stk=S, .price=P)", on_unavailable="partial"
    )
    record["answers"] = sorted(
        (a["D"], a["S"], a["P"]) for a in answers
    )
    record["complete"] = answers.complete

    twin.schedule(update_faults)
    try:
        result = twin.federation.insert_quote("nova", "9/9/99", 7.0)
    except (MemberUnavailableError, StaleMemberError) as exc:
        record["update"] = ("raised", type(exc).__name__)
    else:
        record["update"] = (
            "ok", result.member_outcomes, result.flushed, result.update_id,
            result.inserted, result.succeeded,
        )
    # What the flush left behind, before any repair: every member's
    # journaled outcome and every stale direction. The serial path runs
    # every member just as the parallel one does, so these agree too.
    record["journaled"] = sorted(
        (entry["member"], entry["outcome"])
        for entry in twin.federation.journal.records()
        if entry["type"] == "member"
    )
    record["stale"] = dict(twin.federation._stale)

    # Converge: recovery replays drain any scripted failures still
    # queued, probe sweeps re-attach/resync whatever they left behind.
    for _ in range(3):
        twin.federation.recover()
        twin.federation.probe_all()
    record["pending"] = len(twin.federation.journal.pending())
    record["final_statuses"] = twin.statuses()
    record["states"] = twin.member_states()
    return record


@given(
    install_faults=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    update_faults=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_parallel_and_serial_runs_are_observably_identical(
    install_faults, update_faults
):
    workload = StockWorkload(n_stocks=2, n_days=2, seed=5)
    parallel = run_schedule(workload, "on", install_faults, update_faults)
    serial = run_schedule(workload, "off", install_faults, update_faults)
    assert parallel == serial
    assert parallel.get("pending", 0) == 0


class TestHealthyEquivalence:
    """Spot checks on the fault-free fast path."""

    def setup_method(self):
        self.workload = StockWorkload(n_stocks=3, n_days=3, seed=11)

    def build(self, parallel):
        twin = Twin(self.workload, parallel)
        twin.federation.install()
        return twin.federation

    def test_queries_and_updates_agree(self):
        parallel = self.build("on")
        serial = self.build("off")
        assert parallel.unified_quotes() == serial.unified_quotes()
        left = parallel.insert_quote("nova", "9/9/99", 7.0)
        right = serial.insert_quote("nova", "9/9/99", 7.0)
        assert left.member_outcomes == right.member_outcomes
        assert left.flushed is right.flushed is True
        assert left.update_id == right.update_id
        assert parallel.unified_quotes() == serial.unified_quotes()

    def test_probe_all_agrees(self):
        parallel = self.build("on")
        serial = self.build("off")
        assert parallel.probe_all() == serial.probe_all()
        left = parallel.health_report()
        right = serial.health_report()
        assert {name: left[name]["status"] for name in STYLES} == \
            {name: right[name]["status"] for name in STYLES}
        assert left["journal"] == right["journal"]

    def test_parallel_flush_traces_a_scatter(self):
        federation = self.build("on")
        result = federation.insert_quote("nova", "9/9/99", 7.0)
        scatter = result.trace.find("scatter-gather")
        assert scatter is not None
        members = sorted(
            child.attributes["member"]
            for child in scatter.children
            if child.name == "scatter-gather.member"
        )
        assert members == sorted(result.member_outcomes)

    def test_parallel_flush_reports_pool_metrics(self):
        federation = self.build("on")
        result = federation.insert_quote("nova", "9/9/99", 7.0)
        counters = result.metrics["counters"]
        assert counters.get("connector.pool.submitted", 0) >= len(STYLES)
        latencies = [name for name in result.metrics["histograms"]
                     if name.startswith("connector.pool.latency")]
        assert latencies

    def test_serial_flush_stays_scatter_free(self):
        federation = self.build("off")
        result = federation.insert_quote("nova", "9/9/99", 7.0)
        assert result.trace.find("scatter-gather") is None


def test_in_memory_connector_scans_never_see_half_an_apply():
    """Change sets are applied in place under the connector's lock: a
    concurrent (e.g. hedged) scan sees a whole apply or none of it."""
    import sys
    import threading

    from repro.multidb import ChangeSet

    low = [{"x": i} for i in range(50)]
    high = [{"x": i + 1000} for i in range(50)]
    up = ChangeSet({"r": {"del": low, "ins": high}})
    down = ChangeSet({"r": {"del": high, "ins": low}})
    connector = InMemoryConnector({"r": low})
    torn = []
    stop = threading.Event()

    def scanner():
        while not stop.is_set():
            rows = connector.scan()["r"]
            lows = sum(1 for row in rows if row["x"] < 1000)
            if len(rows) != 50 or lows not in (0, 50):
                torn.append((len(rows), lows))

    def applier():
        for index in range(300):
            connector.apply(up if index % 2 == 0 else down)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scanners = [threading.Thread(target=scanner) for _ in range(4)]
        writer = threading.Thread(target=applier)
        for thread in scanners + [writer]:
            thread.start()
        writer.join(timeout=60)
        stop.set()
        for thread in scanners:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not writer.is_alive()
    assert not any(thread.is_alive() for thread in scanners)
    assert torn == []
    assert connector.scan() == {"r": low}
