"""Incremental view maintenance: delta capture, repair plans, DRed.

The tentpole guarantee is differential: after any schedule of updates,
an engine that repairs its materialization in place answers exactly
like one that rebuilds from scratch every step. The unit tests pin the
pieces — :class:`~repro.core.updates.UpdateDelta` folding,
:func:`~repro.core.fixpoint.maintenance_plan` fallback reasons, and
the maintenance counters/spans the repair emits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdlEngine
from repro.core.fixpoint import maintenance_plan
from repro.core.parser import parse_rule
from repro.core.rules import analyze_rule
from repro.core.terms import Const
from repro.core.updates import UpdateDelta
from repro.errors import IdlError, MemberUnavailableError
from repro.multidb import (
    FakeClock,
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    ResiliencePolicy,
)
from repro.obs import InMemoryCollector, Observability
from repro.objects import from_python
from repro.workloads.stocks import StockWorkload
from tests.conftest import answers_set


def rules(*sources, merge_on=None):
    analyzed = []
    for index, source in enumerate(sources):
        keys = ()
        if merge_on and index in merge_on:
            keys = merge_on[index]
        analyzed.append(analyze_rule(parse_rule(source), merge_on=keys))
    return analyzed


def pattern(*names):
    return tuple(Const(name) for name in names)


def element(**attrs):
    return from_python(attrs)


class TestUpdateDelta:
    def test_insert_then_delete_cancels(self):
        delta = UpdateDelta()
        delta.record_insert(("a", "r"), element(x=1))
        delta.record_delete(("a", "r"), element(x=1))
        inserts, deletes, symbolic = delta.fold()
        assert inserts == {} and deletes == {} and symbolic == set()

    def test_delete_then_insert_cancels(self):
        delta = UpdateDelta()
        delta.record_delete(("a", "r"), element(x=1))
        delta.record_insert(("a", "r"), element(x=1))
        inserts, deletes, _ = delta.fold()
        assert inserts == {} and deletes == {}

    def test_distinct_values_both_survive(self):
        delta = UpdateDelta()
        delta.record_insert(("a", "r"), element(x=1))
        delta.record_delete(("a", "r"), element(x=2))
        inserts, deletes, _ = delta.fold()
        assert len(inserts[("a", "r")]) == 1
        assert len(deletes[("a", "r")]) == 1

    def test_symbolic_paths_are_reported(self):
        delta = UpdateDelta()
        delta.mark_symbolic(("a", "r", "x"))
        _, _, symbolic = delta.fold()
        assert symbolic == {("a", "r", "x")}

    def test_rollback_discards_suffix(self):
        delta = UpdateDelta()
        delta.record_insert(("a", "r"), element(x=1))
        mark = delta.mark()
        delta.record_delete(("a", "r"), element(x=1))
        delta.mark_symbolic(("a", "r"))
        delta.rollback(mark)
        inserts, deletes, symbolic = delta.fold()
        assert len(inserts[("a", "r")]) == 1
        assert deletes == {} and symbolic == set()

    def test_changed_flag(self):
        delta = UpdateDelta()
        assert not delta.changed
        delta.record_insert(("a", "r"), element(x=1))
        assert delta.changed


class TestDeltaCapture:
    """Updates on an engine with a live materialization carry a delta."""

    def build(self):
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        return engine

    def test_insert_is_recorded(self):
        result = self.build().update("?.a.r+(.x=3)")
        inserts, deletes, symbolic = result.delta.fold()
        assert list(inserts) == [("a", "r")]
        assert deletes == {} and symbolic == set()

    def test_delete_is_recorded(self):
        result = self.build().update("?.a.r-(.x=1)")
        inserts, deletes, _ = result.delta.fold()
        assert inserts == {}
        assert list(deletes) == [("a", "r")]

    def test_no_match_folds_empty(self):
        result = self.build().update("?.a.r-(.x=999)")
        inserts, deletes, symbolic = result.delta.fold()
        assert inserts == {} and deletes == {} and symbolic == set()

    def test_inplace_mutation_rewrites_as_delete_insert(self):
        # Mutating a set element in place folds to one whole-element
        # delete+insert pair at the owning set's path — not symbolic.
        result = self.build().update("?.a.r(.x=1, .x-=C)")
        inserts, deletes, symbolic = result.delta.fold()
        assert list(inserts) == [("a", "r")]
        assert list(deletes) == [("a", "r")]
        assert symbolic == set()

    def test_metadata_update_is_symbolic(self):
        result = self.build().update("?.a-.r")
        _, _, symbolic = result.delta.fold()
        assert symbolic == {("a", "r")}  # unknown delta: fall back

    def test_capture_without_materialization(self):
        # Every update captures its delta, store or not: the federation
        # stages its member changes from it.
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        result = engine.update("?.a.r+(.x=2)")
        inserts, deletes, symbolic = result.delta.fold()
        assert [e.to_python() for e in inserts[("a", "r")].values()] == [
            {"x": 2}]
        assert deletes == {} and symbolic == set()
        assert engine.query("?.v.p(.x=X)") == [{"X": 1}, {"X": 2}]

    def test_capture_when_maintenance_disabled(self):
        # maintain=False still captures the delta but never repairs with
        # it: the dirty stratum leaves the store and is rebuilt.
        engine = IdlEngine(maintain=False)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        result = engine.update("?.a.r+(.x=2)")
        assert result.delta.changed
        assert engine._store == {}
        assert engine.query("?.v.p(.x=X)") == [{"X": 1}, {"X": 2}]
        assert engine.fixpoint_stats.maintained_strata == 0

TC = (
    ".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)",
    ".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)",
)


class TestMaintenancePlan:
    def test_recursive_stratum_is_rewritable(self):
        variants, reason = maintenance_plan(rules(*TC), [pattern("g", "edge")])
        assert reason is None
        assert len(variants) == 2
        assert all(variants)  # both rules read changed paths

    def test_untouched_rule_gets_no_variants(self):
        stratum = rules(".v.p(.x=X) <- .a.r(.x=X)")
        variants, reason = maintenance_plan(stratum, [pattern("b", "s")])
        assert reason is None
        assert variants == [[]]  # nothing it reads changed: never fires

    def test_merge_rule_falls_back(self):
        stratum = rules(
            ".v.p(.k=K, .n=N) <- .a.r(.k=K, .n=N)", merge_on={0: ("k",)}
        )
        variants, reason = maintenance_plan(stratum, [pattern("a", "r")])
        assert variants is None and reason == "merge-rule"

    def test_negation_over_changed_falls_back(self):
        stratum = rules(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        variants, reason = maintenance_plan(stratum, [pattern("b", "s")])
        assert variants is None and reason == "negation"

    def test_negation_over_unchanged_is_fine(self):
        stratum = rules(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        variants, reason = maintenance_plan(stratum, [pattern("a", "r")])
        assert reason is None


class TestMaintenanceObservability:
    def build(self, obs):
        engine = IdlEngine(obs=obs)
        engine.add_database("g", {"edge": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]})
        engine.define(TC[0])
        engine.define(TC[1])
        engine.materialized_view()
        return engine

    def test_counters_accumulate(self):
        obs = Observability(enabled=False)  # metrics stay on regardless
        engine = self.build(obs)
        engine.update("?.g.edge+(.a=3, .b=4)")
        assert obs.metrics.counter_value("fixpoint.maintain.runs") == 1
        assert obs.metrics.counter_value("fixpoint.maintain.seeded") == 1
        assert obs.metrics.counter_value("fixpoint.maintain.fallbacks") == 0
        engine.update("?.g.edge-(.a=1, .b=2)")
        assert obs.metrics.counter_value("fixpoint.maintain.runs") == 2
        assert obs.metrics.counter_value("fixpoint.maintain.overdeleted") > 0

    def test_stats_counters(self):
        engine = self.build(Observability(enabled=False))
        engine.update("?.g.edge+(.a=3, .b=4)")
        stats = engine.fixpoint_stats
        assert stats.maintained_strata >= 1
        assert stats.maintain_seeded >= 1
        assert stats.maintain_fallbacks == 0
        assert "maintained" in repr(stats)

    def test_maintain_span_shape(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = self.build(obs)
        engine.update("?.g.edge+(.a=3, .b=4)")
        span = collector.find("fixpoint.maintain")
        assert span is not None
        assert span.attributes["repaired"] >= 1
        assert span.attributes["fallbacks"] == 0
        assert span.attributes["seeded"] == 1
        events = [name for name, _ in span.events if name == "stratum-repaired"]
        assert events

    def test_fallback_span_reason(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = IdlEngine(obs=obs)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"y": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        engine.materialized_view()
        engine.update("?.b.s+(.y=2)")
        span = collector.find("fixpoint.maintain")
        assert span is not None
        assert span.attributes["fallbacks"] == 1
        events = [attributes for name, attributes in span.events
                  if name == "stratum-fallback"]
        assert events and events[0]["reason"] == "negation"
        # The fallback dropped the materialization; the answer is right.
        assert answers_set(engine.query("?.v.p(.x=X)"), "X") == set()


# -- property: incremental repair == full rebuild ------------------------------


def build_tc_engine():
    engine = IdlEngine()
    engine.add_database("g", {"edge": [{"a": 0, "b": 1}]})
    engine.define(TC[0])
    engine.define(TC[1])
    return engine


edge_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=10,
)


@given(edge_ops)
@settings(max_examples=60, deadline=None)
def test_recursive_maintenance_equals_rebuild(sequence):
    incremental = build_tc_engine()
    reference = build_tc_engine()
    incremental.materialized_view()
    for op, a, b in sequence:
        sign = "+" if op == "insert" else "-"
        request = f"?.g.edge{sign}(.a={a}, .b={b})"
        incremental.update(request)
        incremental.materialized_view()
        reference.update(request)
        reference.invalidate()
    lhs = answers_set(incremental.query("?.g.tc(.a=X, .b=Y)"), "X", "Y")
    rhs = answers_set(reference.query("?.g.tc(.a=X, .b=Y)"), "X", "Y")
    assert lhs == rhs


mixed_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert_r"), st.integers(0, 4)),
        st.tuples(st.just("delete_r"), st.integers(0, 4)),
        st.tuples(st.just("insert_s"), st.integers(0, 4)),
        st.tuples(st.just("delete_s"), st.integers(0, 4)),
    ),
    max_size=12,
)


@given(mixed_ops)
@settings(max_examples=60, deadline=None)
def test_join_and_negation_maintenance_equals_rebuild(sequence):
    def build():
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"y": 1}]})
        engine.define(".vj.p(.x=X, .y=Y) <- .a.r(.x=X), .b.s(.y=Y)")
        engine.define(".vn.q(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        return engine

    incremental = build()
    reference = build()
    incremental.materialized_view()
    for op, value in sequence:
        kind, relation = op.split("_")
        sign = "+" if kind == "insert" else "-"
        attr = "x" if relation == "r" else "y"
        db = "a" if relation == "r" else "b"
        request = f"?.{db}.{relation}{sign}(.{attr}={value})"
        incremental.update(request)
        incremental.materialized_view()
        reference.update(request)
        reference.invalidate()
    for source in ("?.vj.p(.x=X, .y=Y)", "?.vn.q(.x=X)"):
        lhs = {tuple(sorted(a.items())) for a in incremental.query(source)}
        rhs = {tuple(sorted(a.items())) for a in reference.query(source)}
        assert lhs == rhs


# -- property: pruned reads fill one store that repair keeps exact ------------

VIEWS = {
    "vj": ".vj.p(.x=X, .y=Y) <- .a.r(.x=X), .b.s(.y=Y)",
    "vn": ".vn.q(.x=X) <- .a.r(.x=X), .b.s~(.y=X)",
    "vd": ".vd.d(.x=X) <- .vj.p(.x=X, .y=X)",
    "od_rec": ".g.od(.a=X, .b=Y) <- .g.edge(.a=X, .b=Z), .g.ev(.a=Z, .b=Y)",
    "od": ".g.od(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)",
    "ev": ".g.ev(.a=X, .b=Y) <- .g.edge(.a=X, .b=Z), .g.od(.a=Z, .b=Y)",
}
#: One query per view family; with pruning each reads a rule subset.
VIEW_QUERIES = (
    "?.vj.p(.x=X, .y=Y)",
    "?.vn.q(.x=X)",
    "?.vd.d(.x=X)",
    "?.g.ev(.a=X, .b=Y)",
    "?.g.od(.a=X, .b=Y)",
)

store_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["+r", "-r", "+s", "-s"]),
                  st.integers(0, 3), st.just(0)),
        st.tuples(st.sampled_from(["+edge", "-edge"]),
                  st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("read"),
                  st.integers(0, len(VIEW_QUERIES) - 1), st.just(0)),
    ),
    max_size=14,
)


def build_store_engine(prune=False):
    engine = IdlEngine(prune=prune)
    engine.add_database("a", {"r": [{"x": 1}]})
    engine.add_database("b", {"s": [{"y": 1}]})
    engine.add_database("g", {"edge": [{"a": 0, "b": 1}, {"a": 1, "b": 2}]})
    for source in VIEWS.values():
        engine.define(source)
    return engine


def answer_rows(engine, source):
    return {tuple(sorted(answer.items())) for answer in engine.query(source)}


@given(st.booleans(), store_ops)
@settings(max_examples=60, deadline=None)
def test_pruned_store_maintenance_equals_rebuild(prune, sequence):
    incremental = build_store_engine(prune=prune)
    reference = build_store_engine()
    for op, first, second in sequence:
        if op == "read":
            source = VIEW_QUERIES[first]
            reference.invalidate()
            assert answer_rows(incremental, source) == answer_rows(
                reference, source)
            continue
        sign, relation = op[0], op[1:]
        if relation == "edge":
            request = f"?.g.edge{sign}(.a={first}, .b={second})"
        elif relation == "r":
            request = f"?.a.r{sign}(.x={first})"
        else:
            request = f"?.b.s{sign}(.y={first})"
        incremental.update(request)
        reference.update(request)
    reference.invalidate()
    for source in VIEW_QUERIES:
        assert answer_rows(incremental, source) == answer_rows(
            reference, source)


# -- federation: pruned reads get incremental repair ---------------------------

STYLES = ("euter", "chwab", "ource")


def build_stock_federation(relations_for, faulty=None):
    """Three in-memory members with one customized view per style;
    ``faulty`` (style -> FaultyConnector) replaces their connectors."""
    federation = Federation.from_config(FederationConfig())
    for style in STYLES:
        connector = (faulty or {}).get(style) or InMemoryConnector(
            relations_for(style))
        federation.add_member(
            style, style, connector=connector,
            policy=ResiliencePolicy(max_attempts=1, jitter=0.0),
            clock=FakeClock(),
        )
    for style in STYLES:
        federation.add_user_view(f"u_{style}", style)
    federation.install()
    return federation


def federation_queries(workload):
    symbol = workload.symbols[0]
    return [
        "?.dbI.p(.date=D, .stk=S, .price=P)",
        "?.u_euter.r(.date=D, .stkCode=S, .clsPrice=P)",
        f"?.u_chwab.r(.date=D, .{symbol}=P)",
        f"?.u_ource.{symbol}(.date=D, .clsPrice=P)",
    ]


def rebuilt_engine(engine):
    """A fresh engine over a copy of ``engine``'s universe: the oracle
    every repaired or rolled-back store must agree with."""
    return IdlEngine(universe=engine.universe.snapshot(),
                     program=engine.program)


def assert_store_equals_rebuild(engine, queries):
    fresh = rebuilt_engine(engine)
    for source in queries:
        assert answer_rows(engine, source) == answer_rows(fresh, source)


class TestPrunedFederationRepair:
    def test_updates_repair_the_store_pruned_reads_filled(self):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=7)
        federation = build_stock_federation(workload.relations_for)
        federation.query("?.dbI.p(.date=D, .stk=S, .price=P)")
        assert federation.engine.last_prune.reason == "pruned"
        metrics = federation.obs.metrics
        runs = metrics.counter_value("fixpoint.maintain.runs")
        federation.insert_quote(workload.symbols[1], "9/9/99", 9.0)
        federation.delete_quote(workload.symbols[0], workload.days[0])
        assert metrics.counter_value("fixpoint.maintain.runs") == runs + 2
        queries = federation_queries(workload)
        answers = [answer_rows(federation.engine, q) for q in queries]
        assert federation.engine.last_fixpoint_stats.maintained_strata > 0
        fresh = build_stock_federation(
            lambda style: federation.connectors[style].scan())
        assert answers == [answer_rows(fresh.engine, q) for q in queries]
        assert federation.unified_quotes() == fresh.unified_quotes()


class TestRollbackEqualsRebuild:
    """A failed update leaves a store whose answers equal a rebuild."""

    def fill(self, federation, workload):
        for source in federation_queries(workload)[1:]:
            federation.query(source, on_unavailable="partial")
            assert federation.engine.last_prune.reason == "pruned"
        assert federation.engine._store

    def test_atomic_update_that_raises(self):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=7)
        federation = build_stock_federation(workload.relations_for)
        self.fill(federation, workload)
        engine = federation.engine
        engine.declare_key("euter", "r", ["date", "stkCode"])
        before = rebuilt_engine(engine)
        queries = federation_queries(workload)
        with pytest.raises(IdlError):
            # A second price for an existing quote violates the key.
            federation.insert_quote(workload.symbols[0], workload.days[0],
                                    1.0)
        assert_store_equals_rebuild(engine, queries)
        for source in queries:
            assert answer_rows(engine, source) == answer_rows(before, source)
        self.fill(federation, workload)
        federation.delete_quote(workload.symbols[1], workload.days[1])
        assert_store_equals_rebuild(engine, queries)

    def test_flush_whose_connector_apply_fails(self):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=7)
        faulty = FaultyConnector(
            InMemoryConnector(workload.relations_for("chwab")))
        federation = build_stock_federation(workload.relations_for,
                                            faulty={"chwab": faulty})
        self.fill(federation, workload)
        engine = federation.engine
        queries = federation_queries(workload)
        faulty.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.delete_quote(workload.symbols[1], workload.days[0])
        assert_store_equals_rebuild(engine, queries)
        self.fill(federation, workload)
        assert_store_equals_rebuild(engine, queries)
