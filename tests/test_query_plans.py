"""Compiled query plans: shape sharing, domains, the existential cut,
instrumentation and thread safety (lazy error timing is in
``test_safety.py``).

Plans are compiled once per expression *shape* (constants lifted into a
parameter vector) and bound-variable domain, so every test here checks
answers against an independent expectation — a fresh scan context, the
stock model, or hand-computed sets — not just that a plan was reused.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import IdlEngine
from repro.core.evaluator import (
    EvalContext,
    PlanCache,
    answer_rows,
    answers,
    satisfy,
)
from repro.core.parser import parse_query
from repro.objects import Universe
from repro.workloads.stocks import StockWorkload

ROWS = [
    {"date": "3/3/85", "stkCode": "hp", "clsPrice": 50},
    {"date": "3/4/85", "stkCode": "hp", "clsPrice": 65},
    {"date": "3/3/85", "stkCode": "ibm", "clsPrice": 160},
    {"date": "3/4/85", "stkCode": "ibm", "clsPrice": 155},
]


def stock_universe():
    return Universe.from_python({
        "euter": {"r": list(ROWS)},
        "ource": {
            "hp": [{"date": "3/3/85", "clsPrice": 50},
                   {"date": "3/4/85", "clsPrice": 65}],
            "ibm": [{"date": "3/3/85", "clsPrice": 160},
                    {"date": "3/4/85", "clsPrice": 155}],
        },
    })


def rendered(results):
    return {
        tuple(sorted((name, obj.value) for name, obj in a.as_dict().items()))
        for a in results
    }


def scanned(source, universe, bindings=None):
    """Reference answers: a fresh context that never probes an index."""
    return rendered(answers(parse_query(source), universe, bindings,
                            EvalContext(use_indexes=False)))


class TestShapeSharing:
    def test_value_literals_share_one_plan(self):
        universe = stock_universe()
        context = EvalContext()
        for day in ("3/3/85", "3/4/85", "9/9/99"):
            source = f"?.euter.r(.date={day}, .stkCode=S, .clsPrice=P)"
            got = rendered(answers(parse_query(source), universe, None, context))
            assert got == scanned(source, universe)
            assert len(got) == (0 if day == "9/9/99" else 2)
        assert context.plans.compiles == 1

    def test_attribute_literals_share_one_plan(self):
        # ?.ource.<stk>(...) — the stock name sits in attribute position.
        universe = stock_universe()
        context = EvalContext()
        expected = {"hp": {50, 65}, "ibm": {160, 155}, "sun": set()}
        for stock, prices in expected.items():
            source = f"?.ource.{stock}(.date=D, .clsPrice=P)"
            results = answers(parse_query(source), universe, None, context)
            assert {a.lookup("P").value for a in results} == prices
        assert context.plans.compiles == 1

    def test_probe_key_literals_share_one_plan(self):
        universe = stock_universe()
        context = EvalContext(profile=True)
        for price, stock in ((50, {"hp"}), (160, {"ibm"}), (7, set())):
            source = f"?.euter.r(.clsPrice={price}, .stkCode=S)"
            results = answers(parse_query(source), universe, None, context)
            assert {a.lookup("S").value for a in results} == stock
        assert context.plans.compiles == 1
        # Every call probed the clsPrice index (built once): no scan.
        assert context.counters["index.builds"] == 1
        assert context.counters["index.hits"] == 2
        assert "index.fallbacks" not in context.counters

    def test_literal_types_stay_distinct(self):
        # 1, 1.0 and '1' share a shape but keep IDL value semantics.
        universe = Universe.from_python(
            {"d": {"r": [{"k": 1, "v": "int"}, {"k": "1", "v": "str"}]}}
        )
        context = EvalContext()
        got = {
            literal: {a.lookup("V").value for a in answers(
                parse_query(f"?.d.r(.k={literal}, .v=V)"), universe, None,
                context)}
            for literal in ("1", "1.0", "'1'")
        }
        assert got == {"1": {"int"}, "1.0": {"int"}, "'1'": {"str"}}
        assert context.plans.compiles == 1

    def test_prebound_domains_get_their_own_plans(self):
        universe = stock_universe()
        context = EvalContext()
        query = parse_query("?.euter.r(.stkCode=S, .clsPrice=P)")
        assert len(answers(query, universe, None, context)) == 4
        for stock, prices in (("hp", {50, 65}), ("ibm", {160, 155})):
            results = answers(query, universe, {"S": stock}, context)
            assert {a.lookup("P").value for a in results} == prices
        both = answers(query, universe, {"S": "hp", "P": 65}, context)
        assert rendered(both) == {(("P", 65), ("S", "hp"))}
        # Domains {}, {S} and {P, S}: three plans; the second S binding
        # reused the {S} plan.
        assert context.plans.compiles == 3

    def test_answer_rows_are_sorted_and_deduplicated(self):
        universe = stock_universe()
        rows = answer_rows(parse_query("?.euter.r(.stkCode=S)"), universe)
        assert rows.names == ("S",) and len(rows) == 2
        assert sorted(row[0].value for row in rows) == ["hp", "ibm"]

    def test_engine_profiled_queries_reuse_the_engine_plans(self):
        from repro.obs import Observability

        engine = IdlEngine(universe=stock_universe(), obs=Observability())
        for day in ("3/3/85", "3/4/85", "3/3/85"):
            engine.query(f"?.euter.r(.date={day}, .stkCode=S)")
        assert engine.eval_ctx.plans.compiles == 1
        assert engine.obs.metrics.counter_value(
            "evaluator.plan_cache.compiles") == 1


class TestExistentialCut:
    def test_variable_free_set_expression_stops_at_first_witness(self):
        universe = Universe.from_python(
            {"d": {"r": [{"a": i} for i in range(500)]}}
        )
        context = EvalContext(profile=True, use_indexes=False)
        results = answers(parse_query("?.X.Y(.a)"), universe, None, context)
        assert rendered(results) == {(("X", "d"), ("Y", "r"))}
        # One element checked, not 500.
        assert context.counters["SetExpr"] == 1
        assert context.counters["Epsilon"] == 1

    def test_cut_keeps_answers_of_the_higher_order_scan(self):
        universe = stock_universe()
        for source, expected in (
            ("?.X.Y(.stkCode)", {(("X", "euter"), ("Y", "r"))}),
            ("?.ource.S(.clsPrice>100)", {(("S", "ibm"),)}),
            ("?.ource.S(.clsPrice>60)", {(("S", "hp"),), (("S", "ibm"),)}),
            ("?.euter.X(.stkCode=hp)", {(("X", "r"),)}),
        ):
            assert scanned(source, universe) == expected
            assert rendered(answers(parse_query(source), universe)) == expected

    def test_satisfy_yields_each_substitution_of_a_cut_once(self):
        universe = stock_universe()
        expr = parse_query("?.euter.r(.stkCode=hp)").expr
        assert len(list(satisfy(expr, universe))) == 1


class TestInstrumentedPlans:
    def test_profiled_and_plain_contexts_agree(self):
        universe = stock_universe()
        source = ("?.euter.r(.date=D, .stkCode=S, .clsPrice=P),"
                  " .ource.S(.date=D, .clsPrice=P)")
        profiled = EvalContext(profile=True)
        plain = EvalContext()
        plain.plans = profiled.plans  # shared cache, separate plans
        a = rendered(answers(parse_query(source), universe, None, profiled))
        b = rendered(answers(parse_query(source), universe, None, plain))
        assert a == b and len(a) == 4
        assert profiled.plans.compiles == 2
        assert profiled.counters["visits"] > 0
        assert profiled.counters["TupleExpr"] >= 1
        # .ource.hp and .ource.ibm each build a date index, then hit it.
        assert profiled.counters["index.builds"] == 2
        assert profiled.counters["index.hits"] == 2

    def test_trace_hook_sees_the_callers_nodes_and_bindings(self):
        universe = stock_universe()
        seen = []
        context = EvalContext(
            trace=lambda expr, obj, subst: seen.append((expr, subst))
        )
        context.plans = PlanCache()
        query = parse_query(
            "?.euter.r(.stkCode=S, .clsPrice=P), .ource.S(.clsPrice=P)"
        )
        assert len(list(satisfy(query.expr, universe, None, context))) == 4
        nodes = {id(node) for node in query.expr.walk()}
        assert seen and all(id(expr) in nodes for expr, _ in seen)
        assert any(subst.lookup("P") is not None for _, subst in seen)
        assert len(context.plans) == 0  # traced plans are never shared


@pytest.mark.concurrency
def test_threads_share_one_engine_and_its_plans():
    """Threads run one shape with different literals on one read-only
    engine; plans hold no per-call state, so each thread's answers equal
    the single-threaded ones."""
    workload = StockWorkload(n_stocks=8, n_days=12, seed=3)
    engine = IdlEngine()
    for style in ("euter", "chwab", "ource"):
        engine.add_database(style, workload.relations_for(style))
    days, stocks = workload.days, workload.symbols

    def sources(worker):
        for i in range(24):
            day = days[(worker + i) % len(days)]
            stock = stocks[(worker * 3 + i) % len(stocks)]
            yield f"?.chwab.r(.date='{day}', .S=P), .ource.S(.date='{day}', .clsPrice=P)"
            yield f"?.ource.{stock}(.date=D, .clsPrice=P)"
            yield "?.X.Y(.stkCode)"

    def key(answer_list):
        return sorted(sorted(a.items()) for a in answer_list)

    workers = 6
    expected = {w: [key(engine.query(s)) for s in sources(w)] for w in range(workers)}
    got = {}
    errors = []

    def run(worker):
        try:
            got[worker] = [key(engine.query(s)) for s in sources(worker)]
        except Exception as exc:  # reported below with the worker id
            errors.append((worker, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == expected
    assert all(any(answers_ for answers_ in got[w]) for w in range(workers))
