"""Unit tests for safety analysis and goal (re)ordering."""

from __future__ import annotations

import pytest

from repro.core import ast
from repro.core.evaluator import EvalContext, satisfy
from repro.core.parser import parse_expression, parse_query
from repro.core.safety import (
    check_query_safe,
    is_ready,
    order_conjuncts,
    produced_vars,
)
from repro.core.terms import Const
from repro.errors import EvaluationError, SafetyError
from repro.objects import Universe


def conjuncts(source):
    return list(parse_expression(source).conjuncts)


class TestProducedVars:
    def test_equality_produces(self):
        [c] = conjuncts("?.db.r(.a=X, .b=Y)")
        assert produced_vars(c) == {"X", "Y"}

    def test_inequality_produces_nothing(self):
        [c] = conjuncts("?.db.r(.a>X)")
        assert produced_vars(c) == set()

    def test_higher_order_attr_produces(self):
        [c] = conjuncts("?.db.r(.S=P)")
        assert produced_vars(c) == {"S", "P"}

    def test_negation_produces_nothing(self):
        [c] = conjuncts("?.db.r~(.a=X)")
        # the whole conjunct is .db.r~(...): the inner neg kills production
        assert produced_vars(c) == set()

    def test_constraint_production(self):
        expr = parse_expression("?.a(.x=1), Y = 2")
        assert produced_vars(expr.conjuncts[1]) == {"Y"}

    def test_set_minus_produces_bindings(self):
        [c] = conjuncts("?.db.r-(.a=X)")
        assert produced_vars(c) == {"X"}


class TestIsReady:
    def test_equality_always_ready(self):
        [c] = conjuncts("?.db.r(.a=X)")
        assert is_ready(c, frozenset())

    def test_inequality_needs_binding(self):
        [c] = conjuncts("?.db.r(.a>X)")
        assert not is_ready(c, frozenset())
        assert is_ready(c, frozenset({"X"}))

    def test_intra_expression_production_counts(self):
        # X produced by .a=X before .b>X needs it (reordered internally).
        [c] = conjuncts("?.db.r(.b>X, .a=X)")
        assert is_ready(c, frozenset())

    def test_arith_needs_all_vars(self):
        [c] = conjuncts("?.db.r(.a=C+1)")
        assert not is_ready(c, frozenset())
        assert is_ready(c, frozenset({"C"}))

    def test_set_plus_needs_ground(self):
        [c] = conjuncts("?.db.r+(.a=X)")
        assert not is_ready(c, frozenset())
        assert is_ready(c, frozenset({"X"}))

    def test_tuple_plus_needs_attr_and_value(self):
        [c] = conjuncts("?.db.r(+.S=P)")
        assert not is_ready(c, frozenset({"S"}))
        assert is_ready(c, frozenset({"S", "P"}))


class TestOrdering:
    def test_producer_moves_before_consumer(self):
        cs = conjuncts("?.a.r(.x>P), .b.s(.y=P)")
        ordered = order_conjuncts(cs, frozenset())
        assert ordered[0] is cs[1] and ordered[1] is cs[0]

    def test_negation_deferred_until_shared_vars_bound(self):
        cs = conjuncts("?.a.r~(.x>P), .a.r(.x=P)")
        ordered = order_conjuncts(cs, frozenset())
        assert isinstance(ordered[1].expr.expr, ast.NegExpr)

    def test_unsatisfiable_order_raises(self):
        cs = conjuncts("?.a.r(.x>P), .b.s(.y>P)")
        with pytest.raises(SafetyError):
            order_conjuncts(cs, frozenset())

    def test_bound_params_satisfy(self):
        cs = conjuncts("?.a.r(.x>P)")
        assert order_conjuncts(cs, frozenset({"P"})) == cs

    def test_updates_are_barriers(self):
        # The query after the insert may not move before it.
        cs = conjuncts("?.a.r+(.x=1), .a.r(.x=Y)")
        ordered = order_conjuncts(cs, frozenset())
        assert ordered == cs

    def test_queries_before_a_barrier_stay_before_it(self):
        cs = conjuncts("?.a.r(.x=Y), .a.r-(.x=Y), .a.s(.z>Y)")
        ordered = order_conjuncts(cs, frozenset())
        assert ordered == cs

    def test_unready_update_raises(self):
        cs = conjuncts("?.a.r+(.x=C), .a.s(.y=C)")
        with pytest.raises(SafetyError):
            order_conjuncts(cs, frozenset())

    def test_purely_local_negation_vars_are_existential(self):
        # Y occurs only inside the negation: ¬∃Y reading, safe.
        cs = conjuncts("?.a.r(.x=X), .a.s~(.y=Y, .x=X)")
        ordered = order_conjuncts(cs, frozenset())
        assert len(ordered) == 2

    def test_embedded_negation_deferred(self):
        # ``.euter.r~(...)`` is an AttrStep *containing* a negation; its
        # shared variable S must be produced by the sibling first, even
        # when the negation is written first.
        cs = conjuncts("?.a.r~(.s=S, .p>100), .a.r(.s=S)")
        ordered = order_conjuncts(cs, frozenset())
        assert ordered[0] is cs[1]

    def test_selectivity_prefers_constants(self):
        # Both ready; the constant-rich conjunct goes first.
        cs = conjuncts("?.a.r(.x=X), .a.r(.x=X, .k=1, .m=2)")
        ordered = order_conjuncts(cs, frozenset())
        assert ordered[0] is cs[1]
        in_order = order_conjuncts(cs, frozenset(), heuristic=False)
        assert in_order[0] is cs[0]

    def test_selectivity_never_breaks_safety(self):
        cs = conjuncts("?.a.r(.x>P, .k=1), .b.s(.y=P)")
        ordered = order_conjuncts(cs, frozenset())
        assert ordered[0] is cs[1]  # the producer must still go first

    def test_check_query_safe_api(self):
        check_query_safe(parse_expression("?.a.r(.x=X), .b.s(.y>X)"))
        with pytest.raises(SafetyError):
            check_query_safe(parse_expression("?.a.r(.x>X)"))


class TestLazyPlanErrors:
    """Compiled plans raise where the program reaches the bad node,
    never at compile time."""

    def test_unbound_term_raises_only_when_reached(self):
        universe = Universe.from_python(
            {"euter": {"r": [{"stkCode": "hp", "clsPrice": 50}]}}
        )
        context = EvalContext(reorder=False)
        unreached = parse_query("?.euter.zzz(.a=1), .euter.r(.clsPrice>P)")
        assert list(satisfy(unreached.expr, universe, None, context)) == []
        reached = parse_query("?.euter.r(.clsPrice>P)")
        results = satisfy(reached.expr, universe, None, context)  # no raise yet
        with pytest.raises(SafetyError, match="P is unbound"):
            list(results)

    def test_unorderable_conjunction_raises_only_when_reached(self):
        universe = Universe.from_python({"d": {"empty": [], "r": [{"a": 1}]}})
        step = parse_query("?.d.empty(.a>X)").expr.conjuncts[0].expr
        # .empty(...) over an empty set never reaches the inner ordering.
        assert list(satisfy(step, universe.get("d"))) == []
        step = parse_query("?.d.r(.a>X)").expr.conjuncts[0].expr
        with pytest.raises(SafetyError):
            list(satisfy(step, universe.get("d")))

    def test_non_string_attribute_constant_raises_only_when_reached(self):
        universe = Universe.from_python({"d": {"r": [{"a": 1}], "e": []}})
        for relation, raises in (("e", False), ("r", True)):
            expr = ast.TupleExpr([ast.AttrStep(Const("d"), ast.AttrStep(
                Const(relation), ast.SetExpr(ast.AttrStep(Const(5), ast.Epsilon()))
            ))])
            results = satisfy(expr, universe)
            if raises:
                with pytest.raises(EvaluationError, match="attribute names"):
                    list(results)
            else:
                assert list(results) == []
