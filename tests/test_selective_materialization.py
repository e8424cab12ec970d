"""Tests for selective re-materialization (touched-path invalidation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdlEngine
from tests.conftest import answers_set


def build_engine(maintain=True):
    engine = IdlEngine(maintain=maintain)
    engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
    engine.add_database("b", {"s": [{"y": 10}]})
    engine.define(".va.p(.x=X) <- .a.r(.x=X)")
    engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
    engine.define(".vc.j(.x=X, .y=Y) <- .va.p(.x=X), .vb.q(.y=Y)")
    return engine


class TestTouchedPaths:
    def test_update_reports_touched(self):
        engine = build_engine()
        result = engine.update("?.a.r+(.x=3)")
        assert result.touched == {("a", "r")}

    def test_program_calls_accumulate_touched(self):
        engine = build_engine()
        engine.universe.add_database("u")
        engine.invalidate()
        engine.define_update(
            ".u.both(.v=V) -> .a.r+(.x=V)\n.u.both(.v=V) -> .b.s+(.y=V)"
        )
        result = engine.call("u", "both", v=99)
        assert result.touched == {("a", "r"), ("b", "s")}

    def test_metadata_updates_report_touched(self):
        engine = build_engine()
        result = engine.update("?.a-.r")
        assert result.touched == {("a", "r")}

    def test_no_match_touches_nothing(self):
        engine = build_engine()
        result = engine.update("?.a.r(.x=999, .x-=C)")
        assert result.touched == set()


class TestSelectiveRebuild:
    def test_untouched_stratum_is_reused(self):
        engine = build_engine(maintain=False)
        engine.materialized_view()
        engine.update("?.b.s+(.y=20)")
        engine.materialized_view()
        # va's stratum (reading only a.r) must have been reused.
        assert engine.fixpoint_stats.reused_strata >= 1
        assert answers_set(engine.query("?.vb.q(.y=Y)"), "Y") == {10, 20}

    def test_maintained_stratum_is_repaired_in_place(self):
        engine = build_engine()
        engine.materialized_view()
        overlay = engine.overlay
        engine.update("?.b.s+(.y=20)")
        engine.materialized_view()
        # With maintenance on, the update repairs the live materialization:
        # no stratum is rebuilt at all, and the overlay stays live.
        stats = engine.fixpoint_stats
        assert stats.maintained_strata >= 1
        assert stats.maintain_fallbacks == 0
        assert engine.overlay is overlay
        assert answers_set(engine.query("?.vb.q(.y=Y)"), "Y") == {10, 20}

    def test_dependent_strata_are_rebuilt(self):
        engine = build_engine(maintain=False)
        engine.materialized_view()
        engine.update("?.a.r+(.x=3)")
        # vc depends on va depends on a.r: both rebuilt, vb reused.
        assert answers_set(engine.query("?.vc.j(.x=X, .y=Y)"), "X", "Y") == {
            (1, 10), (2, 10), (3, 10),
        }
        assert engine.fixpoint_stats.reused_strata == 1

    def test_deletes_propagate(self):
        engine = build_engine()
        engine.materialized_view()
        engine.update("?.a.r-(.x=1)")
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {2}
        assert answers_set(engine.query("?.vc.j(.x=X, .y=Y)"), "X", "Y") == {
            (2, 10),
        }

    def test_unchanged_request_keeps_cache(self):
        engine = build_engine()
        engine.materialized_view()
        first = engine.overlay
        engine.update("?.a.r-(.x=999)")  # matches nothing
        assert engine.overlay is first

    def test_define_fully_invalidates(self):
        engine = build_engine()
        engine.materialized_view()
        engine.define(".vd.k(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        assert engine.fixpoint_stats.reused_strata == 0

    def test_higher_order_views_track_touched_families(self):
        engine = IdlEngine(maintain=False)
        engine.add_database("euter", {"r": [
            {"date": "d1", "stkCode": "hp", "clsPrice": 50},
        ]})
        engine.add_database("other", {"t": [{"z": 1}]})
        engine.define(".dbO.S(.date=D, .p=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
        engine.define(".vz.w(.z=Z) <- .other.t(.z=Z)")
        engine.materialized_view()
        engine.update("?.euter.r+(.date=d2, .stkCode=sun, .clsPrice=9)")
        assert sorted(engine.overlay.get("dbO").attr_names()) == ["hp", "sun"]
        assert engine.fixpoint_stats.reused_strata == 1


class TestInvalidateEdgeCases:
    def test_empty_touched_prefix_forces_full_invalidate(self):
        engine = build_engine()
        engine.materialized_view()
        # An empty prefix means "somewhere unknown": everything goes.
        engine._selective_invalidate({()})
        assert engine._store == {}
        assert engine._held == set()
        assert engine._overlay is None

    def test_derived_target_only_touch_dirties_view(self):
        # A touch landing on a path that is only a view's *target* (not
        # read by any rule body) still dirties that view — and
        # transitively its readers — while unrelated strata survive.
        engine = build_engine(maintain=False)
        engine.materialized_view()
        engine._selective_invalidate({("va", "p")})
        # va is dirty (target touched), vc is dirty (reads va.p);
        # only vb's stratum stays in the store.
        assert len(engine._store) == 1
        engine.materialized_view()
        assert engine.fixpoint_stats.reused_strata == 1

    def test_transitive_stratum_dirtying(self):
        # v2 never reads a.r, but depends on v1 which does: an update to
        # a.r must dirty both, while the unrelated v3 stays reusable.
        engine = IdlEngine(maintain=False)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"z": 7}]})
        engine.define(".v1.p(.x=X) <- .a.r(.x=X)")
        engine.define(".v2.q(.x=X) <- .v1.p(.x=X)")
        engine.define(".v3.w(.z=Z) <- .b.s(.z=Z)")
        engine.materialized_view()
        engine.update("?.a.r+(.x=2)")
        assert len(engine._store) == 1  # only v3's stratum survives
        engine.materialized_view()
        assert engine.fixpoint_stats.reused_strata == 1
        assert answers_set(engine.query("?.v2.q(.x=X)"), "X") == {1, 2}


class TestPrunedCacheRetention:
    def test_pruned_overlay_survives_unrelated_update(self):
        engine = IdlEngine(prune=True)
        engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
        engine.add_database("b", {"s": [{"y": 10}]})
        engine.define(".va.p(.x=X) <- .a.r(.x=X)")
        engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2}
        assert len(engine._store) == 1
        ((key, (_, overlay)),) = engine._store.items()
        # b.s feeds only vb: the held va-only stratum is clean and must
        # survive the selective invalidate untouched.
        engine.update("?.b.s+(.y=20)")
        assert list(engine._store) == [key]
        assert engine._store[key][1] is overlay
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2}

    def test_pruned_overlay_dropped_when_input_changes(self):
        engine = IdlEngine(prune=True, maintain=False)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"y": 10}]})
        engine.define(".va.p(.x=X) <- .a.r(.x=X)")
        engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
        engine.query("?.va.p(.x=X)")
        assert len(engine._store) == 1
        engine.update("?.a.r+(.x=2)")
        assert engine._store == {}
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2}


# -- property: selective == full rebuild --------------------------------------

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert_a"), st.integers(0, 5)),
        st.tuples(st.just("delete_a"), st.integers(0, 5)),
        st.tuples(st.just("insert_b"), st.integers(0, 5)),
    ),
    max_size=12,
)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_selective_equals_full_rebuild(sequence):
    selective = build_engine()
    reference = build_engine()
    for op, value in sequence:
        if op == "insert_a":
            request = f"?.a.r+(.x={value})"
        elif op == "delete_a":
            request = f"?.a.r-(.x={value})"
        else:
            request = f"?.b.s+(.y={value})"
        selective.update(request)
        selective.materialized_view()  # exercise the cache each step
        reference.update(request)
        reference.invalidate()  # force full rebuild
    for source in ("?.va.p(.x=X)", "?.vb.q(.y=Y)", "?.vc.j(.x=X, .y=Y)"):
        lhs = {tuple(sorted(a.items())) for a in selective.query(source)}
        rhs = {tuple(sorted(a.items())) for a in reference.query(source)}
        assert lhs == rhs


class TestMaterializationStore:
    """Pruned and full reads share one per-stratum store."""

    # The mutually recursive ev/od pair is one SCC; od's base rule is a
    # stratum of its own. Listing the recursive od rule first makes a
    # pruned read of g.ev collect the SCC's rules in a different order
    # than the full program does.
    PROGRAM = (
        ".g.od(.a=X, .b=Y) <- .g.edge(.a=X, .b=Z), .g.ev(.a=Z, .b=Y)",
        ".g.od(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)",
        ".g.ev(.a=X, .b=Y) <- .g.edge(.a=X, .b=Z), .g.od(.a=Z, .b=Y)",
        ".w.n(.a=X) <- .other.t(.a=X)",
    )

    def build(self, prune=True):
        engine = IdlEngine(prune=prune)
        engine.add_database("g", {"edge": [
            {"a": 0, "b": 1}, {"a": 1, "b": 2}, {"a": 2, "b": 3},
        ]})
        engine.add_database("other", {"t": [{"a": 9}]})
        for source in self.PROGRAM:
            engine.define(source)
        return engine

    def test_recursive_scc_is_reused_not_duplicated(self):
        engine = self.build()
        pruned = answers_set(engine.query("?.g.ev(.a=X, .b=Y)"), "X", "Y")
        assert engine.last_prune.reason == "pruned"
        scc = frozenset(id(rule) for rule in engine.program.rules[:3:2])
        assert scc in engine._store
        overlay = engine._store[scc][1]
        engine.materialized_view()
        # Three strata in all: the SCC, od's base rule, and w.n.
        assert len(engine._store) == 3
        assert engine._store[scc][1] is overlay
        assert engine.fixpoint_stats.reused_strata == 2
        full = self.build(prune=False)
        assert pruned == answers_set(full.query("?.g.ev(.a=X, .b=Y)"),
                                     "X", "Y") == {(0, 2), (1, 3)}

    def test_held_read_does_not_materialize(self):
        engine = self.build()
        engine.materialized_view()
        stats = engine.fixpoint_stats
        rounds = stats.rounds
        engine.query("?.g.ev(.a=X, .b=Y)")
        engine.query("?.w.n(.a=X)")
        assert engine.fixpoint_stats is stats
        assert stats.rounds == rounds
        assert stats.reused_strata == 0

    def test_pruned_read_is_repaired_in_place(self):
        engine = self.build()
        engine.query("?.g.ev(.a=X, .b=Y)")
        held = dict(engine._store)
        engine.update("?.g.edge+(.a=3, .b=4)")
        assert engine._store == held
        assert engine.last_fixpoint_stats.maintained_strata >= 1
        # Even-length paths over 0 -> 1 -> 2 -> 3 -> 4.
        assert answers_set(engine.query("?.g.ev(.a=X, .b=Y)"), "X", "Y") == {
            (0, 2), (1, 3), (2, 4), (0, 4),
        }
        assert engine.fixpoint_stats.maintain_fallbacks == 0

    def test_fallback_evicts_only_the_stratum_and_downstream(self):
        engine = IdlEngine(prune=True)
        engine.add_database("a", {"r": [{"x": 1}], "q": [{"x": 5}]})
        engine.add_database("b", {"s": [{"y": 10}]})
        engine.define(".va.p(.x=X) <- .a.r(.x=X)")
        engine.define(".vc.j(.x=X) <- .va.p(.x=X)")
        engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
        engine.materialized_view()
        vb_key = frozenset({id(engine.program.rules[2])})
        vb_overlay = engine._store[vb_key][1]
        # Dropping a relation is a metadata update: its delta is
        # symbolic, so va cannot be repaired, nor can vc downstream.
        engine.update("?.a-.r")
        assert list(engine._store) == [vb_key]
        assert engine._store[vb_key][1] is vb_overlay
        assert engine.fixpoint_stats.maintain_fallbacks == 2
        assert engine.query("?.vc.j(.x=X)") == []
        assert answers_set(engine.query("?.vb.q(.y=Y)"), "Y") == {10}
        assert len(engine._store) == 3
