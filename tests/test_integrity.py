"""Tests for the key/type constraint extension (paper Sections 2 & 8)."""

from __future__ import annotations

import pytest

from repro import IdlEngine
from repro.core.integrity import ConstraintSet, KeyConstraint
from repro.errors import IntegrityError
from repro.workloads.stocks import paper_universe


@pytest.fixture
def engine():
    return IdlEngine(universe=paper_universe())


class TestConstraintSet:
    def test_clean_universe_validates(self, engine):
        constraints = ConstraintSet()
        constraints.declare_key("euter", "r", ("date", "stkCode"))
        constraints.declare_type("euter", "r", "clsPrice", "num")
        assert constraints.validate(engine.universe) == []

    def test_duplicate_key_detected(self, engine):
        constraints = ConstraintSet()
        constraints.declare_key("euter", "r", ("date",))  # too weak a key
        violations = constraints.validate(engine.universe)
        assert any(v.kind == "duplicate-key" for v in violations)

    def test_missing_key_attribute_detected(self, engine):
        constraints = ConstraintSet()
        constraints.declare_key("euter", "r", ("volume",))
        violations = constraints.validate(engine.universe)
        assert all(v.kind == "incomplete-key" for v in violations)

    def test_null_key_detected(self, engine):
        engine.update("?.euter.r(.date=3/3/85, .stkCode=hp, .clsPrice-=C)",
                      atomic=False)
        constraints = ConstraintSet()
        constraints.declare_key("euter", "r", ("clsPrice",))
        violations = constraints.validate(engine.universe)
        assert any(v.kind == "incomplete-key" for v in violations)

    def test_type_violations(self, engine):
        constraints = ConstraintSet()
        constraints.declare_type("euter", "r", "clsPrice", "str")
        violations = constraints.validate(engine.universe)
        assert violations and all(v.kind == "bad-type" for v in violations)

    def test_wildcard_relation_family(self, engine):
        constraints = ConstraintSet()
        constraints.declare_key("ource", "*", ("date",))
        assert constraints.validate(engine.universe) == []
        # Make hp violate; the wildcard constraint catches it.
        engine.update("?.ource.hp+(.date=3/3/85, .clsPrice=51)", atomic=False)
        violations = constraints.validate(engine.universe)
        assert [v.rel for v in violations] == ["hp"]

    def test_touched_prefixes_scope_the_check(self, engine):
        constraints = ConstraintSet()
        constraints.declare_key("euter", "r", ("date",))  # too weak a key
        universe = engine.universe
        assert constraints.validate(universe, touched={("ource", "hp")}) == []
        assert constraints.validate(universe, touched={("euter", "s")}) == []
        # A (db, rel) prefix names the relation; a shorter one widens
        # the check to the database, or to the whole universe.
        for touched in ({("euter", "r")}, {("euter",)}, {()}):
            assert constraints.validate(universe, touched=touched)

    def test_constraints_as_relations(self):
        constraints = ConstraintSet()
        constraints.declare_key("euter", "r", ("date", "stkCode"))
        constraints.declare_type("euter", "r", "clsPrice", "num", nullable=False)
        rendered = constraints.as_relations()
        assert rendered["keys"] == [
            {"db": "euter", "rel": "r", "columns": "date,stkCode"}
        ]
        assert rendered["types"][0]["nullable"] == 0

    def test_not_null_type(self, engine):
        constraints = ConstraintSet()
        constraints.declare_type("euter", "r", "clsPrice", "num", nullable=False)
        assert constraints.validate(engine.universe) == []
        engine.update("?.euter.r(.date=3/3/85, .stkCode=hp, .clsPrice-=C)",
                      atomic=False)
        assert constraints.validate(engine.universe)


class TestEngineIntegration:
    def test_violating_update_rolls_back(self, engine):
        engine.declare_key("euter", "r", ("date", "stkCode"))
        before = engine.universe.count_facts()
        with pytest.raises(IntegrityError):
            # Same (date, stkCode) as an existing tuple, new price.
            engine.update(
                "?.euter.r+(.date=3/3/85, .stkCode=hp, .clsPrice=999)"
            )
        assert engine.universe.count_facts() == before
        assert not engine.ask("?.euter.r(.clsPrice=999)")

    def test_consistent_update_passes(self, engine):
        engine.declare_key("euter", "r", ("date", "stkCode"))
        result = engine.update(
            "?.euter.r+(.date=3/5/85, .stkCode=hp, .clsPrice=70)"
        )
        assert result.succeeded

    def test_type_constraint_blocks_bad_insert(self, engine):
        engine.declare_type("euter", "r", "clsPrice", "num")
        with pytest.raises(IntegrityError):
            engine.update(
                "?.euter.r+(.date=3/5/85, .stkCode=hp, .clsPrice=expensive)"
            )

    def test_declaration_refused_on_dirty_state(self, engine):
        with pytest.raises(IntegrityError):
            engine.declare_key("euter", "r", ("date",))
        # The refused constraint must not linger.
        assert len(engine.constraints) == 0
        engine.update("?.euter.r+(.date=3/3/85, .stkCode=hp, .clsPrice=1)")

    def test_update_program_respects_constraints(self, engine):
        engine.universe.add_database("dbU")
        engine.invalidate()
        engine.define_update(
            ".dbU.ins(.s=S, .d=D, .p=P) -> .euter.r+(.date=D, .stkCode=S, .clsPrice=P)"
        )
        engine.declare_key("euter", "r", ("date", "stkCode"))
        with pytest.raises(IntegrityError):
            engine.call("dbU", "ins", s="hp", d="3/3/85", p=123)
        assert not engine.ask("?.euter.r(.clsPrice=123)")

    def test_higher_order_family_constraint_on_updates(self, engine):
        engine.declare_key("ource", "*", ("date",))
        with pytest.raises(IntegrityError):
            engine.update("?.ource.hp+(.date=3/3/85, .clsPrice=51)")
        # The original quote is still there, the conflicting one is not.
        assert engine.ask("?.ource.hp(.date=3/3/85, .clsPrice=50)")
        assert not engine.ask("?.ource.hp(.clsPrice=51)")

    def test_untouched_relations_are_not_rechecked(self, monkeypatch):
        engine = IdlEngine()
        engine.add_database("big", {"r": [
            {"k": index, "v": index % 7} for index in range(8000)
        ]})
        engine.add_database("small", {"s": []})
        engine.declare_key("big", "r", ("k",))
        checked = []
        original = KeyConstraint.check

        def counting_check(self, db, rel, relation):
            checked.append((db, rel))
            return original(self, db, rel, relation)

        monkeypatch.setattr(KeyConstraint, "check", counting_check)
        engine.update("?.small.s+(.k=1, .v=2)")
        assert checked == []
        with pytest.raises(IntegrityError):
            engine.update("?.big.r+(.k=1, .v=99)")
        assert checked == [("big", "r")]
