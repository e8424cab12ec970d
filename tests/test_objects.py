"""Unit tests for the IDL object model (paper Section 3)."""

from __future__ import annotations

import pytest

from repro.errors import UnknownNameError
from repro.objects import (
    Atom,
    MergedSet,
    MergedTuple,
    SetObject,
    TupleObject,
    Universe,
    compare_values,
    from_python,
    get_path,
    get_path_or_none,
    merge_objects,
    same_value,
    to_python,
)


class TestAtom:
    def test_categories(self):
        assert Atom(1).is_atom and not Atom(1).is_tuple and not Atom(1).is_set

    def test_value_equality(self):
        assert Atom(5) == Atom(5)
        assert Atom(5) != Atom(6)
        assert Atom("a") != Atom("b")

    def test_bool_and_int_are_distinct_values(self):
        assert Atom(True) != Atom(1)
        assert Atom(False) != Atom(0)

    def test_int_and_float_equality(self):
        assert Atom(5) == Atom(5.0)

    def test_null_atom(self):
        assert Atom(None).is_null
        assert not Atom(0).is_null

    def test_null_fails_every_comparison(self):
        null = Atom(None)
        for op in ("<", "<=", "=", "!=", ">", ">="):
            assert null.compare(op, 5) is False
            assert compare_values(5, op, None) is False
        assert compare_values(None, "=", None) is False

    def test_incomparable_types_are_false_not_errors(self):
        assert Atom("abc").compare(">", 5) is False
        assert Atom(5).compare("<", "abc") is False
        assert Atom("abc").compare("=", 5) is False
        assert Atom("abc").compare("!=", 5) is True

    def test_ordered_comparisons(self):
        assert Atom(5).compare("<", 6)
        assert Atom(5).compare("<=", 5)
        assert Atom("abc").compare("<", "abd")
        assert not Atom(7).compare(">", 7)

    def test_rejects_non_scalars(self):
        with pytest.raises(TypeError):
            Atom([1, 2])

    def test_copy_is_independent(self):
        original = Atom(5)
        copied = original.copy()
        copied.value = 9
        assert original.value == 5


class TestTupleObject:
    def test_set_get_remove(self):
        t = TupleObject()
        t.set("a", Atom(1))
        assert t.has("a") and t.get("a") == Atom(1)
        t.remove("a")
        assert not t.has("a")

    def test_attribute_order_preserved_for_display(self):
        t = TupleObject([("b", Atom(1)), ("a", Atom(2))])
        assert t.attr_names() == ["b", "a"]

    def test_equality_ignores_attribute_order(self):
        left = TupleObject([("a", Atom(1)), ("b", Atom(2))])
        right = TupleObject([("b", Atom(2)), ("a", Atom(1))])
        assert left == right
        assert hash(left) == hash(right)

    def test_unique_attributes(self):
        t = TupleObject([("a", Atom(1)), ("a", Atom(2))])
        assert t.get("a") == Atom(2)  # last write wins
        assert len(t) == 1

    def test_nested_equality_is_deep(self):
        left = from_python({"a": {"b": [1, 2]}})
        right = from_python({"a": {"b": [2, 1]}})
        assert left == right  # sets are unordered

    def test_attr_names_must_be_strings(self):
        with pytest.raises(TypeError):
            TupleObject().set(1, Atom(1))

    def test_copy_is_deep(self):
        original = from_python({"a": {"b": 1}})
        copied = original.copy()
        copied.get("a").set("b", Atom(99))
        assert original.get("a").get("b") == Atom(1)


class TestSetObject:
    def test_value_deduplication(self):
        s = SetObject([Atom(1), Atom(1), Atom(2)])
        assert len(s) == 2

    def test_heterogeneous_membership(self):
        s = SetObject([Atom(1), from_python({"a": 1}), from_python([1])])
        assert len(s) == 3
        assert s.contains_value(Atom(1))
        assert s.contains_value(from_python({"a": 1}))

    def test_add_reports_change(self):
        s = SetObject()
        assert s.add(Atom(1)) is True
        assert s.add(Atom(1)) is False

    def test_discard_value(self):
        s = SetObject([from_python({"a": 1})])
        assert s.discard_value(from_python({"a": 1})) is True
        assert s.discard_value(from_python({"a": 1})) is False
        assert s.is_empty

    def test_remove_where(self):
        s = SetObject([Atom(i) for i in range(5)])
        removed = s.remove_where(lambda obj: obj.value % 2 == 0)
        assert {atom.value for atom in removed} == {0, 2, 4}
        assert len(s) == 2

    def test_refresh_after_in_place_mutation(self):
        element = TupleObject([("a", Atom(1))])
        s = SetObject([element])
        element.set("a", Atom(2))
        s.refresh(element)
        assert s.contains_value(from_python({"a": 2}))
        assert not s.contains_value(from_python({"a": 1}))

    def test_refresh_collapses_duplicates(self):
        first = TupleObject([("a", Atom(1))])
        second = TupleObject([("a", Atom(2))])
        s = SetObject([first, second])
        second.set("a", Atom(1))
        s.refresh(second)
        assert len(s) == 1

    def test_refresh_with_old_key_never_scans(self):
        class NoScan(dict):
            def items(self):
                raise AssertionError("refresh scanned the set")

        elements = [TupleObject([("a", Atom(i))]) for i in range(50)]
        s = SetObject(elements)
        s._elements = NoScan(s._elements)
        target = elements[20]
        old_key = target.value_key()
        target.set("a", Atom(99))
        version = s.version
        s.refresh(target, old_key)
        assert s.version == version + 1
        assert s.contains_value(from_python({"a": 99}))
        assert not s.contains_value(from_python({"a": 20}))
        assert len(s) == 50

    def test_refresh_with_old_key_collapses_duplicates(self):
        first = TupleObject([("a", Atom(1))])
        second = TupleObject([("a", Atom(2))])
        s = SetObject([first, second])
        old_key = second.value_key()
        second.set("a", Atom(1))
        s.refresh(second, old_key)
        assert len(s) == 1
        assert s.contains_value(from_python({"a": 1}))

    def test_checkpoint_restore_is_identity_exact(self):
        kept = [TupleObject([("a", Atom(i))]) for i in range(3)]
        s = SetObject(kept)
        saved = s.checkpoint()
        s.discard_value(kept[1])
        s.add(TupleObject([("a", Atom(9))]))
        version = s.version
        s.restore(saved)
        assert s.version > version
        assert s.elements() == kept
        assert all(a is b for a, b in zip(s.elements(), kept))

    def test_varying_arity_tuples_coexist(self):
        s = SetObject([from_python({"a": 1}), from_python({"a": 1, "b": 2})])
        assert len(s) == 2

    def test_set_equality_is_order_insensitive(self):
        assert SetObject([Atom(1), Atom(2)]) == SetObject([Atom(2), Atom(1)])


class TestEncode:
    def test_round_trip_nested(self):
        data = {"db": {"r": [{"a": 1, "b": "x"}, {"a": 2}]}}
        assert to_python(from_python(data)) == data

    def test_scalars(self):
        assert from_python(5) == Atom(5)
        assert from_python(None).is_null
        assert to_python(Atom("s")) == "s"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            from_python(object())


class TestPath:
    def test_get_path(self):
        obj = from_python({"a": {"b": {"c": 1}}})
        assert get_path(obj, ["a", "b", "c"]) == Atom(1)

    def test_get_path_missing_raises(self):
        obj = from_python({"a": {}})
        with pytest.raises(UnknownNameError):
            get_path(obj, ["a", "zzz"])

    def test_get_path_or_none(self):
        obj = from_python({"a": {}})
        assert get_path_or_none(obj, ["a", "zzz"]) is None

    def test_get_path_through_non_tuple_raises(self):
        obj = from_python({"a": [1]})
        with pytest.raises(UnknownNameError):
            get_path(obj, ["a", "b"])


class TestMerged:
    def test_tuple_merge_union_and_shadowing(self):
        base = from_python({"shared": 1, "base_only": 2})
        overlay = from_python({"shared": 9, "over_only": 3})
        merged = MergedTuple(base, overlay)
        assert set(merged.attr_names()) == {"shared", "base_only", "over_only"}
        assert merged.get("shared") == Atom(9)  # overlay wins on clash
        assert merged.get("base_only") == Atom(2)

    def test_nested_tuples_merge_recursively(self):
        base = from_python({"db": {"r": [1]}})
        overlay = from_python({"db": {"v": [2]}})
        merged = MergedTuple(base, overlay)
        assert set(merged.get("db").attr_names()) == {"r", "v"}

    def test_sets_merge_by_value_union(self):
        base = from_python({"db": {"r": [{"a": 1}, {"a": 2}]}})
        overlay = from_python({"db": {"r": [{"a": 2}, {"a": 3}]}})
        merged = MergedTuple(base, overlay)
        rel = merged.get("db").get("r")
        assert isinstance(rel, MergedSet)
        assert len(rel) == 3

    def test_merged_objects_are_read_only(self):
        merged = merge_objects(from_python({"a": 1}), from_python({"b": 2}))
        assert not hasattr(merged, "set")

    def test_merged_copy_is_plain_and_mutable(self):
        merged = MergedTuple(from_python({"a": 1}), from_python({"b": 2}))
        plain = merged.copy()
        plain.set("c", Atom(3))
        assert isinstance(plain, TupleObject)

    def test_merged_value_semantics(self):
        base = from_python({"a": 1})
        merged = MergedTuple(base, TupleObject())
        assert same_value(merged, base)

    def test_merged_set_membership_and_emptiness(self):
        base = from_python([{"a": 1}])
        overlay = from_python([{"a": 2}])
        merged = MergedSet(base, overlay)
        assert merged.contains_value(from_python({"a": 1}))
        assert merged.contains_value(from_python({"a": 2}))
        assert not merged.contains_value(from_python({"a": 3}))
        assert not merged.is_empty
        assert MergedSet(from_python([]), from_python([])).is_empty

    def test_merged_set_copy_is_mutable(self):
        merged = MergedSet(from_python([1]), from_python([2]))
        plain = merged.copy()
        plain.add(from_python(3))
        assert len(plain) == 3 and len(merged) == 2

    def test_deeply_chained_merges(self):
        # Strata produce chains: base + overlay1 + overlay2 + ...
        view = from_python({"d": {"r": [{"x": 0}]}})
        for level in range(1, 5):
            view = MergedTuple(view, from_python({"d": {"r": [{"x": level}]}}))
        relation = view.get("d").get("r")
        assert {to_python(e)["x"] for e in relation.elements()} == {0, 1, 2, 3, 4}


class TestUniverse:
    def test_add_and_query_databases(self):
        u = Universe()
        u.add_database("db1", from_python({"r": [{"a": 1}]}))
        assert u.database_names() == ["db1"]
        assert len(u.relation("db1", "r")) == 1

    def test_duplicate_database_rejected(self):
        u = Universe()
        u.add_database("db1")
        with pytest.raises(UnknownNameError):
            u.add_database("db1")

    def test_add_relation_and_names(self):
        u = Universe()
        u.add_database("db1")
        u.add_relation("db1", "r", [{"a": 1}, {"a": 2}])
        assert u.relation_names("db1") == ["r"]
        with pytest.raises(UnknownNameError):
            u.add_relation("db1", "r", [])

    def test_snapshot_is_independent(self):
        u = Universe.from_python({"db": {"r": [{"a": 1}]}})
        snap = u.snapshot()
        u.relation("db", "r").clear()
        assert len(snap.relation("db", "r")) == 1

    def test_count_facts(self):
        u = Universe.from_python({"d1": {"r": [{"a": 1}, {"a": 2}]}, "d2": {"s": [{"b": 1}]}})
        assert u.count_facts() == 3

    def test_unknown_lookups_raise(self):
        u = Universe()
        with pytest.raises(UnknownNameError):
            u.database("zzz")
        u.add_database("db")
        with pytest.raises(UnknownNameError):
            u.relation("db", "zzz")
