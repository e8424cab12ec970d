"""Adapters between the storage substrate and the IDL universe.

Members of a federation run on their own relational systems
(:mod:`repro.storage` here). The federation snapshots their data into
the universe on attach, and — after update programs have run — flushes
the universe state back, transactionally, so the autonomous database
ends up exactly as if it had executed the translated updates locally.
"""

from __future__ import annotations

from repro.multidb.connectors import ChangeSet, row_key
from repro.objects import encode
from repro.storage.schema import ANY, BOOL, FLOAT, INT, STR, Column, Schema


def storage_to_relations(storage):
    """Snapshot a StorageDatabase into ``{relation: rows}``."""
    return {
        name: storage.scan(name) for name in storage.relation_names()
    }


def attach_storage(engine, name, storage, include_catalog=False):
    """Register a storage database as a member of an engine's universe.

    With ``include_catalog`` the reflective ``_relations``/``_columns``
    tables are exposed too — making the member's metadata queryable as
    data, the paper's Section 2 requirement.
    """
    relations = storage_to_relations(storage)
    if include_catalog:
        relations.update(storage.system_relations())
    engine.add_database(name, relations)
    return engine.universe.database(name)


def infer_schema(rows):
    """Infer a (loose) schema from row dicts: union of columns, type
    ``any`` unless every non-null value agrees."""
    columns = {}
    for row in rows:
        for name, value in row.items():
            seen = columns.setdefault(name, set())
            if value is None:
                continue
            if isinstance(value, bool):
                seen.add(BOOL)
            elif isinstance(value, str):
                seen.add(STR)
            elif isinstance(value, int):
                seen.add(INT)
            elif isinstance(value, float):
                seen.add(FLOAT)
            else:
                seen.add(ANY)
    built = []
    for name, seen in columns.items():
        if seen == {INT}:
            type_name = INT
        elif seen <= {INT, FLOAT} and seen:
            type_name = FLOAT
        elif len(seen) == 1:
            type_name = next(iter(seen))
        else:
            type_name = ANY
        built.append(Column(name, type_name, nullable=True))
    return Schema(built)


def relation_rows(relation):
    """A relation set's tuple elements as row dicts (the wire format
    member connectors speak: non-tuple elements have no row form)."""
    return [encode.to_python(element) for element in relation
            if element.is_tuple]


def universe_rows(universe, name):
    """Database ``name``'s relations as plain ``{rel: rows}`` (the full
    state of a member)."""
    database = universe.database(name)
    desired = {}
    for rel_name in database.attr_names():
        relation = database.get(rel_name)
        if relation.is_set:
            desired[rel_name] = relation_rows(relation)
    return desired


def member_changes(universe, delta, names):
    """``{member: ChangeSet}`` of one update for the members ``names``.

    The net row inserts and deletes come from the update's
    :class:`~repro.core.updates.UpdateDelta` (``delta.fold()``); only
    relations ``(db, rel)`` carry rows. A path whose change is not a row
    change — symbolic (an attribute created or dropped, an atom nulled
    outside any set element) or deeper than a relation — makes its
    relation a ``put`` of the relation's current rows, or a ``drop``
    when no relation is left there. A symbolic database- or
    universe-level path makes the member's change set the exact
    full-state replace. Every member in ``names`` gets a change set,
    possibly empty.
    """
    inserts, deletes, symbolic = delta.fold()
    exact = set()
    replaced = {}  # member -> relations to put or drop
    for path in list(symbolic) + [
            path for path in list(inserts) + list(deletes) if len(path) != 2]:
        if not path:
            exact.update(names)
        elif len(path) == 1:
            exact.add(path[0])
        else:
            replaced.setdefault(path[0], set()).add(path[1])
    changes = {}
    for name in names:
        if name in exact:
            changes[name] = ChangeSet.replace_all(universe_rows(universe, name))
            continue
        relations = {}
        database = universe.database(name)
        whole = replaced.get(name, ())
        for rel in sorted(whole):
            relation = database.get_or_none(rel)
            relations[rel] = ({"put": relation_rows(relation)}
                              if relation is not None and relation.is_set
                              else {"drop": True})
        for table, kind in ((deletes, "del"), (inserts, "ins")):
            for path, elements in table.items():
                if len(path) != 2 or path[0] != name or path[1] in whole:
                    continue
                rows = relation_rows(elements.values())
                if rows:
                    relations.setdefault(path[1], {})[kind] = rows
        changes[name] = ChangeSet(relations)
    return changes


def apply_changes_to_storage(storage, changes):
    """Apply a :class:`~repro.multidb.connectors.ChangeSet` to
    ``storage`` (inside the caller's transaction).

    Each named relation is dropped or rebuilt: a put's rows, or the
    stored rows minus those matching a delete plus each insert not
    already present — by full row value, a stored null and a missing
    column being the same. The rebuild re-infers the schema when a row
    brings a new column. An exact change set also drops every relation
    it does not name; otherwise those are not touched.
    """

    def stored_key(row):
        return row_key({k: v for k, v in row.items() if v is not None})

    if changes.exact:
        for rel_name in storage.relation_names():
            if rel_name not in changes.relations:
                storage.drop_relation(rel_name)
    for rel_name, change in changes.relations.items():
        exists = storage.has_relation(rel_name)
        if "drop" in change:
            if exists:
                storage.drop_relation(rel_name)
            continue
        rows = change.get("put")
        if rows is None:
            doomed = {stored_key(row) for row in change.get("del", ())}
            rows = [row for row in (storage.scan(rel_name) if exists else ())
                    if stored_key(row) not in doomed]
            present = {stored_key(row) for row in rows}
            for row in change.get("ins", ()):
                key = stored_key(row)
                if key not in present:
                    present.add(key)
                    rows.append(row)
            if not exists and not rows:
                continue
        storage.replace_relation(rel_name, rows, infer_schema)
    return storage


def flush_rows_to_storage(storage, desired):
    """Make ``storage`` hold exactly ``desired`` (``{rel: rows}``), in
    one transaction, inferring schemas for new relations. Aborts
    (restoring the storage database untouched) on any schema violation.
    """
    return storage.replace_contents(dict(desired), infer_schema)


def flush_to_storage(universe, name, storage):
    """Make ``storage`` reflect the universe's state of database ``name``.

    Relations that disappeared are dropped, new ones created (schema
    inferred), and every surviving relation's contents replaced — all or
    nothing.
    """
    flush_rows_to_storage(storage, universe_rows(universe, name))
    return storage
