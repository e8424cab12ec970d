"""A storage database: catalog + stored relations + transactions.

This is the substrate a federation member runs on. DDL (create/drop
relation, create index), DML (insert/delete/update) — all of it
transactional when performed inside ``database.begin()``.
"""

from __future__ import annotations

from repro.errors import StorageError, TransactionError
from repro.storage.catalog import Catalog
from repro.storage.relation import StoredRelation
from repro.storage.schema import Schema
from repro.storage.transaction import Transaction


class StorageDatabase:
    """One autonomous relational database."""

    def __init__(self, name):
        self.name = name
        self.catalog = Catalog()
        self._relations = {}
        self._transaction = None

    # -- transactions -----------------------------------------------------

    def begin(self):
        """Start a transaction (only one at a time; no concurrency)."""
        if self._transaction is not None:
            raise TransactionError("a transaction is already active")
        self._transaction = Transaction(self)
        return self._transaction

    def _end_transaction(self, transaction):
        if transaction is self._transaction:
            self._transaction = None

    @property
    def in_transaction(self):
        return self._transaction is not None

    def _log(self):
        return self._transaction

    # -- DDL ------------------------------------------------------------------

    def create_relation(self, relation_name, columns, key=()):
        """Create a relation; ``columns`` as accepted by Schema."""
        schema = columns if isinstance(columns, Schema) else Schema(columns, key=key)
        self.catalog.register(relation_name, schema)
        self._relations[relation_name] = StoredRelation(relation_name, schema)
        if self._transaction is not None:
            self._transaction.log_create_relation(relation_name)
        return self._relations[relation_name]

    def drop_relation(self, relation_name):
        relation = self.relation(relation_name)
        self.catalog.unregister(relation_name)
        del self._relations[relation_name]
        if self._transaction is not None:
            self._transaction.log_drop_relation(relation_name, relation)

    def _drop_relation_raw(self, relation_name):
        self.catalog.unregister(relation_name)
        del self._relations[relation_name]

    def _restore_relation_raw(self, relation_name, relation):
        self.catalog.register(relation_name, relation.schema)
        self._relations[relation_name] = relation

    def relation(self, relation_name):
        try:
            return self._relations[relation_name]
        except KeyError:
            raise StorageError(
                f"database {self.name!r} has no relation {relation_name!r}"
            ) from None

    def relation_names(self):
        return sorted(self._relations)

    def has_relation(self, relation_name):
        return relation_name in self._relations

    def create_index(self, relation_name, index_name, columns, unique=False,
                     kind="hash"):
        return self.relation(relation_name).create_index(
            index_name, columns, unique=unique, kind=kind
        )

    # -- DML ------------------------------------------------------------------

    def insert(self, relation_name, row):
        relation = self.relation(relation_name)
        rid = relation.insert(row)
        if self._transaction is not None:
            self._transaction.log_insert(relation_name, rid)
        return rid

    def insert_many(self, relation_name, rows):
        return [self.insert(relation_name, row) for row in rows]

    def delete(self, relation_name, predicate=None, **equalities):
        """Delete rows matching a predicate and/or equalities; returns
        the number removed."""
        relation = self.relation(relation_name)

        def matches(row):
            if any(row.get(c) != v for c, v in equalities.items()):
                return False
            return predicate is None or predicate(row)

        removed = relation.delete_where(matches)
        if self._transaction is not None:
            for rid, row in removed:
                self._transaction.log_delete(relation_name, rid, row)
        return len(removed)

    def update(self, relation_name, changes, predicate=None, **equalities):
        """Apply ``changes`` to matching rows; returns the count."""
        relation = self.relation(relation_name)
        targets = [
            rid
            for rid, row in relation.scan_with_ids()
            if all(row.get(c) == v for c, v in equalities.items())
            and (predicate is None or predicate(row))
        ]
        for rid in targets:
            old, _ = relation.update_rid(rid, changes)
            if self._transaction is not None:
                self._transaction.log_update(relation_name, rid, old)
        return len(targets)

    def scan(self, relation_name):
        return list(self.relation(relation_name).scan())

    def replace_contents(self, desired, schema_factory):
        """Make this database hold exactly ``desired`` (``{rel: rows}``),
        atomically.

        Relations absent from ``desired`` are dropped, new ones created
        with ``schema_factory(rows)``, and a surviving relation whose
        rows carry columns its stored schema lacks is widened by
        recreation. Any failure aborts, leaving the database untouched —
        this is the member-side half of a federation flush.

        Runs in its own transaction, or — when the caller already holds
        one (e.g. :class:`~repro.multidb.connectors.StorageConnector`
        wrapping the whole apply) — under a savepoint of that
        transaction, so a mid-replace failure rolls this replacement
        back without killing the enclosing transaction.
        """
        if self._transaction is not None:
            savepoint = f"_replace_contents_{id(desired)}"
            self._transaction.savepoint(savepoint)
            try:
                self._replace_contents(desired, schema_factory)
            except Exception:
                self._transaction.rollback_to(savepoint)
                raise
        else:
            with self.begin():
                self._replace_contents(desired, schema_factory)
        return self

    def _replace_contents(self, desired, schema_factory):
        for rel_name in list(self.relation_names()):
            if rel_name not in desired:
                self.drop_relation(rel_name)
        for rel_name, rows in desired.items():
            self.replace_relation(rel_name, rows, schema_factory)

    def replace_relation(self, relation_name, rows, schema_factory):
        """Make one relation hold exactly ``rows``: created with
        ``schema_factory(rows)`` when missing, recreated when ``rows``
        carry columns its stored schema lacks. Not atomic by itself —
        call it inside a transaction."""
        if self.has_relation(relation_name):
            schema = self.catalog.schema_of(relation_name)
            incoming = {column for row in rows for column in row}
            if not incoming <= set(schema.column_names()):
                self.drop_relation(relation_name)
        if not self.has_relation(relation_name):
            self.create_relation(relation_name, schema_factory(rows))
        elif len(self.relation(relation_name)):
            self.delete(relation_name)
        for row in rows:
            self.insert(relation_name, row)

    def lookup(self, relation_name, **equalities):
        return self.relation(relation_name).lookup(**equalities)

    # -- reflection ------------------------------------------------------------

    def system_relations(self):
        """The catalog rendered as data (see Catalog)."""
        return {
            "_relations": self.catalog.relations_table(),
            "_columns": self.catalog.columns_table(),
        }

    def row_count(self):
        return sum(len(relation) for relation in self._relations.values())

    def __repr__(self):
        return f"StorageDatabase({self.name!r}, relations={self.relation_names()})"
