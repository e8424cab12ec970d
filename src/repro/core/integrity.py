"""Key and type constraints over the universe.

The paper models relation and attribute names only, noting "it is easy
to extend this to other metadata such as keys, types, authorization,
etc." (Section 2) and lists the extension as future work (Section 8).
This module is that extension:

* **key constraints** — the listed attributes functionally determine
  the element within a relation; violated by duplicate key values,
  missing key attributes or null keys;
* **type constraints** — an attribute's atoms must belong to a type
  class (``str`` / ``num`` / ``bool``); non-atomic objects violate;
* constraints may target **higher-order families**: a key declared for
  relation pattern ``dbO.*`` covers every relation of the data-dependent
  dbO view family.

Constraints are themselves *metadata represented as data*: a
ConstraintSet renders to relations, so IDL programs can query which
keys exist — the same reflective move the paper makes for names.

``IdlEngine`` integration: declare through ``engine.declare_key`` /
``engine.declare_type``; every atomic update validates the relations
it touched in the post-state and rolls back with :class:`IntegrityError`
on violation (a declaration validates the whole current state).
"""

from __future__ import annotations

from repro.errors import IntegrityError
from repro.objects.base import same_value

TYPE_CLASSES = ("str", "num", "bool")


class Violation:
    """One constraint violation, with enough context to act on."""

    __slots__ = ("kind", "db", "rel", "detail")

    def __init__(self, kind, db, rel, detail):
        self.kind = kind  # 'duplicate-key' | 'incomplete-key' | 'bad-type'
        self.db = db
        self.rel = rel
        self.detail = detail

    def __repr__(self):
        return f"<Violation {self.kind} at {self.db}.{self.rel}: {self.detail}>"


class KeyConstraint:
    """``columns`` determine the element within matching relations.

    ``rel`` may be ``"*"`` to cover every relation of the database — the
    higher-order family case.
    """

    __slots__ = ("db", "rel", "columns")

    def __init__(self, db, rel, columns):
        if not columns:
            raise ValueError("a key needs at least one column")
        self.db = db
        self.rel = rel
        self.columns = tuple(columns)

    def matches(self, db, rel):
        return db == self.db and (self.rel == "*" or rel == self.rel)

    def check(self, db, rel, relation):
        violations = []
        seen = {}
        for element in relation:
            if not element.is_tuple:
                continue
            key = []
            complete = True
            for column in self.columns:
                if not element.has(column):
                    violations.append(
                        Violation(
                            "incomplete-key", db, rel,
                            f"element lacks key attribute {column!r}",
                        )
                    )
                    complete = False
                    break
                value = element.get(column)
                if value.is_atom and value.is_null:
                    violations.append(
                        Violation(
                            "incomplete-key", db, rel,
                            f"null key attribute {column!r}",
                        )
                    )
                    complete = False
                    break
                key.append(value.value_key())
            if not complete:
                continue
            key = tuple(key)
            prior = seen.get(key)
            if prior is not None and not same_value(prior, element):
                violations.append(
                    Violation(
                        "duplicate-key", db, rel,
                        f"two elements share key {self.columns}={key}",
                    )
                )
            else:
                seen[key] = element
        return violations


class TypeConstraint:
    """Attribute ``attr`` of matching relations holds atoms of a class."""

    __slots__ = ("db", "rel", "attr", "type_class", "nullable")

    def __init__(self, db, rel, attr, type_class, nullable=True):
        if type_class not in TYPE_CLASSES:
            raise ValueError(f"unknown type class {type_class!r}")
        self.db = db
        self.rel = rel
        self.attr = attr
        self.type_class = type_class
        self.nullable = nullable

    def matches(self, db, rel):
        return db == self.db and (self.rel == "*" or rel == self.rel)

    def check(self, db, rel, relation):
        violations = []
        for element in relation:
            if not element.is_tuple or not element.has(self.attr):
                continue
            value = element.get(self.attr)
            if not value.is_atom:
                violations.append(
                    Violation(
                        "bad-type", db, rel,
                        f"{self.attr!r} holds a {value.category} object",
                    )
                )
                continue
            if value.is_null:
                if not self.nullable:
                    violations.append(
                        Violation(
                            "bad-type", db, rel,
                            f"{self.attr!r} is null but declared not null",
                        )
                    )
                continue
            if not _in_class(value.value, self.type_class):
                violations.append(
                    Violation(
                        "bad-type", db, rel,
                        f"{self.attr!r} holds {value.value!r}, "
                        f"expected {self.type_class}",
                    )
                )
        return violations


def _in_class(value, type_class):
    if type_class == "bool":
        return isinstance(value, bool)
    if type_class == "num":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, str)


class ConstraintSet:
    """All declared constraints, validated against a universe."""

    def __init__(self):
        self.keys = []
        self.types = []

    def declare_key(self, db, rel, columns):
        constraint = KeyConstraint(db, rel, columns)
        self.keys.append(constraint)
        return constraint

    def declare_type(self, db, rel, attr, type_class, nullable=True):
        constraint = TypeConstraint(db, rel, attr, type_class, nullable)
        self.types.append(constraint)
        return constraint

    def __len__(self):
        return len(self.keys) + len(self.types)

    def validate(self, universe, touched=None):
        """All violations (empty list if consistent): across the
        universe, or only in the relations under the ``touched`` path
        prefixes — ``(db, rel)`` names one relation, ``(db,)`` a whole
        database and ``()`` the whole universe."""
        violations = []
        everything = touched is None or () in touched
        for db in universe.attr_names():
            database = universe.get(db)
            if not database.is_tuple:
                continue
            for rel in database.attr_names():
                if not (everything or (db,) in touched
                        or (db, rel) in touched):
                    continue
                relation = database.get(rel)
                if not relation.is_set:
                    continue
                for constraint in self.keys:
                    if constraint.matches(db, rel):
                        violations.extend(constraint.check(db, rel, relation))
                for constraint in self.types:
                    if constraint.matches(db, rel):
                        violations.extend(constraint.check(db, rel, relation))
        return violations

    def enforce(self, universe, touched=None):
        """Raise :class:`IntegrityError` listing all violations, if any
        (in the relations under ``touched``, when given — see
        :meth:`validate`)."""
        violations = self.validate(universe, touched)
        if violations:
            summary = "; ".join(
                f"{v.kind} at {v.db}.{v.rel} ({v.detail})" for v in violations[:5]
            )
            more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
            raise IntegrityError(f"integrity violation: {summary}{more}")

    # -- reflection: constraints as data -------------------------------------

    def as_relations(self):
        """Render the constraint catalog as relations (rows of dicts)."""
        return {
            "keys": [
                {"db": c.db, "rel": c.rel, "columns": ",".join(c.columns)}
                for c in self.keys
            ],
            "types": [
                {
                    "db": c.db,
                    "rel": c.rel,
                    "attr": c.attr,
                    "type": c.type_class,
                    "nullable": 1 if c.nullable else 0,
                }
                for c in self.types
            ],
        }
