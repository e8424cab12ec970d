"""Member connectors: the transport between federation and member.

A :class:`MemberConnector` is how the federation reaches one autonomous
member database — three operations only:

* ``scan()`` — snapshot the member's relations as ``{rel: rows}``;
* ``apply(changes)`` — apply a :class:`ChangeSet` of row-level changes,
  transactionally where the member supports it;
* ``ping()`` — cheap liveness check.

A change set says, per relation, which rows to delete and insert, which
relation to replace wholesale, or which to drop. Deletes match by full
row value and inserts skip rows already present, so applying a change
set twice — or after a torn prefix of it landed — ends in the same
state as applying it once. "Make the member hold exactly this state"
is the *exact-replace* change set (:meth:`ChangeSet.replace_all`):
every relation replaced, every unnamed relation dropped. A plain
``{rel: rows}`` passed to ``apply`` means that.

:class:`InMemoryConnector` serves plain row data, and
:class:`StorageConnector` fronts a
:class:`~repro.storage.database.StorageDatabase`.
:class:`FaultyConnector` decorates any of them with injectable faults —
latency, transient errors, permanent outages, torn writes — all
deterministic (seeded RNG, explicit fail counters, manual clock) so
fault-tolerance tests and benchmarks are reproducible.
"""

from __future__ import annotations

import copy
import itertools
import random
import threading

from repro.errors import MemberUnavailableError
from repro.objects import encode


def row_key(row):
    """The value key of one wire row, under IDL value equality (``5``
    and ``5.0`` are one value, ``True`` and ``1`` are two)."""
    try:
        return frozenset(
            (name, value.__class__ is bool, value)
            for name, value in row.items()
        )
    except (AttributeError, TypeError):  # not a flat dict: the general key
        return encode.from_python(row).value_key()


def _copy_row(row):
    if not isinstance(row, dict):
        return copy.deepcopy(row)
    return {
        name: copy.deepcopy(value) if isinstance(value, (list, dict))
        else value
        for name, value in row.items()
    }


class ChangeSet:
    """Row-level changes to one member: what ``apply`` takes.

    ``relations`` maps a relation name to one of three forms:

    * ``{"del": rows, "ins": rows}`` (either key may be absent) — delete
      the rows equal to each of ``del``, then insert each row of ``ins``
      not already present;
    * ``{"put": rows}`` — replace the relation's rows (created if
      missing);
    * ``{"drop": True}`` — drop the relation if it exists.

    With ``exact`` the member ends holding only the named relations:
    every other one is dropped. ``relations`` is also how the journal
    records the change set (see :meth:`decode`).
    """

    __slots__ = ("relations", "exact")

    def __init__(self, relations=None, exact=False):
        self.relations = relations if relations is not None else {}
        self.exact = exact

    @classmethod
    def replace_all(cls, state):
        """The exact-replace change set: the member holds ``state``
        (``{rel: rows}``) and nothing else."""
        return cls({rel: {"put": list(rows)} for rel, rows in state.items()},
                   exact=True)

    @classmethod
    def coerce(cls, changes):
        """A change set as is; a plain ``{rel: rows}`` full state as its
        exact-replace change set."""
        if isinstance(changes, ChangeSet):
            return changes
        return cls.replace_all(changes)

    @classmethod
    def decode(cls, encoded, exact):
        """The change set of a journaled ``relations`` mapping. A
        relation encoded as a bare row list is the pre-change-set
        full-state form: a ``put``."""
        return cls({
            rel: {"put": change} if isinstance(change, list) else change
            for rel, change in encoded.items()
        }, exact=exact)

    def operations(self):
        """The change set as single-row operations in apply order:
        drops, relation clears and deletes first, then inserted rows
        (the exact drop of unnamed relations is last and not listed).
        ``(rel, kind, row)`` with kind ``drop``/``clear``/``del``/``ins``.
        """
        removals, additions = [], []
        for rel, change in self.relations.items():
            if "drop" in change:
                removals.append((rel, "drop", None))
                continue
            if "put" in change:
                removals.append((rel, "clear", None))
            removals.extend((rel, "del", row) for row in change.get("del", ()))
            additions.extend((rel, "ins", row)
                             for row in change.get("put", change.get("ins", ())))
        return removals + additions

    def prefix(self, count):
        """The non-exact change set of the first ``count``
        :meth:`operations` — what a torn write lands."""
        relations = {}
        for rel, kind, row in self.operations()[:count]:
            change = relations.setdefault(rel, {})
            if kind == "drop":
                change["drop"] = True
            elif kind == "clear":
                change["put"] = []
            elif kind == "del":
                change.setdefault("del", []).append(row)
            elif "put" in change:
                change["put"].append(row)
            else:
                change.setdefault("ins", []).append(row)
        return ChangeSet(relations)

    def __len__(self):
        return len(self.operations())

    def __repr__(self):
        return (f"ChangeSet({sorted(self.relations)}, ops={len(self)}"
                f"{', exact' if self.exact else ''})")


class MemberConnector:
    """Abstract transport to one autonomous member database."""

    def scan(self):
        """Snapshot the member: ``{relation_name: [row_dict, ...]}``."""
        raise NotImplementedError

    def apply(self, changes):
        """Apply a :class:`ChangeSet` (a plain ``{rel: rows}`` means its
        exact-replace change set)."""
        raise NotImplementedError

    def ping(self):
        """Cheap liveness check; raises when the member is unreachable."""
        return True


def _rows_of(rows):
    """A relation's rows, whether kept as a list or keyed."""
    return rows.values() if isinstance(rows, dict) else rows


class InMemoryConnector(MemberConnector):
    """A member that is just rows in this process's memory.

    A relation is a list of rows until the first apply that touches it
    keys it by :func:`row_key` (a dict, in the same order); from then on
    an apply costs what the change set holds, not what the member
    holds, and members nobody writes pay nothing for keys. Thread-safe:
    hedged scans may read while an apply runs, so reads and the
    mutation happen under a lock (the keys and row copies of the
    incoming changes are built outside it).
    """

    def __init__(self, relations=None):
        self._relations = {
            rel: [_copy_row(row) for row in rows]
            for rel, rows in dict(relations or {}).items()
        }
        self._lock = threading.Lock()

    def scan(self):
        with self._lock:
            return {rel: [_copy_row(row) for row in _rows_of(rows)]
                    for rel, rows in self._relations.items()}

    def apply(self, changes):
        changes = ChangeSet.coerce(changes)
        staged = [
            (rel, "drop" in change, "put" in change,
             [row_key(row) for row in change.get("del", ())],
             [(row_key(row), _copy_row(row))
              for row in change.get("put", change.get("ins", ()))])
            for rel, change in changes.relations.items()
        ]
        with self._lock:
            relations = self._relations
            if changes.exact:
                for rel in [rel for rel in relations
                            if rel not in changes.relations]:
                    del relations[rel]
            for rel, drop, put, deletes, inserts in staged:
                if drop:
                    relations.pop(rel, None)
                    continue
                rows = relations.get(rel)
                if put or rows is None:
                    rows = relations[rel] = {}
                elif not isinstance(rows, dict):
                    rows = relations[rel] = {row_key(row): row for row in rows}
                for key in deletes:
                    rows.pop(key, None)
                for key, row in inserts:
                    if key not in rows:
                        rows[key] = row

    def rows(self, relation):
        with self._lock:
            return list(_rows_of(self._relations.get(relation, ())))


class StorageConnector(MemberConnector):
    """A member running on the relational storage substrate.

    ``apply`` is atomic: the whole change set runs inside one storage
    :class:`~repro.storage.transaction.Transaction`, so a failure
    injected (or occurring) mid-apply aborts and leaves the member
    exactly as it was — never half-applied.
    """

    def __init__(self, storage):
        self.storage = storage

    def scan(self):
        from repro.multidb.adapters import storage_to_relations

        return storage_to_relations(self.storage)

    def apply(self, changes):
        from repro.multidb.adapters import apply_changes_to_storage

        with self.storage.begin():
            apply_changes_to_storage(self.storage, ChangeSet.coerce(changes))

    def ping(self):
        self.storage.relation_names()
        return True


#: Auto-assigned fault-stream ids: every FaultyConnector constructed
#: without an explicit ``stream`` takes the next one, so two connectors
#: sharing a ``seed`` still draw from *independent* RNG streams.
_fault_streams = itertools.count()


class FaultyConnector(MemberConnector):
    """Decorator that injects faults into any inner connector.

    Fault sources, all deterministic:

    * ``failure_rate`` — each operation fails with this probability,
      drawn from a per-instance RNG keyed by ``(seed, stream)``
      (transient errors). ``stream`` defaults to the next value of a
      process-wide counter so sibling connectors built with the same
      ``seed`` never share a fault schedule; pass an explicit
      ``stream`` for schedules that must be reproducible across
      processes (CI chaos runs);
    * ``fail_next(n)`` — the next ``n`` operations fail (scripted
      schedules);
    * ``set_outage(True)`` — every operation fails until
      ``restore()`` (permanent outage);
    * ``latency`` — each operation first sleeps on the injected
      ``clock`` (pairs with policy deadlines; use a
      :class:`~repro.multidb.resilience.FakeClock` to keep tests
      instant);
    * ``torn_writes=True`` — a failing ``apply`` first lands a strict
      prefix of the change set's :meth:`ChangeSet.operations` (half of
      them, removals first) on the inner connector, simulating a member
      without transactional flush.

    Counters (``calls``, ``injected``) expose what actually happened.
    When ``obs`` is set (directly, or shared down by the enclosing
    :class:`~repro.multidb.resilience.ResilientConnector`), every
    injected latency and fault is also recorded as an event on the
    currently-open span, so traces show *why* an attempt failed.
    """

    def __init__(self, inner, failure_rate=0.0, latency=0.0, seed=0,
                 clock=None, outage=False, torn_writes=False, stream=None,
                 obs=None):
        self.inner = inner
        self.failure_rate = failure_rate
        self.latency = latency
        self.clock = clock
        self.outage = outage
        self.torn_writes = torn_writes
        self.obs = obs
        self.calls = 0
        self.injected = 0
        self._fail_next = 0
        self.stream = next(_fault_streams) if stream is None else stream
        self._rng = random.Random(f"{seed}/{self.stream}")
        # Counters, the scripted-failure budget, and the RNG are shared
        # by whichever worker threads hit this connector; the injected
        # sleep itself happens outside the lock.
        self._lock = threading.Lock()

    # -- fault scripting ------------------------------------------------

    def fail_next(self, n=1):
        """Script the next ``n`` operations to fail."""
        with self._lock:
            self._fail_next += n
        return self

    def set_outage(self, down=True):
        self.outage = down
        return self

    def restore(self):
        """Clear the outage and any scripted failures (the member is
        healthy again; ``failure_rate`` stays as configured)."""
        with self._lock:
            self.outage = False
            self._fail_next = 0
        return self

    # -- fault injection ------------------------------------------------

    def _enter(self, op):
        with self._lock:
            self.calls += 1
        if self.latency and self.clock is not None:
            self.clock.sleep(self.latency)
            self._span_event("fault.latency", op=op, seconds=self.latency)
        if self.outage:
            self._injected(op, "member is down")
        with self._lock:
            if self._fail_next > 0:
                self._fail_next -= 1
                why = "scripted failure"
            elif self.failure_rate and self._rng.random() < self.failure_rate:
                why = "transient failure"
            else:
                why = None
        if why is not None:
            self._injected(op, why)

    def _injected(self, op, why):
        with self._lock:
            self.injected += 1
        self._span_event("fault.injected", op=op, why=why)
        raise MemberUnavailableError(f"injected fault during {op}: {why}")

    def _span_event(self, name, **attributes):
        if self.obs is None:
            return
        span = self.obs.tracer.current
        if span is not None:
            span.event(name, **attributes)

    # -- the connector surface ------------------------------------------

    def scan(self):
        self._enter("scan")
        return self.inner.scan()

    def apply(self, changes):
        changes = ChangeSet.coerce(changes)
        try:
            self._enter("apply")
        except MemberUnavailableError:
            if self.torn_writes:
                self.inner.apply(changes.prefix(len(changes) // 2))
            raise
        self.inner.apply(changes)

    def ping(self):
        self._enter("ping")
        return self.inner.ping()


def _as_connector(relations=None, storage=None, connector=None):
    """Normalize the three ways a member can be specified into one
    connector (explicit connector wins; then storage; then rows)."""
    if connector is not None:
        return connector
    if storage is not None:
        return StorageConnector(storage)
    return InMemoryConnector(relations or {})
