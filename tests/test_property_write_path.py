"""Oracle tests for the O(change) write path.

An update pays only for what it changes: elements mutated in place are
re-keyed on the spot (no universe-wide reindex), a failed request is
undone from an undo log (no whole-universe snapshot), and a federation
flush ships per-member row changes (no full-state staging). Each
property below is the oracle the removed mechanism used to provide:

* after any sequence of updates — including key-violating requests that
  are rolled back — every set's keys match its elements' values, so a
  full ``reindex()`` finds nothing to change;
* a rolled-back request leaves the universe as it was in value, in
  iteration order and in object identity;
* after random writes — including failed, torn member applies repaired
  by a push-resync or by journal recovery — every member connector
  holds exactly ``universe_rows`` of its database: the full state the
  flush used to stage.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdlEngine
from repro.errors import IdlError, MemberUnavailableError
from repro.multidb import (
    FakeClock,
    FaultyConnector,
    Federation,
    InMemoryConnector,
    ResiliencePolicy,
    universe_rows,
)
from repro.objects import Universe
from repro.workloads.stocks import StockWorkload

# -- engine data ----------------------------------------------------------------

values = st.sampled_from([0, 1, 1.0, True, None, "a", 2, 5])
consts = st.sampled_from([0, 1, 2, 5, "a"])

keyed_rows = st.lists(
    st.tuples(consts, values, st.booleans()), max_size=8,
    unique_by=lambda row: repr(row[0]),
).map(lambda rows: [
    {"k": k, "v": v} if with_v else {"k": k} for k, v, with_v in rows
])
loose_rows = st.lists(
    st.one_of(values, st.dictionaries(st.sampled_from(["k", "v"]), values,
                                      max_size=2)),
    max_size=6,
)

UPDATES = (
    "?.d1.r+(.k={c}, .v={d})",  # a duplicate key is rolled back
    "?.d1.r-(.k={c})",
    "?.d1.r(.k={c}, .v+={d})",  # in place
    "?.d1.r(.k={c}, .v-=V)",
    "?.d1.r(.k={c}, +.w={d})",
    "?.d1.r(.k={c}, -.v)",
    "?.d1.r(.v+={d})",  # bulk in place; may collapse elements
    "?.d1.r(.k={c}, .v+={d}), .d1.r+(.k={e}, .v=0)",  # mutate, then fail?
    "?.d1.r(.k+={d})",  # every key equal: violates unless r has one row
    "?.d2.r(.k=K), .d1.s+(.k=K)",  # elements built from bound atoms
    "?.d2.r(.k={c}, .k+={d})",
    "?.d1.s-(.k={c})",
    "?.d1-.s",
    "?.d1+.s(.k={c})",
)

scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(UPDATES) - 1),
              consts, consts, consts),
    min_size=1, max_size=10,
)


def all_sets(obj):
    if obj.is_set:
        yield obj
        for element in obj:
            yield from all_sets(element)
    elif obj.is_tuple:
        for name in obj.attr_names():
            yield from all_sets(obj.get(name))


def structure(obj, keep):
    """Identity, order and value of ``obj`` and everything under it
    (``keep`` holds the objects, so no id is reused meanwhile)."""
    keep.append(obj)
    if obj.is_set:
        return (id(obj), "set", tuple(
            (key, structure(element, keep))
            for key, element in obj._elements.items()))
    if obj.is_tuple:
        return (id(obj), "tuple", tuple(
            (name, structure(obj.get(name), keep))
            for name in obj.attr_names()))
    return (id(obj), "atom", type(obj.value).__name__, obj.value)


def assert_keys_consistent(universe):
    for relation in all_sets(universe):
        version = relation.version
        relation.reindex()
        assert relation.version == version, relation


def probe(engine):
    return sorted(repr(sorted(answer.items()))
                  for answer in engine.query("?.D.R(.k=K)"))


@given(keyed_rows, loose_rows, loose_rows, scripts)
@settings(max_examples=80, deadline=None)
def test_keys_stay_consistent_and_rollback_is_exact(r1, s1, r2, script):
    engine = IdlEngine(universe=Universe.from_python(
        {"d1": {"r": r1, "s": s1}, "d2": {"r": r2}}))
    engine.declare_key("d1", "r", ["k"])
    engine.query("?.d1.r(.k=1, .v=V)")  # build an index to go stale
    for pick, c, d, e in script:
        statement = UPDATES[pick].format(c=c, d=d, e=e)
        keep = []
        before = structure(engine.universe, keep)
        try:
            engine.update(statement)
        except IdlError:
            assert structure(engine.universe, keep) == before, statement
        assert_keys_consistent(engine.universe)
        fresh = IdlEngine(universe=Universe.from_python(
            engine.universe.to_python()))
        assert probe(engine) == probe(fresh), statement


@given(keyed_rows.filter(bool), st.lists(consts, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rollback_after_in_place_mutations_is_exact(r1, ks):
    # Every request mutates every element in place, then violates the
    # key with two values for one new key.
    engine = IdlEngine(universe=Universe.from_python({"d1": {"r": r1}}))
    engine.declare_key("d1", "r", ["k"])
    for k in ks:
        keep = []
        before = structure(engine.universe, keep)
        try:
            engine.update(f"?.d1.r(+.w={k}), .d1.r+(.k={k}, .v=9), "
                          f".d1.r+(.k={k}, .v=8)")
        except IdlError:
            assert structure(engine.universe, keep) == before
        else:
            raise AssertionError("two values for one key were accepted")
        assert_keys_consistent(engine.universe)


# -- the federation differential --------------------------------------------

STYLES = ("euter", "chwab", "ource")

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "remove", "view_euter",
                         "view_chwab"]),
        st.integers(min_value=0, max_value=2),  # stock (2 = "nova")
        st.integers(min_value=0, max_value=2),  # day (2 = "9/9/99")
        st.sampled_from([1.0, 2.5]),
        st.one_of(st.none(), st.sampled_from(STYLES)),  # failing member
        st.booleans(),  # repair by recover() instead of resync
    ),
    min_size=1, max_size=8,
)


def canon(relations):
    return {rel: sorted(json.dumps(row, sort_keys=True) for row in rows)
            for rel, rows in relations.items()}


@given(st.integers(min_value=0, max_value=3), operations)
@settings(max_examples=40, deadline=None)
def test_members_hold_exactly_the_universe_rows(seed, ops):
    workload = StockWorkload(n_stocks=2, n_days=2, seed=seed)
    stocks = list(workload.symbols) + ["nova"]
    days = list(workload.days) + ["9/9/99"]
    federation = Federation()
    faulty = {}
    for stream, style in enumerate(STYLES):
        faulty[style] = FaultyConnector(
            InMemoryConnector(workload.relations_for(style)),
            torn_writes=True, stream=stream)
        federation.add_member(
            style, style, connector=faulty[style],
            policy=ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                    jitter=0.0),
            clock=FakeClock(),
        )
    federation.add_user_view("u_euter", "euter")
    federation.add_user_view("u_chwab", "chwab")
    federation.install()
    federation.engine.declare_key("euter", "r", ["date", "stkCode"])
    for kind, stock, day, price, failing, by_recovery in ops:
        stk, date = stocks[stock], days[day]
        if failing is not None:
            faulty[failing].fail_next(1)
        try:
            if kind == "insert":
                federation.insert_quote(stk, date, price)
            elif kind == "delete":
                federation.delete_quote(stk, date)
            elif kind == "remove":
                federation.remove_stock(stk)
            elif kind == "view_euter":
                federation.update(f"?.u_euter.r+(.date='{date}', "
                                  f".stkCode={stk}, .clsPrice={price})")
            else:
                federation.update(f"?.u_chwab.setPrice(.stk={stk}, "
                                  f".date='{date}', .price={price})")
        except MemberUnavailableError:
            if by_recovery:
                federation.recover()
            for style in STYLES:
                if federation.availability().status_of(style) != "ok":
                    federation.resync(style)
        except IdlError:
            pass  # e.g. a second price for a quote: rolled back
        for style in STYLES:
            faulty[style].restore()
        assert federation.journal.pending() == []
        universe = federation.engine.universe
        for style in STYLES:
            assert canon(faulty[style].inner.scan()) == canon(
                universe_rows(universe, style)), (kind, stk, date, style)
