"""Differential property testing: two independent evaluation routes.

Random conjunctive queries over random universes are answered by

* the direct IDL evaluator (compiled plans over the nested object
  model), and
* the Datalog compilation route (catalog reified into db/rel/cell).

The implementations share no evaluation code beyond the AST, so
agreement is strong evidence both are right.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import EvalContext, answers
from repro.core.parser import parse_query
from repro.datalog.rewrite import answers_via_datalog, encode_universe
from repro.objects import Universe

# Universes: flat relations with scalar-only cells (the compilable
# fragment), names drawn from tiny pools to force collisions.
db_names = st.sampled_from(["d1", "d2"])
rel_names = st.sampled_from(["r", "s"])
attr_names = st.sampled_from(["a", "b", "c"])
cell_values = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["x", "y", "r", "a"]),  # values colliding with names
)


@st.composite
def universes(draw):
    data = {}
    for db in draw(st.lists(db_names, unique=True, min_size=1)):
        relations = {}
        for rel in draw(st.lists(rel_names, unique=True, min_size=1)):
            rows = draw(
                st.lists(
                    st.dictionaries(attr_names, cell_values, min_size=1),
                    max_size=6,
                )
            )
            relations[rel] = rows
        data[db] = relations
    return Universe.from_python(data)


# Queries: 1-2 path conjuncts with mixed constant/variable positions,
# plus optional constraints/negation over the introduced variables.
var_names = st.sampled_from(["X", "Y", "Z", "V", "W"])


@st.composite
def path_conjuncts(draw):
    db = draw(st.one_of(db_names, var_names))
    rel = draw(st.one_of(rel_names, var_names))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        attr = draw(st.one_of(attr_names, var_names))
        kind = draw(st.sampled_from(["bind", "const", "compare", "exists"]))
        if kind == "bind":
            items.append(f".{attr}={draw(var_names)}")
        elif kind == "const":
            items.append(f".{attr}={_literal(draw(cell_values))}")
        elif kind == "compare":
            items.append(f".{attr}>{draw(st.integers(0, 4))}")
        else:
            items.append(f".{attr}")
    body = f"({', '.join(items)})" if items else ""
    return f".{db}.{rel}{body}"


@st.composite
def existential_conjuncts(draw):
    """A path whose set expression binds no variable — a pure existence
    test (``.X.Y(.a)``, ``.d.r(.a>2)``, ``.d.X(.b=1)``)."""
    db = draw(st.one_of(db_names, var_names))
    rel = draw(st.one_of(rel_names, var_names))
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        attr = draw(attr_names)
        kind = draw(st.sampled_from(["exists", "const", "compare"]))
        if kind == "exists":
            items.append(f".{attr}")
        elif kind == "const":
            items.append(f".{attr}={_literal(draw(cell_values))}")
        else:
            items.append(f".{attr}>{draw(st.integers(0, 4))}")
    return f".{db}.{rel}({', '.join(items)})"


def _literal(value):
    return f"'{value}'" if isinstance(value, str) else str(value)


@st.composite
def queries(draw):
    conjuncts = draw(st.lists(st.one_of(path_conjuncts(), existential_conjuncts()),
                              min_size=1, max_size=2))
    source = "?" + ", ".join(conjuncts)
    # Optionally negate the last conjunct (whole-conjunct negation keeps
    # the query safe: negation variables stay existential).
    if len(conjuncts) == 2 and draw(st.booleans()):
        shared = set()
        first = parse_query("?" + conjuncts[0]).expr
        second = parse_query("?" + conjuncts[1]).expr
        shared = first.variables() & second.variables()
        if not shared:
            source = "?" + conjuncts[0] + ", ~" + conjuncts[1]
    return source


def _idl_answers(query, universe, context=None):
    return {
        tuple(sorted((name, obj.value_key()) for name, obj in a.as_dict().items()))
        for a in answers(query, universe, None, context)
    }


def _datalog_answers(query, universe):
    from repro.objects import Atom

    out = set()
    for row in answers_via_datalog(query, universe):
        out.add(
            tuple(sorted((name, Atom(value).value_key()) for name, value in row.items()))
        )
    return out


@given(universes(), queries())
@settings(max_examples=200, deadline=None)
def test_interpreter_agrees_with_compiled(universe, source):
    query = parse_query(source)
    assert _idl_answers(query, universe) == _datalog_answers(query, universe)


# Literal positions of a generated query: a constant after = or >, and
# a constant database, relation or attribute name after a dot.
_LITERAL = re.compile(r"(?<=[=>])(\d+|'[^']*')|(?<=\.)(d1|d2|r|s|a|b|c)\b")


@given(universes(), queries(), st.data())
@settings(max_examples=100, deadline=None)
def test_same_shape_with_other_literals_agrees(universe, source, data):
    """Queries differing only in their literals share one compiled plan;
    each still answers as the Datalog route does."""
    pools = {"value": cell_values, "compare": st.integers(0, 4),
             "db": db_names, "rel": rel_names, "attr": attr_names}

    def redraw(match):
        if match.group(1) is not None:
            if match.string[match.start() - 1] == ">":
                return str(data.draw(pools["compare"]))
            return _literal(data.draw(pools["value"]))
        name = match.group(2)
        pool = ("db" if name.startswith("d") else
                "rel" if name in ("r", "s") else "attr")
        return data.draw(pools[pool])

    context = EvalContext()
    for variant in [source] + [_LITERAL.sub(redraw, source) for _ in range(3)]:
        query = parse_query(variant)
        assert (_idl_answers(query, universe, context)
                == _datalog_answers(query, universe))
    assert context.plans.compiles == 1


@given(universes())
@settings(max_examples=60, deadline=None)
def test_encoding_size_invariant(universe):
    edb = encode_universe(universe)
    cells = edb.count("cell")
    expected = 0
    for db in universe.database_names():
        database = universe.database(db)
        for rel in database.attr_names():
            for element in database.get(rel).elements():
                expected += len(element.attr_names())
    assert cells == expected
