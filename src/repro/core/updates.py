"""Update expression evaluation (paper Section 5).

An update request ``? exp1, ..., expk`` mixes query and update
expressions. Query conjuncts enumerate substitutions; update conjuncts
apply, for each current substitution, the Section 5.2 semantics:

* **atomic plus** ``+=c`` replaces the atom's value with ``c``;
* **atomic minus** ``-=c`` nulls the atom if it satisfies ``=c``; with an
  unbound variable (``-=X``) it binds X to the old value first — the
  paper's delStk uses this;
* **tuple plus** ``+.a exp`` creates attribute ``a`` (overwriting any
  existing object with an empty one of the category ``exp`` needs) and
  recursively plus-evaluates ``exp`` on it;
* **tuple minus** ``-.a exp`` deletes attribute ``a`` when its object
  satisfies ``exp``;
* **set plus** ``+(exp)`` builds a new element from the simple ground
  expression ``exp`` and adds it (value-deduplicated);
* **set minus** ``-(exp)`` deletes every element satisfying ``exp``;
  following the paper's "series of delete expressions" reading, an inner
  expression with unbound variables yields one substitution per deleted
  match, so later conjuncts can use the old values.

Ordering rules (the paper makes update order significant):

* at the **request level**, conjuncts evaluate left-to-right; update
  conjuncts are barriers (only pure-query runs between them may be
  safety-reordered) — handled by ``safety.order_conjuncts``;
* **within a tuple expression that selects one object** (typically a set
  element), query items run first (selection), then update items in
  their original order — mirroring the paper's delStk clause
  ``.chwab.r(.S-=X, .date=D)``, where ``.date=D`` selects the tuple that
  ``.S-=X`` then mutates;
* when a *signed* item's attribute variable is unbound, it ranges over
  the attributes of the selected tuple **except** those named by sibling
  query items — the update-enumeration exclusion rule. Without it,
  delStk's ``.S-=X`` would also null the ``date`` attribute the sibling
  ``.date=D`` selected on; the paper's prose ("the closing price of all
  stocks for that date is deleted. But the structure of the database is
  not changed") makes the intended domain clear. Documented as a
  semantic clarification in DESIGN.md.

Mutations happen in place on the base universe; the engine wraps
requests in a snapshot-rollback transaction and reindexes sets whose
elements were mutated.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.evaluator import EvalContext, _as_substitution, satisfy
from repro.core.safety import order_conjuncts
from repro.core.terms import NOT_A_NAME, Const, Var, evaluate_term, term_name
from repro.errors import UpdateError
from repro.objects.atom import Atom
from repro.objects.set import SetObject
from repro.objects.tuple import TupleObject


class UpdateDelta:
    """Concrete per-path record of what one update request changed.

    ``touched`` names the ``(db, rel)`` prefixes an update *may* have
    affected; this records exactly *which elements* were inserted into
    and deleted from each mutated set, so the engine can repair a
    materialized view stratum in place instead of rebuilding it
    (:func:`repro.core.fixpoint.maintain_stratum`). Elements are copied
    at record time — a later in-place mutation of the live object cannot
    retroactively change the log.

    Mutations that are not expressible as set-level insert/delete pairs
    — creating or dropping an attribute, nulling an atom that is not
    inside a set element — are recorded as *symbolic* paths: the delta
    for them is unknown and any stratum reading those paths must fall
    back to a full rebuild.

    The log is chronological so a caller can roll a suffix back:
    the update evaluator rewrites the deep records produced while
    mutating a set element in place into one whole-element
    delete+insert pair at the owning set's path (see
    ``_update_set_expr``).
    """

    __slots__ = ("_log",)

    def __init__(self):
        self._log = []

    def record_insert(self, path, element):
        self._log.append(("+", tuple(path), element.copy()))

    def record_delete(self, path, element):
        self._log.append(("-", tuple(path), element.copy()))

    def mark_symbolic(self, path):
        self._log.append(("?", tuple(path), None))

    def mark(self):
        """A rollback token for the current end of the log."""
        return len(self._log)

    def rollback(self, mark):
        del self._log[mark:]

    @property
    def changed(self):
        return bool(self._log)

    def fold(self):
        """Net changes: ``(inserts, deletes, symbolic)``.

        ``inserts``/``deletes`` map a path to ``{value_key: element}``;
        an insert and a delete of the same value at the same path cancel
        (in either order — the base set ends where it started).
        ``symbolic`` is the set of paths whose delta is unknown.
        """
        inserts, deletes, symbolic = {}, {}, set()
        for op, path, element in self._log:
            if op == "?":
                symbolic.add(path)
                continue
            gained, lost = (inserts, deletes) if op == "+" else (deletes, inserts)
            key = element.value_key()
            opposite = lost.get(path)
            if opposite is not None and opposite.pop(key, None) is not None:
                continue
            gained.setdefault(path, {})[key] = element
        inserts = {path: elems for path, elems in inserts.items() if elems}
        deletes = {path: elems for path, elems in deletes.items() if elems}
        return inserts, deletes, symbolic

    def __repr__(self):
        plus = sum(1 for op, _, _ in self._log if op == "+")
        minus = sum(1 for op, _, _ in self._log if op == "-")
        unknown = sum(1 for op, _, _ in self._log if op == "?")
        return f"UpdateDelta(+{plus}, -{minus}, ?{unknown})"


class UpdateResult:
    """Outcome of an update request.

    ``touched`` is the set of ``(db, rel)`` path prefixes whose contents
    were mutated — the engine's selective re-materialization uses it to
    rebuild only the affected view strata. ``delta`` (optional) is the
    :class:`UpdateDelta` of concrete element-level changes when the
    engine asked for capture; it drives incremental view maintenance.
    """

    __slots__ = ("substitutions", "inserted", "deleted", "modified", "touched",
                 "delta")

    def __init__(self, substitutions, inserted, deleted, modified,
                 touched=frozenset(), delta=None):
        self.substitutions = substitutions
        self.inserted = inserted
        self.deleted = deleted
        self.modified = modified
        self.touched = frozenset(touched)
        self.delta = delta

    @property
    def succeeded(self):
        """The request found at least one satisfying substitution."""
        return bool(self.substitutions)

    @property
    def changed(self):
        return bool(self.inserted or self.deleted or self.modified)

    def __repr__(self):
        return (
            f"UpdateResult(answers={len(self.substitutions)}, "
            f"inserted={self.inserted}, deleted={self.deleted}, "
            f"modified={self.modified})"
        )


class _UpdateContext:
    """Mutable evaluation state shared across one update request.

    ``delta`` (optional :class:`UpdateDelta`) turns on element-level
    change capture; with ``delta=None`` every capture hook is a cheap
    no-op, so updates that feed no materialized view pay nothing.
    """

    __slots__ = ("eval_ctx", "inserted", "deleted", "modified", "touched",
                 "delta", "_preimages")

    def __init__(self, eval_ctx=None, delta=None):
        self.eval_ctx = eval_ctx or EvalContext()
        self.inserted = 0
        self.deleted = 0
        self.modified = 0
        self.touched = set()  # (db, rel) prefixes of mutated paths
        self.delta = delta
        # Stack of [element, copy-or-None] cells for set elements being
        # mutated in place; ``fire_preimages`` copies each element the
        # moment the first real mutation beneath it is about to happen.
        self._preimages = []

    def touch(self, path):
        self.touched.add(tuple(path[:2]))

    # -- delta capture hooks (all no-ops when ``delta`` is None) -------------

    def record_insert(self, path, element):
        if self.delta is not None:
            self.delta.record_insert(path, element)

    def record_delete(self, path, element):
        if self.delta is not None:
            self.delta.record_delete(path, element)

    def mark_symbolic(self, path):
        if self.delta is not None:
            self.delta.mark_symbolic(path)

    def push_preimage(self, element):
        """Register a set element about to be (possibly) mutated in
        place; returns a token for :meth:`pop_preimage`."""
        self._preimages.append([element, None])
        return len(self._preimages) - 1

    def pop_preimage(self, token):
        """The pre-mutation copy of the element (None when nothing
        beneath it actually mutated)."""
        cell = self._preimages[token]
        del self._preimages[token:]
        return cell[1]

    def fire_preimages(self):
        """Snapshot every pending element before a mutation lands."""
        for cell in self._preimages:
            if cell[1] is None:
                cell[1] = cell[0].copy()


# Public alias: the executor threads one context across a whole request.
UpdateContext = _UpdateContext


def apply_request(request, universe, bindings=None, eval_ctx=None):
    """Execute an update request against ``universe`` (in place).

    ``request`` is a Query statement or a TupleExpr. Returns an
    :class:`UpdateResult`; raises :class:`UpdateError` on category
    mismatches (Section 5.2's "in error" cases). No transactional
    guarantees here — use ``IdlEngine.update`` for rollback on error.
    """
    expr = request.expr if isinstance(request, ast.Query) else request
    if not isinstance(expr, ast.TupleExpr):
        expr = ast.TupleExpr([expr])
    subst = _as_substitution(bindings)
    uctx = _UpdateContext(eval_ctx)

    conjuncts = order_conjuncts(list(expr.conjuncts), subst.domain())
    substitutions = [subst]
    for conjunct in conjuncts:
        next_substitutions = []
        for current in substitutions:
            for extended in _update_satisfy(conjunct, universe, current, uctx):
                next_substitutions.append(extended)
        substitutions = next_substitutions
        if not substitutions:
            break
    return UpdateResult(substitutions, uctx.inserted, uctx.deleted,
                        uctx.modified, uctx.touched, delta=uctx.delta)


def apply_conjunct(conjunct, universe, substitutions, uctx=None):
    """Apply one request conjunct for each current substitution.

    Used by the update-program executor, which dispatches conjunct by
    conjunct (program calls in between). Returns ``(next_substitutions,
    update_context)``.
    """
    if uctx is None:
        uctx = _UpdateContext()
    next_substitutions = []
    for current in substitutions:
        for extended in _update_satisfy(conjunct, universe, current, uctx):
            next_substitutions.append(extended)
    return next_substitutions, uctx


# ---------------------------------------------------------------------------
# Mixed query/update satisfaction
# ---------------------------------------------------------------------------


def _update_satisfy(expr, obj, subst, uctx, excluded=frozenset(), path=()):
    """Like ``evaluator.satisfy`` but applies signed subexpressions.

    ``path`` tracks the attribute names navigated from the universe root
    so mutations can report which ``(db, rel)`` prefix they touched.
    """
    if not expr.has_update():
        yield from satisfy(expr, obj, subst, uctx.eval_ctx)
        return

    if isinstance(expr, ast.AtomicExpr):
        for extended in _apply_atomic_update(expr, obj, subst, uctx, path):
            yield extended
        return

    if isinstance(expr, ast.AttrStep):
        for extended in _update_attr_step(expr, obj, subst, uctx, excluded, path):
            yield extended
        return

    if isinstance(expr, ast.SetExpr):
        for extended in _update_set_expr(expr, obj, subst, uctx, path):
            yield extended
        return

    if isinstance(expr, ast.TupleExpr):
        for extended in _update_tuple_expr(expr, obj, subst, uctx, path):
            yield extended
        return

    raise UpdateError(f"cannot apply update through {type(expr).__name__}")


def _update_tuple_expr(expr, obj, subst, uctx, path=()):
    """Query items first (selection), then update items in order."""
    query_items = [c for c in expr.conjuncts if not c.has_update()]
    update_items = [c for c in expr.conjuncts if c.has_update()]
    ordered_queries = order_conjuncts(query_items, subst.domain()) if query_items else []

    # The exclusion rule: attribute names fixed by sibling query items.
    excluded = set()
    for item in query_items:
        if isinstance(item, ast.AttrStep) and isinstance(item.attr, Const):
            excluded.add(item.attr.value)

    def run_updates(index, current):
        if index == len(update_items):
            yield current
            return
        for extended in _update_satisfy(
            update_items[index], obj, current, uctx, frozenset(excluded), path
        ):
            for final in run_updates(index + 1, extended):
                yield final

    def run_queries(index, current):
        if index == len(ordered_queries):
            for final in run_updates(0, current):
                yield final
            return
        for extended in satisfy(ordered_queries[index], obj, current, uctx.eval_ctx):
            for final in run_queries(index + 1, extended):
                yield final

    for result in run_queries(0, subst):
        yield result


def _update_attr_step(expr, obj, subst, uctx, excluded, path=()):
    if not obj.is_tuple:
        raise UpdateError(
            f"tuple update applied to a {obj.category} object: {expr!r}"
        )
    if not isinstance(obj, TupleObject):
        raise UpdateError("updates are only legal on extensional (base) objects")

    if expr.sign == ast.PLUS:
        name = term_name(expr.attr, subst)
        if name is None or name is NOT_A_NAME:
            raise UpdateError(f"tuple plus needs a known attribute name: {expr!r}")
        uctx.fire_preimages()
        obj.set(name, _empty_for(expr.expr))
        uctx.modified += 1
        uctx.touch(path + (name,))
        uctx.mark_symbolic(path + (name,))
        for extended in _apply_plus(expr.expr, obj, name, subst, uctx,
                                    path + (name,)):
            yield extended
        return

    if expr.sign == ast.MINUS:
        for extended in _tuple_minus(expr, obj, subst, uctx, excluded, path):
            yield extended
        return

    # Unsigned navigation step whose subexpression carries updates. A
    # missing attribute makes the conjunct fail, query-style — so e.g.
    # delStk's chwab clause simply fails when the stock has no column.
    name = term_name(expr.attr, subst)
    if name is NOT_A_NAME:
        return
    if name is not None:
        if not obj.has(name):
            return
        for extended in _update_satisfy(
            expr.expr, obj.get(name), subst, uctx, frozenset(), path + (name,)
        ):
            yield extended
        return
    var = expr.attr.name
    for attr_name in obj.attr_names():
        if attr_name in excluded:
            continue
        bound = subst.bind(var, Atom(attr_name))
        for extended in _update_satisfy(
            expr.expr, obj.get(attr_name), bound, uctx, frozenset(),
            path + (attr_name,)
        ):
            yield extended


def _tuple_minus(expr, obj, subst, uctx, excluded, path=()):
    """``-.a exp``: delete attribute(s) whose object satisfies exp."""
    name = term_name(expr.attr, subst)
    if name is NOT_A_NAME:
        return
    ground = not _has_unbound_vars(expr, subst)
    matches = []
    if name is not None:
        if obj.has(name):
            for extended in satisfy(expr.expr, obj.get(name), subst, uctx.eval_ctx):
                matches.append((name, extended))
    else:
        var = expr.attr.name
        for attr_name in obj.attr_names():
            if attr_name in excluded:
                continue
            bound = subst.bind(var, Atom(attr_name))
            for extended in satisfy(expr.expr, obj.get(attr_name), bound, uctx.eval_ctx):
                matches.append((attr_name, extended))

    removed = set()
    for attr_name, _ in matches:
        if attr_name not in removed and obj.has(attr_name):
            uctx.fire_preimages()
            obj.remove(attr_name)
            removed.add(attr_name)
            uctx.deleted += 1
            uctx.touch(path + (attr_name,))
            uctx.mark_symbolic(path + (attr_name,))

    if ground:
        yield subst
    else:
        seen = set()
        for _, extended in matches:
            key = extended.signature()
            if key not in seen:
                seen.add(key)
                yield extended


def _update_set_expr(expr, obj, subst, uctx, path=()):
    if not obj.is_set:
        raise UpdateError(f"set update applied to a {obj.category} object: {expr!r}")
    if not isinstance(obj, SetObject):
        raise UpdateError("updates are only legal on extensional (base) objects")

    if expr.sign == ast.PLUS:
        if not isinstance(expr.inner, ast.Epsilon):
            element = build_object(expr.inner, subst)
            uctx.fire_preimages()
            if obj.add(element):
                uctx.inserted += 1
                uctx.touch(path)
                uctx.record_insert(path, element)
        yield subst
        return

    if expr.sign == ast.MINUS:
        ground = not _has_unbound_vars(expr, subst)
        matches = []
        for element in obj.elements():
            for extended in satisfy(expr.inner, element, subst, uctx.eval_ctx):
                matches.append((element, extended))
        removed = set()
        for element, _ in matches:
            key = element.value_key()
            if key not in removed:
                removed.add(key)
                uctx.fire_preimages()
                obj.discard_value(element)
                uctx.deleted += 1
                uctx.touch(path)
                uctx.record_delete(path, element)
        if ground:
            yield subst
        else:
            seen = set()
            for _, extended in matches:
                key = extended.signature()
                if key not in seen:
                    seen.add(key)
                    yield extended
        return

    # Unsigned set expression with inner updates: select elements, mutate
    # them in place, then re-index the set (elements are value-keyed).
    results = []
    delta = uctx.delta
    for element in obj.elements():
        before = (uctx.inserted, uctx.deleted, uctx.modified)
        if delta is not None:
            mark = delta.mark()
            token = uctx.push_preimage(element)
        for extended in _update_satisfy(expr.inner, element, subst, uctx,
                                        frozenset(), path):
            results.append(extended)
        preimage = uctx.pop_preimage(token) if delta is not None else None
        if (uctx.inserted, uctx.deleted, uctx.modified) != before:
            obj.refresh(element)
            uctx.touch(path)
            if delta is not None:
                # The records made while mutating the element describe
                # positions inside it; rewrite them as one whole-element
                # delete+insert at the owning set's path.
                delta.rollback(mark)
                if preimage is None:
                    delta.mark_symbolic(path)
                else:
                    delta.record_delete(path, preimage)
                    delta.record_insert(path, element)
    for extended in results:
        yield extended


def _apply_atomic_update(expr, obj, subst, uctx, path=()):
    if not obj.is_atom:
        raise UpdateError(f"atomic update applied to a {obj.category} object: {expr!r}")
    if not isinstance(obj, Atom):
        raise UpdateError("updates are only legal on extensional (base) objects")

    if expr.sign == ast.PLUS:
        value_obj = evaluate_term(expr.term, subst)
        if not value_obj.is_atom:
            raise UpdateError("atomic plus requires an atomic value")
        uctx.fire_preimages()
        obj.value = value_obj.value
        uctx.modified += 1
        uctx.touch(path)
        uctx.mark_symbolic(path)
        yield subst
        return

    # Atomic minus.
    term = expr.term
    if isinstance(term, Var) and not subst.binds(term.name):
        if obj.is_null:
            return  # nothing to bind: the null atom satisfies no expression
        bound = subst.bind(term.name, Atom(obj.value))
        uctx.fire_preimages()
        obj.value = None
        uctx.modified += 1
        uctx.touch(path)
        uctx.mark_symbolic(path)
        yield bound
        return
    value_obj = evaluate_term(term, subst)
    if obj.is_atom and value_obj.is_atom and not obj.is_null:
        if obj.compare("=", value_obj.value):
            uctx.fire_preimages()
            obj.value = None
            uctx.modified += 1
            uctx.touch(path)
            uctx.mark_symbolic(path)
    yield subst


# ---------------------------------------------------------------------------
# Object construction (plus-evaluation, Section 5.2)
# ---------------------------------------------------------------------------


def build_object(expr, subst):
    """Construct a fresh object from a simple expression, ground under
    ``subst`` (the constructor reading of plus expressions)."""
    if isinstance(expr, ast.Epsilon):
        return Atom(None)
    if isinstance(expr, ast.AtomicExpr):
        if expr.op != "=":
            raise UpdateError("constructors use '=' only (simple expressions)")
        value_obj = evaluate_term(expr.term, subst)
        return value_obj.copy() if not isinstance(value_obj, Atom) else value_obj
    if isinstance(expr, ast.AttrStep):
        return build_object(ast.TupleExpr([expr]), subst)
    if isinstance(expr, ast.TupleExpr):
        built = TupleObject()
        for item in expr.conjuncts:
            if not isinstance(item, ast.AttrStep) or item.sign is not None:
                raise UpdateError(f"not a simple constructor item: {item!r}")
            name = term_name(item.attr, subst)
            if name is None or name is NOT_A_NAME:
                raise UpdateError(f"constructor attribute name is unbound: {item!r}")
            if built.has(name):
                raise UpdateError(f"duplicate attribute {name!r} in constructor")
            built.set(name, build_object(item.expr, subst))
        return built
    if isinstance(expr, ast.SetExpr):
        fresh = SetObject()
        if not isinstance(expr.inner, ast.Epsilon):
            fresh.add(build_object(expr.inner, subst))
        return fresh
    raise UpdateError(f"cannot construct an object from {type(expr).__name__}")


def _apply_plus(expr, parent, name, subst, uctx, path=()):
    """Plus-evaluate ``expr`` onto the freshly-emptied attribute ``name``."""
    target = parent.get(name)
    if isinstance(expr, ast.Epsilon):
        yield subst
        return
    if isinstance(expr, ast.AtomicExpr):
        plused = ast.AtomicExpr("=", expr.term, sign=ast.PLUS)
        for extended in _apply_atomic_update(plused, target, subst, uctx, path):
            yield extended
        return
    if isinstance(expr, ast.SetExpr):
        plused = ast.SetExpr(expr.inner, sign=ast.PLUS)
        for extended in _update_set_expr(plused, target, subst, uctx, path):
            yield extended
        return
    if isinstance(expr, (ast.AttrStep, ast.TupleExpr)):
        items = ast.conjuncts_of(expr) if isinstance(expr, ast.TupleExpr) else [expr]

        def run(index, current):
            if index == len(items):
                yield current
                return
            item = items[index]
            if not isinstance(item, ast.AttrStep):
                raise UpdateError(f"not a simple constructor item: {item!r}")
            plused = ast.AttrStep(item.attr, item.expr, sign=ast.PLUS)
            for extended in _update_attr_step(
                plused, target, current, uctx, frozenset(), path
            ):
                for final in run(index + 1, extended):
                    yield final

        for extended in run(0, subst):
            yield extended
        return
    raise UpdateError(f"cannot plus-evaluate {type(expr).__name__}")


def _empty_for(expr):
    """The empty object whose category matches what ``expr`` expects."""
    if isinstance(expr, ast.SetExpr):
        return SetObject()
    if isinstance(expr, (ast.TupleExpr, ast.AttrStep)):
        return TupleObject()
    return Atom(None)


def _has_unbound_vars(expr, subst):
    return any(not subst.binds(name) for name in expr.variables())
