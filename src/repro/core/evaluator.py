"""Query expression evaluation (paper Sections 4.2 and 4.3).

The central routine, :func:`satisfy`, lazily enumerates the grounding
substitutions under which an object satisfies an expression:

* an atomic expression compares an atomic object against a term
  (binding its variable on ``=``; the null atom fails everything);
* a tuple item ``.A exp`` descends into attribute ``A`` — when ``A`` is
  an unbound *higher-order variable* it ranges over the attribute names
  of the tuple (Section 4.3), binding the variable to the *name*, which
  is how metadata joins with data;
* a set expression succeeds on any element of the set;
* a conjunction threads one substitution through its conjuncts, after
  safety reordering (see :mod:`repro.core.safety`);
* a negation succeeds iff no satisfying extension exists, and binds
  nothing.

The answer to a query is the set of grounding substitutions satisfying
it (deduplicated by binding signature); a variable-free query evaluates
to a boolean.

Compiled plans
--------------

Expressions are not interpreted node by node. Each one is compiled, once
per *shape* and bound-variable domain, into a :class:`Plan`: a tree of
closures over a per-call slot list ``env``. The shape is the expression
with every constant in value position (``=d1``, ``>60``) and every
string constant in attribute position (``.date``) lifted into a
parameter vector, so ``?.r(.date=d1)`` and ``?.r(.date=d2)`` share one
plan. ``env`` holds the evaluation context, the caller's substitution,
the parameters and one slot per variable. Because the domain is fixed at
compile time, every node knows statically which variables are bound
when it runs: it reads those slots and overwrites the others, so no
binding is ever undone and no substitution is walked.

Compilation does the work the interpreter used to repeat per call: the
safety ordering of every conjunction, the index-probe choice of every
set expression, slot indices, and the *existential cut* — a set
expression whose inner part binds no new variable is a pure existence
test, so it stops at its first satisfying element (``?.X.Y(.stkCode)``
tests one element per relation). Nodes that yield at most one solution
compile to tests returning a bool; the others to lazy generators.

Plans live in one bounded LRU :class:`PlanCache` per
:class:`EvalContext` (the engine shares its context's cache with the
per-statement profiled contexts). A context that profiles or traces runs
an instrumented plan from the same compiler: every node visit counts
``visits`` and its node kind and fires the trace hook. Errors are raised
when the offending node is reached, never at compile time — an unbound
variable where a value is needed or an unorderable conjunction
(:class:`SafetyError`), a non-string attribute constant
(:class:`EvaluationError`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter

from repro.core import ast
from repro.core.safety import order_conjuncts, produced_vars
from repro.core.substitution import EMPTY, Substitution
from repro.core.terms import Const, Var, _numeric, arithmetic
from repro.errors import EvaluationError, SafetyError
from repro.objects.atom import Atom, compare_values
from repro.objects.base import ATOM, SET, TUPLE, same_value
from repro.objects.set import SetObject

#: Bound on every :class:`PlanCache`. Long-lived engines and federations
#: evaluate an unbounded stream of expressions — delta-rewritten rule
#: variants are freshly allocated every materialization — so the cache
#: evicts its least-recently-used entry past this size.
PLAN_CACHE_LIMIT = 1024


class EvalContext:
    """Evaluation options and the plan cache.

    ``reorder``     — apply safety goal reordering (default True; the B3
                      ablation turns it off for already-ordered programs).
    ``use_indexes`` — probe per-set hash indexes when a set expression
                      carries a ground ``=`` selection on a known
                      attribute (default True; the B13 ablation turns it
                      off to measure the scan baseline).
    ``trace``       — optional callable receiving (expr, obj, subst) on
                      every satisfaction attempt; used by the debug tools.
    ``profile``     — collect node-visit counters into ``self.counters``
                      (off by default: it costs in the hot path). The
                      engine's observed query path turns it on and folds
                      the counters into the ``engine.evaluate`` span, so
                      they reach callers on the result objects.
    ``tracer``      — optional :class:`repro.obs.trace.Tracer`; the
                      fixpoint hangs its per-stratum spans off it. None
                      (the default) keeps the hot path branch-free.
    ``metrics``     — optional :class:`repro.obs.metrics.MetricsRegistry`
                      receiving coarse counters (plan compiles and
                      evictions, index builds/hits/misses/fallbacks,
                      fixpoint totals). Guarded by ``is not None``
                      everywhere it is touched.

    ``plans`` is the context's :class:`PlanCache`; contexts that should
    share compiled plans share this attribute.
    """

    __slots__ = ("reorder", "use_indexes", "trace", "counters", "tracer",
                 "metrics", "plans")

    def __init__(self, reorder=True, trace=None, profile=False, tracer=None,
                 metrics=None, use_indexes=True):
        self.reorder = reorder
        self.use_indexes = use_indexes
        self.trace = trace
        self.counters = {} if profile else None
        self.tracer = tracer
        self.metrics = metrics
        self.plans = PlanCache()

    def count(self, kind):
        if self.counters is not None:
            self.counters[kind] = self.counters.get(kind, 0) + 1


class Plan:
    """A compiled expression for one shape, domain and option set.

    ``run(env, obj)`` returns a bool when ``det`` (at most one solution)
    and otherwise an iterable that advances once per solution, leaving
    the solution's bindings in ``env``. ``seeds`` are the ``(name,
    slot)`` pairs filled from the caller's substitution, ``fresh`` the
    pairs the plan binds, ``names``/``slots`` the sorted variables bound
    after success (the answer columns). ``template`` is the env layout:
    context, substitution, the parameters (filled per call), variables.
    ``shape`` is the shape key it was cached under (None if uncached).
    """

    __slots__ = ("run", "det", "seeds", "fresh", "names", "slots",
                 "template", "shape")

    def __init__(self, run, det, seeds, fresh, names, slots, template):
        self.shape = None
        self.run = run
        self.det = det
        self.seeds = seeds
        self.fresh = fresh
        self.names = names
        self.slots = slots
        self.template = template

    def environment(self, context, subst, params):
        env = self.template[:]
        env[0] = context
        env[1] = subst
        env[2:2 + len(params)] = params
        for name, slot in self.seeds:
            env[slot] = subst.lookup(name)
        return env


class PlanCache:
    """Bounded LRU of compiled plans, safe to share between threads.

    Two kinds of entry share the one bound: ``(shape, domain, options)``
    keys map to a :class:`Plan`; ``id(expr)`` keys memoize the lifted
    shape of an expression object that :func:`satisfy` evaluates again
    (rule bodies, update sub-expressions) and *pin* that expression, so
    its id cannot be reused by another while the entry lives.
    ``compiles`` and ``evictions`` count misses and LRU evictions (also
    reported as ``evaluator.plan_cache.*`` metrics).
    """

    __slots__ = ("compiles", "evictions", "_entries", "_lock")

    def __init__(self):
        self.compiles = 0
        self.evictions = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def pins(self, expr):
        """Is ``expr`` memoized (and therefore pinned) by this cache?"""
        entry = self._entries.get(id(expr))
        return entry is not None and entry[0] is expr

    def prepare(self, expr, subst, context, memo):
        """``(plan, env)`` evaluating ``expr`` under ``subst``.

        ``memo`` keeps the lifted shape by expression identity — worth
        it only for expression objects evaluated more than once.
        """
        entries = self._entries
        with self._lock:
            memoized = entries.get(id(expr)) if memo else None
            if memoized is not None and memoized[0] is expr:
                entries.move_to_end(id(expr))
                _, shape, params, variables = memoized
            else:
                memoized = None
                shape, params, variables = _lifted(expr)
            domain = _domain(variables, subst)
            instrumented = context.counters is not None
            key = (shape, domain, context.reorder, context.use_indexes,
                   instrumented)
            plan = entries.get(key)
            if plan is None:
                plan = compile_plan(expr, variables, len(params), domain,
                                    context.reorder, context.use_indexes,
                                    instrumented)
                plan.shape = shape
                self.compiles += 1
                if context.metrics is not None:
                    context.metrics.counter("evaluator.plan_cache.compiles").inc()
                self._put(key, plan, context)
            else:
                entries.move_to_end(key)
            if memo and memoized is None:
                # The plan's own shape tuple: equal shapes share one copy.
                self._put(id(expr), (expr, plan.shape, params, variables),
                          context)
        return plan, plan.environment(context, subst, params)

    def _put(self, key, value, context):
        entries = self._entries
        entries[key] = value
        if len(entries) > PLAN_CACHE_LIMIT:
            entries.popitem(last=False)
            self.evictions += 1
            if context.metrics is not None:
                context.metrics.counter("evaluator.plan_cache.evictions").inc()


_DEFAULT_CONTEXT = EvalContext()


def _prepare(expr, subst, context, memo):
    if context.trace is not None:
        # The trace hook receives the caller's own AST nodes, so a traced
        # evaluation compiles its plan afresh instead of sharing a shape.
        _, params, variables = _lifted(expr)
        plan = compile_plan(expr, variables, len(params),
                            _domain(variables, subst), context.reorder,
                            context.use_indexes,
                            context.counters is not None, traced=True)
        return plan, plan.environment(context, subst, params)
    return context.plans.prepare(expr, subst, context, memo)


def _domain(variables, subst):
    """The variables of an expression that ``subst`` binds."""
    if subst is EMPTY:
        return frozenset()
    return frozenset(name for name in variables if subst.lookup(name) is not None)


def satisfy(expr, obj, subst=None, context=None):
    """Yield every extension of ``subst`` under which ``obj`` satisfies
    ``expr``. Substitutions are persistent; callers may consume lazily."""
    if subst is None:
        subst = EMPTY
    if context is None:
        context = _DEFAULT_CONTEXT
    plan, env = _prepare(expr, subst, context, memo=True)
    return _solutions(plan, env, obj, subst)


def _solutions(plan, env, obj, subst):
    fresh = plan.fresh
    if plan.det:
        if plan.run(env, obj):
            for name, slot in fresh:
                subst = Substitution(name, env[slot], subst)
            yield subst
        return
    for _ in plan.run(env, obj):
        extended = subst
        for name, slot in fresh:
            extended = Substitution(name, env[slot], extended)
        yield extended


# ---------------------------------------------------------------------------
# Shapes: lifting constants into a parameter vector
# ---------------------------------------------------------------------------

_EPSILON, _ATOMIC, _STEP, _SET, _TUPLE, _CONSTRAINT, _NEG = range(7)


def _update_error():
    return EvaluationError(
        "update expression evaluated in a query context; use the "
        "update evaluator (repro.core.updates)"
    )


def _lifted(expr):
    """``(shape, params, variables)`` of an expression."""
    params = []
    shape = _lift(expr, params)
    return shape, params, tuple(sorted(expr.variables()))


def _lift(expr, params):
    """The shape key of ``expr``; appends its lifted constants to
    ``params`` in pre-order (the compiler assigns parameter slots in the
    same order). Raises for signed (update) subexpressions."""
    kind = type(expr)
    if kind is ast.AttrStep:
        if expr.sign is not None:
            raise _update_error()
        attr = expr.attr
        if type(attr) is Var:
            attr_key = attr.name
        elif isinstance(attr.value, str):
            params.append(attr.value)
            attr_key = None
        else:
            attr_key = _const_key(attr)  # raises when reached
        return (_STEP, attr_key, _lift(expr.expr, params))
    if kind is ast.TupleExpr:
        return (_TUPLE,) + tuple(_lift(c, params) for c in expr.conjuncts)
    if kind is ast.SetExpr:
        if expr.sign is not None:
            raise _update_error()
        return (_SET, _lift(expr.inner, params))
    if kind is ast.AtomicExpr:
        if expr.sign is not None:
            raise _update_error()
        return (_ATOMIC, expr.op, _lift_term(expr.term, params))
    if kind is ast.Constraint:
        return (_CONSTRAINT, expr.op, _lift_term(expr.left, params),
                _lift_term(expr.right, params))
    if kind is ast.NegExpr:
        return (_NEG, _lift(expr.inner, params))
    if kind is ast.Epsilon:
        return (_EPSILON,)
    raise EvaluationError(f"cannot evaluate {kind.__name__}")


def _lift_term(term, params):
    """Lift a top-level constant; arithmetic stays in the shape whole, so
    its error messages name the caller's own constants."""
    if type(term) is Const:
        params.append(Atom(term.value))
        return None
    return _term_key(term)


def _term_key(term):
    if type(term) is Var:
        return term.name
    if type(term) is Const:
        return _const_key(term)
    return (term.op, _term_key(term.left), _term_key(term.right))


def _const_key(const):
    # The type name keeps 1, 1.0 and True apart.
    return ("const", type(const.value).__name__, const.value)


def _param_count(node, term=False):
    params = []
    if term:
        _lift_term(node, params)
    else:
        _lift(node, params)
    return len(params)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def compile_plan(expr, variables, n_params, domain, reorder=True,
                 use_indexes=True, instrumented=False, traced=False):
    """Compile ``expr`` for the variables in ``domain`` being bound on
    entry (see :class:`Plan`). An ``instrumented`` plan counts node
    visits into the context's counters; a ``traced`` one also calls its
    trace hook with ``expr``'s own nodes."""
    base = 2 + n_params
    slots = {name: base + index for index, name in enumerate(variables)}
    compiler = _Compiler(slots, domain, reorder, use_indexes, instrumented,
                         traced)
    run, det, bound = compiler.node(expr, 2, domain)
    names = tuple(sorted(bound))
    return Plan(
        run, det,
        seeds=tuple((name, slots[name]) for name in sorted(domain)),
        fresh=tuple((name, slots[name]) for name in names if name not in domain),
        names=names,
        slots=tuple(slots[name] for name in names),
        template=[None] * (base + len(variables)),
    )


def _true(env, obj):
    return True


def _false(env, obj):
    return False


def _raiser(error_type, message):
    def run(env, obj):
        raise error_type(message)
    return run


class _Compiler:
    """One compilation: slot layout, options and the entry domain.

    ``node(expr, offset, bound)`` compiles ``expr`` whose first lifted
    parameter sits at env slot ``offset``, for the variables ``bound``
    on entry, and returns ``(run, det, bound_after)``. ``bound_after``
    is exact: every variable in it is bound whenever the node succeeds
    (see :func:`repro.core.safety.produced_vars`).
    """

    def __init__(self, slots, domain, reorder, use_indexes, instrumented,
                 traced):
        self.slots = slots
        self.domain = domain
        self.reorder = reorder
        self.use_indexes = use_indexes
        self.instrumented = instrumented
        self.traced = traced

    def node(self, expr, offset, bound):
        kind = type(expr)
        if kind is ast.TupleExpr:
            run, det, after = self.conjunction(expr, offset, bound)
        elif kind is ast.AttrStep:
            run, det, after = self.step(expr, offset, bound)
        elif kind is ast.SetExpr:
            run, det, after = self.set_expr(expr, offset, bound)
        elif kind is ast.AtomicExpr:
            run, det, after = self.atomic(expr, offset, bound)
        elif kind is ast.Constraint:
            run, det, after = self.constraint(expr, offset, bound)
        elif kind is ast.NegExpr:
            run, det, after = self.negation(expr, offset, bound)
        else:
            run, det, after = _true, True, bound
        if self.traced:
            run = self.trace(run, expr, bound)
        if self.instrumented:
            run = self.count(run, type(expr).__name__)
        return run, det, after

    @staticmethod
    def count(run, kind):
        def visit(env, obj):
            counters = env[0].counters
            counters["visits"] = counters.get("visits", 0) + 1
            counters[kind] = counters.get(kind, 0) + 1
            return run(env, obj)
        return visit

    def trace(self, run, expr, bound):
        entry = tuple(
            (name, self.slots[name]) for name in sorted(bound - self.domain)
        )

        def visit(env, obj):
            subst = env[1]
            for name, slot in entry:
                subst = Substitution(name, env[slot], subst)
            env[0].trace(expr, obj, subst)
            return run(env, obj)
        return visit

    # -- terms ----------------------------------------------------------------

    def term(self, term, offset, bound):
        """``env -> IdlObject`` for a term whose lifted constant (if it
        is one) sits at ``offset``."""
        kind = type(term)
        if kind is Const:
            return itemgetter(offset)
        if kind is Var:
            if term.name in bound:
                return itemgetter(self.slots[term.name])
            message = f"variable {term.name} is unbound where a value is needed"

            def unbound(env):
                raise SafetyError(message)
            return unbound
        left = self.inner_term(term.left, bound)
        right = self.inner_term(term.right, bound)

        def arith(env):
            a = _numeric(left(env), term)
            return arithmetic(term, a, _numeric(right(env), term))
        return arith

    def inner_term(self, term, bound):
        """An arithmetic operand: constants stay in the shape."""
        if type(term) is Const:
            value = Atom(term.value)
            return lambda env: value
        return self.term(term, None, bound)

    # -- expressions ----------------------------------------------------------

    def atomic(self, expr, offset, bound):
        op, term = expr.op, expr.term
        if op == "=" and type(term) is Var:
            slot = self.slots[term.name]
            if term.name in bound:
                def check(env, obj):
                    # Null fails even self-equality for atoms (Section 5.2).
                    if obj.category == ATOM and obj.value is None:
                        return False
                    return same_value(env[slot], obj)
                return check, True, bound

            def bind(env, obj):
                if obj.category == ATOM and obj.value is None:
                    return False
                # The aggregate-variable extension: X may bind a tuple or set.
                env[slot] = obj
                return True
            return bind, True, bound | {term.name}

        if type(term) is Const and op != "!=":
            # An atomic constant: a non-atomic object never equals or
            # orders against it.
            def compare_const(env, obj):
                return obj.category == ATOM and compare_values(
                    obj.value, op, env[offset].value
                )
            return compare_const, True, bound

        value = self.term(term, offset, bound)

        def compare(env, obj):
            return _matches(obj, op, value(env))
        return compare, True, bound

    def step(self, expr, offset, bound):
        attr = expr.attr
        if type(attr) is Const and not isinstance(attr.value, str):
            message = f"attribute names are strings, got constant {attr.value!r}"

            def bad_name(env, obj):
                if obj.category == TUPLE:
                    raise EvaluationError(message)
                return False
            return bad_name, True, bound | produced_vars(expr)

        if type(attr) is Var and attr.name not in bound:
            return self.quantifier(expr, offset, bound)

        if type(attr) is Const:
            child, det, after = self.node(expr.expr, offset + 1, bound)
            if det:
                def descend(env, obj):
                    if obj.category != TUPLE:
                        return False
                    value = obj.get_or_none(env[offset])
                    return value is not None and child(env, value)
                return descend, True, after

            def descend_all(env, obj):
                if obj.category != TUPLE:
                    return ()
                value = obj.get_or_none(env[offset])
                return () if value is None else child(env, value)
            return descend_all, False, after

        child, det, after = self.node(expr.expr, offset, bound)
        slot = self.slots[attr.name]

        def attribute(env, obj):
            name = env[slot]
            # A binding that cannot name an attribute matches nothing.
            if name.category != ATOM or not isinstance(name.value, str):
                return None
            return obj.get_or_none(name.value)

        if det:
            def descend(env, obj):
                if obj.category != TUPLE:
                    return False
                value = attribute(env, obj)
                return value is not None and child(env, value)
            return descend, True, after

        def descend_all(env, obj):
            if obj.category != TUPLE:
                return ()
            value = attribute(env, obj)
            return () if value is None else child(env, value)
        return descend_all, False, after

    def quantifier(self, expr, offset, bound):
        """``.A exp`` with ``A`` unbound: ``A`` ranges over the tuple's
        attribute names (Section 4.3)."""
        name = expr.attr.name
        slot = self.slots[name]
        child, det, after = self.node(expr.expr, offset, bound | {name})
        if det and name not in expr.expr.variables():
            # The child never reads the name: bind it only on success.
            def each_name(env, obj):
                if obj.category != TUPLE:
                    return
                get = obj.get
                for attr_name in obj.attr_names():
                    if child(env, get(attr_name)):
                        env[slot] = Atom(attr_name)
                        yield None
        elif det:
            def each_name(env, obj):
                if obj.category != TUPLE:
                    return
                get = obj.get
                for attr_name in obj.attr_names():
                    env[slot] = Atom(attr_name)
                    if child(env, get(attr_name)):
                        yield None
        else:
            def each_name(env, obj):
                if obj.category != TUPLE:
                    return
                get = obj.get
                for attr_name in obj.attr_names():
                    env[slot] = Atom(attr_name)
                    yield from child(env, get(attr_name))
        return each_name, False, after

    def set_expr(self, expr, offset, bound):
        inner, det, after = self.node(expr.inner, offset, bound)
        candidates = (self.probe(expr.inner, offset, bound)
                      if self.use_indexes else _all_elements)
        if after == bound:
            # Existential cut: the inner part binds nothing new, so one
            # satisfying element decides the set expression.
            if det:
                def exists(env, obj):
                    if obj.category != SET:
                        return False
                    for element in candidates(env, obj):
                        if inner(env, element):
                            return True
                    return False
            else:
                def exists(env, obj):
                    if obj.category != SET:
                        return False
                    for element in candidates(env, obj):
                        for _ in inner(env, element):
                            return True
                    return False
            return exists, True, after
        if det:
            def each(env, obj):
                if obj.category != SET:
                    return
                for element in candidates(env, obj):
                    if inner(env, element):
                        yield None
        else:
            def each(env, obj):
                if obj.category != SET:
                    return
                for element in candidates(env, obj):
                    yield from inner(env, element)
        return each, False, after

    def probe(self, inner, offset, bound):
        """``candidates(env, set_obj)``: an index probe's bucket plus
        residual when a selection is usable, else every element (a
        snapshot, so an update mutating the set while a caller is
        suspended keeps the state at scan start).

        A conjunct of the inner expression drives a probe when it has
        the shape ``.attr = term`` (both unsigned): the attribute a
        string constant or a bound variable naming one, the term a
        constant or a bound variable holding an atom. The first usable
        conjunct probes; the index is a pure pre-filter, since the inner
        expression still runs on every candidate.
        """
        conjuncts = inner.conjuncts if type(inner) is ast.TupleExpr else (inner,)
        plans = []
        position = offset
        for conjunct in conjuncts:
            start, position = position, position + _param_count(conjunct)
            if type(conjunct) is not ast.AttrStep or conjunct.sign is not None:
                continue
            attr, comparison = conjunct.attr, conjunct.expr
            if type(comparison) is not ast.AtomicExpr or comparison.op != "=":
                continue
            if type(attr) is Var:
                if attr.name not in bound:
                    continue  # still unbound: not usable as a probe
                attr_slot, attr_is_param = self.slots[attr.name], False
                value_offset = start
            elif isinstance(attr.value, str):
                attr_slot, attr_is_param = start, True
                value_offset = start + 1
            else:
                continue  # the scan path raises the proper error
            term = comparison.term
            if type(term) is Const:
                value_slot, value_is_param = value_offset, True
            elif type(term) is Var and term.name in bound:
                value_slot, value_is_param = self.slots[term.name], False
            else:
                continue
            plans.append((attr_slot, attr_is_param, value_slot, value_is_param))
            if attr_is_param and value_is_param:
                break  # always usable: later plans are never tried
        plans = tuple(plans)

        def candidates(env, obj):
            context = env[0]
            if plans and isinstance(obj, SetObject):
                for attr_slot, attr_is_param, value_slot, value_is_param in plans:
                    name = env[attr_slot]
                    if not attr_is_param:
                        if name.category != ATOM or not isinstance(name.value, str):
                            continue  # a non-name binding
                        name = name.value
                    value = env[value_slot]
                    if not value_is_param and value.category != ATOM:
                        continue  # non-atomic comparison: no pushdown
                    index = obj.peek_index(name)
                    if index is None:
                        index = obj.index_on(name)
                        _count_index(context, _IDX_MISSES)
                        _count_index(context, _IDX_BUILDS)
                    else:
                        _count_index(context, _IDX_HITS)
                    return index.candidates(value.value_key())
            _count_index(context, _IDX_FALLBACKS)
            return obj.elements()
        return candidates

    def conjunction(self, expr, offset, bound):
        conjuncts = expr.conjuncts
        starts = []
        position = offset
        for conjunct in conjuncts:
            starts.append(position)
            position += _param_count(conjunct)
        if self.reorder:
            try:
                ordered = order_conjuncts(list(conjuncts), bound)
            except SafetyError as exc:
                return (_raiser(SafetyError, str(exc)), True,
                        bound | produced_vars(expr))
        else:
            ordered = conjuncts
        # Map the scheduled conjuncts back to their document positions
        # (and so to their parameter offsets).
        unused = list(range(len(conjuncts)))
        parts = []
        for conjunct in ordered:
            index = next(i for i in unused if conjuncts[i] is conjunct)
            unused.remove(index)
            run, det, bound = self.node(conjunct, starts[index], bound)
            parts.append((run, det))
        return _chain(parts) + (bound,)

    def constraint(self, expr, offset, bound):
        left_term, op, right_term = expr.left, expr.op, expr.right
        right_offset = offset + _param_count(left_term, term=True)
        after = bound | expr.variables()
        left_unbound = not left_term.variables() <= bound
        right_unbound = not right_term.variables() <= bound
        if op == "=" and left_unbound != right_unbound:
            # One side is ground: bind the other side's variable.
            if left_unbound:
                ground, ground_offset, open_term = right_term, right_offset, left_term
            else:
                ground, ground_offset, open_term = left_term, offset, right_term
            if type(open_term) is not Var:
                return _false, True, after  # cannot solve arithmetic
            value = self.term(ground, ground_offset, bound)
            slot = self.slots[open_term.name]

            def solve(env, obj):
                env[slot] = value(env)
                return True
            return solve, True, after
        left = self.term(left_term, offset, bound)
        right = self.term(right_term, right_offset, bound)

        def compare(env, obj):
            a = left(env)
            b = right(env)
            if a.category != ATOM or b.category != ATOM:
                if op == "=":
                    return same_value(a, b)
                if op == "!=":
                    return not same_value(a, b)
                return False
            return compare_values(a.value, op, b.value)
        return compare, True, after

    def negation(self, expr, offset, bound):
        inner, det, _ = self.node(expr.inner, offset, bound)
        if det:
            def refute(env, obj):
                return not inner(env, obj)
        else:
            def refute(env, obj):
                for _ in inner(env, obj):
                    return False  # a witness exists: the negation fails
                return True
        return refute, True, bound


def _all_elements(env, obj):
    return obj.elements()


def _chain(parts):
    """Fold scheduled ``(run, det)`` conjuncts into one ``(run, det)``:
    consecutive tests merge into one test, generators nest."""
    if not parts:
        return _true, True
    groups = []
    for run, det in parts:
        if det and groups and groups[-1][1]:
            groups[-1][0].append(run)
        else:
            groups.append(([run], det))
    *earlier, (last, det) = groups
    run = _all_of(last) if det else last[0]
    for tests, group_det in reversed(earlier):
        if group_det:
            run = _then(_all_of(tests), run)
        else:
            run = _each_then(tests[0], run, det)
        det = False
    return run, det


def _all_of(tests):
    if len(tests) == 1:
        return tests[0]
    if len(tests) == 2:
        first, second = tests

        def both(env, obj):
            return first(env, obj) and second(env, obj)
        return both
    tests = tuple(tests)

    def every(env, obj):
        for test in tests:
            if not test(env, obj):
                return False
        return True
    return every


def _then(test, rest):
    def run(env, obj):
        return rest(env, obj) if test(env, obj) else ()
    return run


def _each_then(first, rest, rest_det):
    if rest_det:
        def run(env, obj):
            for _ in first(env, obj):
                if rest(env, obj):
                    yield None
    else:
        def run(env, obj):
            for _ in first(env, obj):
                yield from rest(env, obj)
    return run


def _matches(obj, op, value_obj):
    """Atomic-expression comparison of ``obj`` against a term's value."""
    if obj.category != ATOM:
        if op == "=":
            return same_value(obj, value_obj)
        if op == "!=":
            if value_obj.category == ATOM and value_obj.value is None:
                return False
            return not same_value(obj, value_obj)
        return False
    if value_obj.category != ATOM:
        if op == "=":
            return False
        if op == "!=":
            return obj.value is not None
        return False
    return compare_values(obj.value, op, value_obj.value)


# ---------------------------------------------------------------------------
# Index counters
# ---------------------------------------------------------------------------

# (profile counter key, metrics counter name) pairs, precomputed so the
# hot path never concatenates strings.
_IDX_BUILDS = ("index.builds", "evaluator.index.builds")
_IDX_HITS = ("index.hits", "evaluator.index.hits")
_IDX_MISSES = ("index.misses", "evaluator.index.misses")
_IDX_FALLBACKS = ("index.fallbacks", "evaluator.index.fallbacks")


def _count_index(context, pair):
    if context.counters is not None:
        context.count(pair[0])
    if context.metrics is not None:
        context.metrics.counter(pair[1]).inc()


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------


class AnswerRows(list):
    """Deduplicated answer rows: one tuple of objects per answer, in the
    order of ``names``, the sorted answer variables."""

    __slots__ = ("names",)

    def __init__(self, names, rows=()):
        super().__init__(rows)
        self.names = names


def answer_rows(query, universe, bindings=None, context=None):
    """All answers to a query as :class:`AnswerRows` — no substitution
    is built per answer. ``bindings`` pre-binds parameters (a ``{name:
    IdlObject-or-scalar}`` dict or a Substitution)."""
    plan, env = _prepare_query(query, bindings, context)
    slots = plan.slots
    rows = AnswerRows(plan.names)
    if plan.det:
        if plan.run(env, universe):
            rows.append(tuple([env[i] for i in slots]))
        return rows
    seen = set()
    for _ in plan.run(env, universe):
        row = tuple([env[i] for i in slots])
        key = tuple([obj.value_key() for obj in row])
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def answers(query, universe, bindings=None, context=None):
    """All answers to a query against ``universe``.

    Returns a deduplicated list of substitutions restricted to the
    query's variables. ``bindings`` pre-binds parameters (a
    ``{name: IdlObject}`` dict or a Substitution).
    """
    rows = answer_rows(query, universe, bindings, context)
    return [Substitution.of(dict(zip(rows.names, row))) for row in rows]


def holds(query, universe, bindings=None, context=None):
    """Boolean satisfaction: does at least one answer exist?"""
    plan, env = _prepare_query(query, bindings, context)
    if plan.det:
        return bool(plan.run(env, universe))
    for _ in plan.run(env, universe):
        return True
    return False


def _prepare_query(query, bindings, context):
    # A query's AST is usually parsed for this one call: lift its shape
    # afresh rather than memoizing (and pinning) it by identity.
    expr = query.expr if isinstance(query, ast.Query) else query
    if context is None:
        context = _DEFAULT_CONTEXT
    return _prepare(expr, _as_substitution(bindings), context, memo=False)


def _as_substitution(bindings):
    if bindings is None:
        return EMPTY
    if isinstance(bindings, Substitution):
        return bindings
    converted = {}
    for name, value in bindings.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            converted[name] = Atom(value)
        else:
            converted[name] = value
    return Substitution.of(converted)
