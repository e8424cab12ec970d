"""The IDL engine facade.

:class:`IdlEngine` is the one-stop public entry point: it owns a base
:class:`~repro.objects.universe.Universe`, an
:class:`~repro.core.program.IdlProgram` of views and update programs, a
materialization store, and an update executor. Typical use::

    engine = IdlEngine()
    engine.add_database("euter", {"r": [...]})
    engine.define(".dbI.p(.date=D,.stk=S,.price=P) <- "
                  ".euter.r(.date=D,.stkCode=S,.clsPrice=P)")
    engine.query("?.dbI.p(.stk=S, .price>200)")
    engine.update("?.euter.r+(.date=3/5/85,.stkCode=hp,.clsPrice=70)")

Queries run against the *merged* view (base universe plus materialized
derived overlay); updates run against the base universe only, wrapped in
a snapshot transaction (atomic by default), and repair (or invalidate)
the store.
"""

from __future__ import annotations

import time

from repro.core import ast
from repro.core.evaluator import EvalContext, holds
# Answers stay rows of objects until rendered; the query path calls them
# by this module-level name (perfbench's per-layer tracing wraps it).
from repro.core.evaluator import answer_rows as answers
from repro.core.parser import parse_program
from repro.core.program import IdlProgram
from repro.core.update_programs import UpdateExecutor
from repro.errors import IdlError, SemanticError
from repro.objects.base import ATOM
from repro.objects.merged import MergedTuple
from repro.objects.tuple import TupleObject
from repro.objects.universe import Universe


class QueryAnswer:
    """One answer: variable bindings rendered as plain Python values."""

    __slots__ = ("bindings",)

    def __init__(self, bindings):
        self.bindings = bindings

    def __getitem__(self, name):
        return self.bindings[name]

    def __contains__(self, name):
        return name in self.bindings

    def get(self, name, default=None):
        return self.bindings.get(name, default)

    def keys(self):
        return self.bindings.keys()

    def items(self):
        return self.bindings.items()

    def __eq__(self, other):
        if isinstance(other, QueryAnswer):
            return self.bindings == other.bindings
        if isinstance(other, dict):
            return self.bindings == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.bindings.items()))

    def __repr__(self):
        return f"QueryAnswer({self.bindings!r})"


class PruneDecision:
    """Why the last query did (or did not) run against a pruned view.

    ``applied`` — a subset materialization was used; ``reads`` — the
    query's closed read :class:`~repro.analysis.effects.EffectSet`
    (None when the analysis did not run); ``rules_used`` /
    ``rules_total`` — how many view rules were materialized out of the
    program; ``reason`` — ``"off"``, ``"no-rules"``, ``"full"`` (the
    read set needs every rule) or ``"pruned"``.
    """

    __slots__ = ("applied", "reads", "rules_used", "rules_total", "reason")

    def __init__(self, applied, reads, rules_used, rules_total, reason):
        self.applied = applied
        self.reads = reads
        self.rules_used = rules_used
        self.rules_total = rules_total
        self.reason = reason

    def __repr__(self):
        return (f"PruneDecision({self.reason}, "
                f"rules={self.rules_used}/{self.rules_total})")


class IdlEngine:
    """A multidatabase engine speaking IDL.

    ``obs`` optionally attaches a :class:`repro.obs.Observability`:
    queries and updates then run inside spans (federation → engine →
    fixpoint strata), evaluation collects node-visit counters, and
    coarse metrics (``fixpoint.iterations``, ...) accumulate in its
    registry. With ``obs=None`` (the default) the engine takes the
    exact pre-observability code path — benchmark B3 asserts a
    disabled :class:`~repro.obs.Observability` costs within 5% of it.

    With ``prune`` True (the federation turns it on by default),
    queries are first run through the static effect analysis
    (:mod:`repro.analysis.effects`): only the view rules the query's
    read set can reach are materialized, so a query that provably
    touches one member never pays for the others; :attr:`last_prune`
    records the most recent decision.

    Pruned and full reads share one materialization store: an ordered
    map from stratum (an SCC of the rule dependency graph, keyed by the
    frozenset of its rule ids) to its overlay, plus one combined
    overlay and one :class:`~repro.core.fixpoint.FixpointStats`. It
    grows on demand — a read evaluates only the strata of its needed
    rules the store lacks — and is bounded by one full
    materialization.

    With ``maintain`` True (the default), an update repairs the dirty
    held strata in place from the update's concrete insert/delete
    deltas (incremental view maintenance: DRed for deletions,
    delta-seeded semi-naive for insertions) instead of rebuilding them
    — see :func:`repro.core.fixpoint.maintain_stratum`. A stratum whose
    repair could be unsound falls back: it and its downstream strata
    leave the store and are rebuilt by the next read that needs them.
    ``maintain=False`` forces that rebuild path everywhere.
    """

    def __init__(self, universe=None, program=None, fixpoint_method="seminaive",
                 reorder=True, obs=None, use_indexes=True, prune=False,
                 maintain=True):
        from repro.core.integrity import ConstraintSet

        self.universe = universe if universe is not None else Universe()
        self.program = program if program is not None else IdlProgram()
        self.fixpoint_method = fixpoint_method
        self.eval_ctx = EvalContext(reorder=reorder, use_indexes=use_indexes)
        self.constraints = ConstraintSet()
        self.obs = None
        if obs is not None:
            self.use_observability(obs)
        self.prune = prune
        self.maintain = maintain
        self.last_prune = None
        # The materialization store: stratum key (frozenset of rule
        # ids) -> (stratum, overlay) in evaluation order, the ids of the
        # rules it holds, the combined overlay of every held stratum
        # (None until the next read rebuilds it) and one FixpointStats.
        self._store = {}
        self._held = set()
        self._overlay = None
        self._overlay_stats = None
        self._last_stats = None  # stats of the last query's materialization
        self._effects = None
        self._effects_version = None

    def use_observability(self, obs):
        """Attach an :class:`~repro.obs.Observability` (the federation
        shares its own with the engine so spans nest in one trace)."""
        self.obs = obs
        self.eval_ctx.tracer = obs.tracer if obs.enabled else None
        self.eval_ctx.metrics = obs.metrics
        return self

    # -- data management -----------------------------------------------------

    def add_database(self, name, relations=None):
        """Register a database; ``relations`` maps names to row dicts."""
        from repro.objects import encode

        db = encode.database(relations or {})
        self.universe.add_database(name, db)
        self.invalidate()
        return db

    def drop_database(self, name):
        self.universe.drop_database(name)
        self.invalidate()

    # -- program management -----------------------------------------------------

    def define(self, source_or_rule, merge_on=()):
        """Register view definition rule(s); returns the analyzed rules."""
        added = self.program.add_rule(source_or_rule, merge_on=merge_on)
        self.invalidate()
        return added

    def define_update(self, source_or_clause):
        """Register update program clause(s)."""
        return self.program.add_update_clause(source_or_clause)

    def load(self, source):
        """Load a mixed program text (rules and update clauses)."""
        added = self.program.load(source)
        self.invalidate()
        return added

    # -- materialization -----------------------------------------------------

    def invalidate(self):
        """Empty the materialization store (after out-of-band changes)."""
        self._store = {}
        self._held = set()
        self._overlay = None
        self._overlay_stats = None

    def _selective_invalidate(self, touched, delta=None):
        """Invalidate — or repair — the held strata an update affected.

        ``touched`` is the set of ``(db, rel)`` prefixes reported by the
        update evaluator; ``delta`` (optional) its concrete
        :class:`~repro.core.updates.UpdateDelta`. A rule is dirty when
        it reads (or defines) a target overlapping a touched path or a
        dirty rule's target, transitively. With maintenance on and a
        concrete delta, dirty strata are repaired in place
        (:meth:`_repair_strata`); otherwise they leave the store, and
        the clean ones stay for every later read.
        """
        from repro.core.terms import Const

        if any(len(prefix) == 0 for prefix in touched):
            self.invalidate()
            return
        if not self._store:
            return

        touched_patterns = [
            tuple(Const(name) for name in prefix) for prefix in touched
        ]
        dirty_ids = {id(rule) for rule in self._dirty_rules(touched_patterns)}
        if self._held.isdisjoint(dirty_ids):
            # The update touched nothing a held stratum reads: the store
            # stays valid (queries merge the live base underneath it).
            return

        if self.maintain and delta is not None:
            self._repair_strata(dirty_ids, touched_patterns, delta)
            return
        self._evict([key for key in self._store
                     if not dirty_ids.isdisjoint(key)])

    def _evict(self, keys):
        """Drop strata from the store; the combined overlay is rebuilt
        from the survivors by the next read."""
        for key in keys:
            del self._store[key]
            self._held.difference_update(key)
        if keys:
            self._overlay = None

    def _dirty_rules(self, touched_patterns):
        """Rules whose output the update may have changed: those reading
        or defining a touched path, closed transitively through the
        targets of dirty rules."""
        from repro.core.rules import patterns_overlap

        dirty = []
        dirty_ids = set()
        frontier = list(touched_patterns)
        progress = True
        while progress:
            progress = False
            for rule in self.program.rules:
                if id(rule) in dirty_ids:
                    continue
                if any(
                    patterns_overlap(pattern, changed)
                    for pattern, _ in rule.references
                    for changed in frontier
                ) or any(
                    patterns_overlap(rule.target, changed)
                    for changed in frontier
                ):
                    dirty.append(rule)
                    dirty_ids.add(id(rule))
                    frontier.append(rule.target)
                    progress = True
        return dirty

    def _repair_strata(self, dirty_ids, touched_patterns, delta):
        """Incremental view maintenance over the materialization store.

        Walks the held strata in evaluation order, repairing each dirty
        overlay in place from the accumulated concrete deltas (the
        update's own changes plus the derived changes of already
        repaired strata). When every dirty stratum repairs, the
        combined overlay is patched with the net derived changes; a
        stratum that must fall back (see
        :func:`repro.core.fixpoint.maintenance_plan`) leaves the store
        together with the strata downstream of it (they read its
        now-unknown delta and fall back too), and the next read that
        needs them re-evaluates only those.
        """
        from repro.core import fixpoint
        from repro.core.rules import patterns_overlap
        from repro.core.terms import Const
        from repro.obs.trace import NOOP_SPAN

        stats = self._overlay_stats
        metrics = self.eval_ctx.metrics
        obs = self.obs
        span = (obs.span("fixpoint.maintain")
                if obs is not None and obs.enabled else NOOP_SPAN)

        acc_inserts, acc_deletes, symbolic = delta.fold()
        acc_inserts = {path: dict(elems) for path, elems in acc_inserts.items()}
        acc_deletes = {path: dict(elems) for path, elems in acc_deletes.items()}
        # Paths whose delta is unknown: symbolic records, plus the
        # targets of any stratum that fell back — strata reading them
        # cannot be repaired.
        unknown = [tuple(Const(name) for name in path)
                   for path in sorted(symbolic)]
        changed_patterns = list(touched_patterns)
        seeded = (sum(len(v) for v in acc_inserts.values())
                  + sum(len(v) for v in acc_deletes.values()))
        overdeleted_before = stats.maintain_overdeleted
        rederived_before = stats.maintain_rederived
        derived_added = {}
        derived_removed = {}
        repaired = 0
        fallen = []
        with span:
            view_base = self.universe
            for key, (stratum, overlay) in self._store.items():
                if dirty_ids.isdisjoint(key):
                    view_base = MergedTuple(view_base, overlay)
                    continue
                variants = None
                if any(
                    patterns_overlap(pattern, unk)
                    for rule in stratum
                    for pattern, _ in rule.references
                    for unk in unknown
                ) or any(
                    patterns_overlap(rule.target, unk)
                    for rule in stratum
                    for unk in unknown
                ):
                    reason = "unknown-delta"
                else:
                    variants, reason = fixpoint.maintenance_plan(
                        stratum, changed_patterns
                    )
                if reason is None:
                    try:
                        added, removed = fixpoint.maintain_stratum(
                            stratum, variants, view_base, overlay,
                            fixpoint.paths_overlay(acc_inserts),
                            fixpoint.paths_overlay(acc_deletes),
                            stats, self.eval_ctx,
                        )
                    except fixpoint.MaintenanceAborted as aborted:
                        # The overlay is partially mutated: unusable.
                        reason = aborted.reason
                        added = removed = None
                if reason is None:
                    for names, elements in added.items():
                        acc_inserts.setdefault(names, {}).update(elements)
                        derived_added.setdefault(names, {}).update(elements)
                    for names, elements in removed.items():
                        acc_deletes.setdefault(names, {}).update(elements)
                        derived_removed.setdefault(names, {}).update(elements)
                    repaired += 1
                    stats.maintained_strata += 1
                    span.event(
                        "stratum-repaired",
                        added=sum(len(v) for v in added.values()),
                        removed=sum(len(v) for v in removed.values()),
                    )
                else:
                    fallen.append(key)
                    unknown = unknown + [rule.target for rule in stratum]
                    span.event("stratum-fallback", reason=reason)
                changed_patterns.extend(rule.target for rule in stratum)
                view_base = MergedTuple(view_base, overlay)
            fallbacks = len(fallen)
            stats.maintain_seeded += seeded
            stats.maintain_fallbacks += fallbacks
            span.set("strata", len(self._store))
            span.set("repaired", repaired)
            span.set("fallbacks", fallbacks)
            span.set("seeded", seeded)
            span.set("overdeleted",
                     stats.maintain_overdeleted - overdeleted_before)
            span.set("rederived",
                     stats.maintain_rederived - rederived_before)
        if metrics is not None:
            metrics.counter("fixpoint.maintain.runs").inc()
            metrics.counter("fixpoint.maintain.seeded").inc(seeded)
            metrics.counter("fixpoint.maintain.overdeleted").inc(
                stats.maintain_overdeleted - overdeleted_before)
            metrics.counter("fixpoint.maintain.rederived").inc(
                stats.maintain_rederived - rederived_before)
            metrics.counter("fixpoint.maintain.fallbacks").inc(fallbacks)
        if fallen:
            self._evict(fallen)
        elif self._overlay is not None:
            # A fact removed from one stratum's overlay may still be
            # derived by another stratum into the same path (two strata
            # can share a target, e.g. the base and recursive rules of
            # a closure): only facts absent from every repaired overlay
            # leave the combined view.
            surviving = {}
            for names, elements in derived_removed.items():
                keep = {
                    key: element
                    for key, element in elements.items()
                    if not self._any_stratum_holds(names, element)
                }
                if keep:
                    surviving[names] = keep
            fixpoint.apply_path_deltas(
                self._overlay, derived_added, surviving
            )

    def _any_stratum_holds(self, names, element):
        """Does any stratum overlay still contain ``element`` at path
        ``names``?"""
        from repro.core.fixpoint import overlay_relation

        for _, overlay in self._store.values():
            relation = overlay_relation(overlay, names)
            if relation is not None and relation.contains_value(element):
                return True
        return False

    def materialized_view(self):
        """The merged (base + derived) universe for querying."""
        if not self.program.rules:
            return self.universe
        return self._materialize(self.program.rules)

    def _materialize(self, rules):
        """The merged view over a store holding at least ``rules``.

        ``rules`` is dependency-closed (the whole program, or a query's
        needed set). When the store already holds every one of them
        this is a lookup; otherwise the strata it lacks are evaluated
        over the held ones, appended to the store (dependencies stay
        ahead of dependents, because what the store holds is closed
        too) and merged into the combined overlay.
        """
        from repro.core import fixpoint

        held = self._held
        if any(id(rule) not in held for rule in rules):
            strata, stats = fixpoint.materialize_strata(
                rules,
                self.universe,
                method=self.fixpoint_method,
                context=self.eval_ctx,
                reuse=self._store,
            )
            added = []
            for key, stratum, overlay in strata:
                if key not in self._store:
                    self._store[key] = (stratum, overlay)
                    held.update(key)
                    added.append(overlay)
            if self._overlay_stats is None:
                self._overlay_stats = stats
            else:
                self._overlay_stats.absorb(stats)
            if self._overlay is not None:
                fixpoint.combine_overlays(added, into=self._overlay)
        if self._overlay is None:
            self._overlay = fixpoint.combine_overlays(
                overlay for _, overlay in self._store.values()
            )
        return MergedTuple(self.universe, self._overlay)

    @property
    def overlay(self):
        """The derived overlay (materializing if needed)."""
        self.materialized_view()
        return self._overlay if self._overlay is not None else TupleObject()

    @property
    def fixpoint_stats(self):
        self.materialized_view()
        return self._overlay_stats

    @property
    def last_fixpoint_stats(self):
        """Stats of the materialization the last query actually used —
        unlike :attr:`fixpoint_stats` this never forces a full
        materialization (which would defeat pruning)."""
        return self._last_stats

    # -- effect analysis -----------------------------------------------------

    def effect_analysis(self):
        """The (cached) static effect analysis of the current program."""
        from repro.analysis.effects import EffectAnalysis

        version = (
            len(self.program.rules),
            sum(len(clauses) for clauses in self.program.clauses.values()),
        )
        if self._effects is None or self._effects_version != version:
            self._effects = EffectAnalysis(self.program)
            self._effects_version = version
        return self._effects

    def _view_for(self, statement):
        """The view a query statement should evaluate against.

        Without pruning this is :meth:`materialized_view`. With pruning,
        the statement's read set (closed through view rules) selects the
        subset of rules that must be materialized, and only the strata
        of that subset the store lacks are evaluated. The needed set is
        dependency-downward-closed, so each of its strata is exactly
        the stratum of the full program and serves every later query.
        """
        rules = self.program.rules
        total = len(rules)
        reads = None
        if not self.prune or not rules:
            needed, reason = rules, "off" if rules else "no-rules"
        else:
            reads, needed = self.effect_analysis().query_footprint(statement)
            reason = "full" if len(needed) == total else "pruned"
        self.last_prune = PruneDecision(
            reason == "pruned", reads, len(needed), total, reason
        )
        if not needed:
            self._last_stats = None
            return self.universe
        view = self._materialize(needed)
        self._last_stats = self._overlay_stats
        return view

    # -- queries ------------------------------------------------------------

    def query(self, source, **params):
        """Answer a query; returns a list of :class:`QueryAnswer`.

        ``params`` pre-bind variables: ``engine.query("?.db.r(.a=X,.b=Y)",
        X=3)``. With observability attached and enabled, the evaluation
        runs inside ``engine.query``/``engine.evaluate`` spans and the
        profiling counters land on the ``engine.evaluate`` span.
        """
        statement = self._one_query(source)
        if statement.is_update_request:
            raise SemanticError(
                "this is an update request; use IdlEngine.update()"
            )
        obs = self.obs
        if obs is None or not obs.enabled:
            if obs is None:
                view = self._view_for(statement)
                return self._render_answers(answers(
                    statement, view, params or None, self.eval_ctx))
            # Tracing off but metrics on: time the query explicitly so
            # the engine.query.ms window (rates, percentiles) keeps
            # feeding /metrics and the SLO layer.
            started = time.perf_counter()
            view = self._view_for(statement)
            rows = answers(statement, view, params or None, self.eval_ctx)
            obs.metrics.histogram("engine.query.ms").observe(
                (time.perf_counter() - started) * 1000.0
            )
            return self._render_answers(rows)
        with obs.span("engine.query") as span:
            view = self._view_for(statement)
            context = self._profiled_context()
            with obs.span("engine.evaluate") as evaluate_span:
                rows = answers(statement, view, params or None, context)
                evaluate_span.set("answers", len(rows))
                if context.counters is not None:
                    evaluate_span.set("counters", dict(context.counters))
            span.set("answers", len(rows))
        duration_ms = span.duration_ms
        if duration_ms is not None:
            obs.metrics.histogram("engine.query.ms").observe(duration_ms)
        return self._render_answers(rows)

    def ask(self, source, **params):
        """Boolean query: is the expression satisfiable?"""
        statement = self._one_query(source)
        if statement.is_update_request:
            raise SemanticError("this is an update request; use IdlEngine.update()")
        obs = self.obs
        if obs is None or not obs.enabled:
            return holds(statement, self._view_for(statement), params or None,
                         self.eval_ctx)
        with obs.span("engine.ask") as span:
            view = self._view_for(statement)
            result = holds(statement, view, params or None,
                           self._profiled_context())
            span.set("satisfiable", result)
        return result

    @staticmethod
    def _render_answers(rows):
        """One :class:`QueryAnswer` per row of
        :class:`~repro.core.evaluator.AnswerRows`."""
        names = rows.names
        return [
            QueryAnswer({
                name: obj.value if obj.category == ATOM else obj.to_python()
                for name, obj in zip(names, row)
            })
            for row in rows
        ]

    def _profiled_context(self):
        """A per-statement evaluation context that collects node-visit
        counters (when the observability asks for profiles) while
        sharing the engine tracer, metrics and compiled plans. The
        shared ``eval_ctx`` keeps serving the un-observed path and the
        fixpoint."""
        obs = self.obs
        context = EvalContext(
            reorder=self.eval_ctx.reorder,
            profile=obs.profile_queries,
            tracer=self.eval_ctx.tracer,
            metrics=self.eval_ctx.metrics,
            use_indexes=self.eval_ctx.use_indexes,
        )
        context.plans = self.eval_ctx.plans
        return context

    # -- updates ------------------------------------------------------------

    def update(self, source, atomic=True, **params):
        """Execute an update request (program calls and view updates
        included). ``atomic=True`` snapshots the universe and rolls back
        on any error; the request still *succeeds-or-not* per the paper's
        success/failure semantics — inspect the returned UpdateResult."""
        from repro.core.updates import UpdateContext, UpdateDelta
        from repro.obs.trace import NOOP_SPAN

        statement = self._one_query(source, allow_update=True)
        obs = self.obs
        span = (obs.span("engine.update")
                if obs is not None and obs.enabled else NOOP_SPAN)
        executor = UpdateExecutor(self.program, self.universe, self.eval_ctx)
        # Capture concrete element-level deltas only when the store
        # holds strata to maintain with them; otherwise the
        # capture hooks stay no-ops and the update pays nothing.
        capture = self.maintain and bool(self._store)
        uctx = UpdateContext(self.eval_ctx,
                             delta=UpdateDelta() if capture else None)
        snapshot = self.universe.snapshot() if atomic else None
        with span:
            try:
                result = executor.execute_request(statement, params or None,
                                                  uctx=uctx)
                # Value-keyed set indexes only go stale when an element
                # was mutated in place; pure insert/delete requests keep
                # every surviving key intact.
                if uctx.modified:
                    self._reindex_universe()
                if len(self.constraints):
                    self.constraints.enforce(self.universe)
            except IdlError:
                if snapshot is not None:
                    self._restore(snapshot)
                else:
                    # Non-atomic failure: the base may be partially mutated,
                    # so cached views (and set indexes) must not survive.
                    self._reindex_universe()
                    self.invalidate()
                span.set("rolled_back", snapshot is not None)
                raise
            span.set("inserted", result.inserted)
            span.set("deleted", result.deleted)
            span.set("modified", result.modified)
            span.set("touched", sorted(".".join(p) for p in result.touched))
        if obs is not None:
            obs.metrics.counter("engine.updates").inc()
        if result.changed:
            self._selective_invalidate(result.touched, result.delta)
        return result

    def declare_key(self, db, rel, columns):
        """Declare a key constraint (``rel`` may be ``"*"``); the current
        state must already satisfy it, else the declaration is refused."""
        constraint = self.constraints.declare_key(db, rel, columns)
        try:
            self.constraints.enforce(self.universe)
        except IdlError:
            self.constraints.keys.remove(constraint)
            raise
        return constraint

    def declare_type(self, db, rel, attr, type_class, nullable=True):
        """Declare a type constraint; the current state must satisfy it."""
        constraint = self.constraints.declare_type(
            db, rel, attr, type_class, nullable
        )
        try:
            self.constraints.enforce(self.universe)
        except IdlError:
            self.constraints.types.remove(constraint)
            raise
        return constraint

    def call(self, db, program, **args):
        """Convenience: call an update program with keyword arguments.

        ``engine.call("dbU", "insStk", stk="hp", date="3/5/85", price=70)``
        is ``engine.update("?.dbU.insStk(.stk='hp', ...)")``.
        """
        items = ", ".join(f".{key}={_literal(value)}" for key, value in args.items())
        return self.update(f"?.{db}.{program}({items})")

    def _restore(self, snapshot):
        for name in list(self.universe.attr_names()):
            self.universe.remove(name)
        for name in snapshot.attr_names():
            self.universe.set(name, snapshot.get(name))
        self.invalidate()

    def _reindex_universe(self):
        """Rebuild set value-indexes after in-place element mutation."""
        _reindex(self.universe)

    # -- helpers ------------------------------------------------------------

    def _one_query(self, source, allow_update=False):
        if isinstance(source, ast.Query):
            return source
        statements = parse_program(source)
        if len(statements) != 1 or not isinstance(statements[0], ast.Query):
            raise SemanticError("expected a single '?' statement")
        statement = statements[0]
        return statement

    def __repr__(self):
        return (
            f"IdlEngine(databases={self.universe.database_names()}, "
            f"rules={len(self.program.rules)}, "
            f"programs={len(self.program.clauses)})"
        )


def _literal(value):
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, bool):
        raise SemanticError("boolean literals are not part of IDL syntax")
    if isinstance(value, (int, float)):
        return repr(value)
    raise SemanticError(f"cannot render {type(value).__name__} as an IDL literal")


def _reindex(obj):
    if obj.is_set:
        # Direct view iteration is safe: recursing mutates the elements'
        # own internals, never this set's key dict; reindex() runs after
        # the loop completes (and only bumps the version — invalidating
        # attribute indexes — when the mapping actually changed).
        for element in obj:
            _reindex(element)
        obj.reindex()
    elif obj.is_tuple:
        for name in obj.attr_names():
            _reindex(obj.get(name))
