"""Bounded scatter-gather execution of per-member I/O.

Every multi-member code path of the federation — install prefetch
scans, probe sweeps, recovery replay, the two-phase flush — is "do the
same kind of thing against N autonomous members". Members are
independent systems reached over independent transports, so those N
operations are independently schedulable: a :class:`MemberExecutor`
fans them out over a small reusable worker pool and gathers the
outcomes back in *task order*, so callers see deterministic results no
matter how the scheduler interleaved the work.

The executor is deliberately dumb about what a task *does*: a
:class:`MemberTask` is a member name plus a zero-argument callable
(usually a bound connector operation, already wrapped in the member's
retry/breaker machinery). What the executor adds:

* **Bounded concurrency** — a lazily created
  :class:`~concurrent.futures.ThreadPoolExecutor` with
  ``max_workers = min(8, tasks)`` by default, reused across calls;
* **A deterministic serial reference path** — ``parallel="off"`` (or
  a single task) runs every task inline on the calling thread in task
  order, with no extra threads and no extra spans, under the same
  failure contract as the parallel path: every task runs and each
  ordinary failure lands in its outcome;
* **Wall-clock deadlines** — a task with a ``deadline`` is abandoned
  (its outcome is a :class:`~repro.errors.DeadlineExceededError`,
  ``timed_out=True``) once that many real seconds elapse from scatter
  start, without stalling the other members' results. The worker
  thread itself cannot be preempted — it finishes in the background
  and its result is discarded;
* **Hedged reads** — a task with ``hedge=True`` is resubmitted on a
  second worker once ``hedge_after`` seconds pass without a result;
  the first success wins and the loser is discarded. Only idempotent
  reads (scans) should opt in;
* **A per-member latency breakdown** — every outcome carries the
  worker-measured wall seconds its attempt took, and the same value
  lands in the ``connector.pool.latency`` histogram (tagged by
  member) of the federation's metrics registry, so
  ``QueryResult``/``UpdateResult`` metrics snapshots carry it;
* **Pool counters and spans** — ``connector.pool.submitted`` /
  ``completed`` / ``rejected`` counters (rejected = results discarded:
  deadline-abandoned stragglers and hedge losers), and in parallel
  mode a ``scatter-gather`` span with one pre-attached child span per
  member. Worker threads :meth:`~repro.obs.trace.Tracer.adopt` their
  member span, so connector spans opened on a worker still nest under
  the dispatching trace.

Thread-safety contract: task callables run concurrently, so anything
they share — connectors, health counters, breakers, clocks, the
journal, the crash injector — must be thread-safe (see
``docs/concurrency.md`` for the per-type contract). The federation's
engine and universe are *not* thread-safe; callers keep engine
mutations on the gathering thread, after :meth:`MemberExecutor.map`
returns.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.errors import DeadlineExceededError, FederationError

#: The hard ceiling on the default pool size (an explicit
#: ``max_workers`` may exceed it).
DEFAULT_WORKER_CAP = 8

PARALLEL_MODES = ("on", "off")


class MemberTask:
    """One unit of member I/O: a name, a zero-argument callable, and
    the scheduling knobs (`deadline` in wall seconds from scatter
    start, ``hedge`` opt-in for idempotent reads)."""

    __slots__ = ("name", "fn", "deadline", "hedge")

    def __init__(self, name, fn, deadline=None, hedge=False):
        self.name = name
        self.fn = fn
        self.deadline = deadline
        self.hedge = bool(hedge)

    def __repr__(self):
        return (f"MemberTask({self.name!r}, deadline={self.deadline}, "
                f"hedge={self.hedge})")


class MemberOutcome:
    """One task's gathered result, in task order.

    Exactly one of ``value`` / ``error`` is meaningful (``error`` may
    be a ``BaseException`` — see :meth:`MemberExecutor.map` for how
    fatal errors re-raise). ``latency`` is the worker-measured wall
    seconds of the winning attempt (``None`` when the task was
    abandoned before any attempt finished). ``timed_out`` marks
    deadline abandonment; ``hedged`` marks outcomes whose task got a
    second worker (whichever attempt won).
    """

    __slots__ = ("name", "value", "error", "latency", "hedged",
                 "timed_out")

    def __init__(self, name, value=None, error=None, latency=None,
                 hedged=False, timed_out=False):
        self.name = name
        self.value = value
        self.error = error
        self.latency = latency
        self.hedged = hedged
        self.timed_out = timed_out

    @property
    def ok(self):
        return self.error is None

    def __repr__(self):
        state = "ok" if self.ok else f"error={type(self.error).__name__}"
        return f"MemberOutcome({self.name!r}, {state})"


class _Run:
    """Bookkeeping for one submitted attempt (primary or hedge)."""

    __slots__ = ("future", "latency")

    def __init__(self):
        self.future = None
        self.latency = None


class MemberExecutor:
    """Scatter-gather over a reusable bounded worker pool.

    ``parallel`` is ``"on"`` or ``"off"``; off (and any single-task
    call) runs a deterministic inline loop with the same failure
    contract. ``max_workers``
    overrides the ``min(8, tasks)`` default pool size. ``hedge_after``
    (wall seconds) arms hedging for tasks that opt in; ``None``
    disables it. ``obs`` is the federation's
    :class:`~repro.obs.Observability` (or ``None``).
    """

    def __init__(self, parallel="on", max_workers=None, hedge_after=None,
                 obs=None):
        if parallel not in PARALLEL_MODES:
            raise FederationError(
                f"parallel must be 'on' or 'off', got {parallel!r}"
            )
        if max_workers is not None and (not isinstance(max_workers, int)
                                        or max_workers < 1):
            raise FederationError(
                f"max_workers must be a positive integer, got {max_workers!r}"
            )
        if hedge_after is not None and hedge_after <= 0:
            raise FederationError(
                f"hedge_after must be positive seconds, got {hedge_after!r}"
            )
        self.parallel = parallel
        self.max_workers = max_workers
        self.hedge_after = hedge_after
        self.obs = obs
        self._pool = None
        self._pool_size = 0
        self._lock = threading.Lock()

    # -- the public surface ---------------------------------------------

    def map(self, tasks, label="scatter"):
        """Run every task; return a :class:`MemberOutcome` list in task
        order.

        Ordinary ``Exception`` failures are *captured* in the outcomes,
        serially and in parallel alike — every task runs, and the
        caller decides what a failure means. A ``BaseException`` (e.g.
        an injected :class:`~repro.multidb.journal.CrashPoint`) is
        fatal: serially it propagates immediately; in parallel every
        outcome is gathered first, then the first fatal error in task
        order re-raises.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.parallel == "off" or len(tasks) == 1:
            return self._serial(tasks)
        return self._scatter(tasks, label)

    def shutdown(self):
        """Stop the worker pool (it is lazily recreated on next use)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_size = 0

    # -- serial reference path -------------------------------------------

    def _serial(self, tasks):
        metrics = self.obs.metrics if self.obs is not None else None
        outcomes = []
        for task in tasks:
            started = time.perf_counter()
            try:
                value = task.fn()
            except Exception as exc:
                latency = time.perf_counter() - started
                self._observe_latency(metrics, task.name, latency)
                self._observe_slo(task.name, latency, ok=False)
                outcomes.append(MemberOutcome(task.name, error=exc,
                                              latency=latency))
            else:
                latency = time.perf_counter() - started
                self._observe_latency(metrics, task.name, latency)
                self._observe_slo(task.name, latency, ok=True)
                outcomes.append(MemberOutcome(task.name, value=value,
                                              latency=latency))
        return outcomes

    # -- parallel scatter-gather ----------------------------------------

    def _scatter(self, tasks, label):
        obs = self.obs
        enabled = obs is not None and obs.enabled
        tracer = obs.tracer if enabled else None
        metrics = obs.metrics if obs is not None else None
        pool = self._ensure_pool(len(tasks))
        parent_cm = (obs.span("scatter-gather", op=label, tasks=len(tasks),
                              workers=self._pool_size)
                     if enabled else _NULL_CONTEXT)
        with parent_cm as parent:
            # Child spans are pre-attached here, on the gathering
            # thread, in task order — deterministic trees no matter
            # which worker finishes first. ``child_span`` charges the
            # trace's span budget and hands back None once the cap is
            # hit; that member simply runs untraced.
            spans = []
            for task in tasks:
                span = None
                if enabled:
                    span = tracer.child_span(parent, "scatter-gather.member",
                                             member=task.name)
                spans.append(span)
            # The gathering thread's active request accumulators, so
            # worker-side increments (pool counters, connector
            # latencies) land in the request's delta snapshot too.
            requests = (metrics.active_requests()
                        if metrics is not None else ())
            started_at = time.monotonic()
            runs = []
            for task, span in zip(tasks, spans):
                runs.append(self._submit(pool, task, span, parent, tracer,
                                         metrics, requests))
            outcomes = [
                self._gather(pool, task, span, run, parent, tracer, metrics,
                             started_at)
                for task, span, run in zip(tasks, spans, runs)
            ]
        for outcome in outcomes:
            error = outcome.error
            if error is not None and not isinstance(error, Exception):
                raise error
        return outcomes

    def _submit(self, pool, task, span, parent, tracer, metrics, requests):
        run = _Run()
        run.future = pool.submit(self._invoke, task, span, parent, tracer,
                                 metrics, requests, run)
        if metrics is not None:
            metrics.counter("connector.pool.submitted").inc()

            def _completed(_future):
                # Done callbacks run on the worker thread, outside the
                # _invoke adoption block — re-adopt for the delta.
                with metrics.adopt_requests(requests):
                    metrics.counter("connector.pool.completed").inc()

            run.future.add_done_callback(_completed)
        return run

    def _invoke(self, task, span, parent, tracer, metrics, requests, run):
        """The worker body: adopt the dispatching spans and request
        accumulators, time the callable, record the member's latency."""
        started = time.perf_counter()
        adopt_cm = (metrics.adopt_requests(requests)
                    if metrics is not None else _NULL_CONTEXT)
        try:
            with adopt_cm:
                if span is not None:
                    span.start = tracer.clock()
                    try:
                        with tracer.adopt(parent), tracer.adopt(span):
                            return task.fn()
                    except BaseException as exc:
                        if "error" not in span.attributes:
                            # Through Span.set so the trace budget's
                            # error flag trips (the tail escape that
                            # keeps sampled-out error traces).
                            span.set("error", type(exc).__name__)
                        raise
                    finally:
                        span.end = tracer.clock()
                else:
                    return task.fn()
        finally:
            run.latency = time.perf_counter() - started
            with (metrics.adopt_requests(requests)
                  if metrics is not None else _NULL_CONTEXT):
                self._observe_latency(metrics, task.name, run.latency)
            if span is not None:
                span.set("latency_ms", run.latency * 1000.0)

    def _gather(self, pool, task, span, run, parent, tracer, metrics,
                started_at):
        """Wait for one task (in task order), enforcing its wall-clock
        deadline and hedging stragglers that opted in."""
        deadline_at = (None if task.deadline is None
                       else started_at + task.deadline)
        hedge = None
        if (task.hedge and self.hedge_after is not None
                and not run.future.done()):
            hedge = self._maybe_hedge(pool, task, run, parent, tracer,
                                      metrics, started_at, deadline_at)
        while True:
            winner = self._pick_winner(run, hedge)
            if winner is not None:
                break
            outstanding = [r.future for r in (run, hedge)
                           if r is not None and not r.future.done()]
            if not outstanding:
                # Every attempt finished and failed: report the
                # primary's error.
                winner = run
                break
            timeout = (None if deadline_at is None
                       else max(0.0, deadline_at - time.monotonic()))
            done, _pending = wait(outstanding, timeout=timeout,
                                  return_when=FIRST_COMPLETED)
            if (not done and deadline_at is not None
                    and time.monotonic() >= deadline_at):
                if metrics is not None:
                    metrics.counter("connector.pool.rejected").inc(
                        len(outstanding))
                if span is not None:
                    span.set("timed_out", True)
                self._observe_slo(task.name, None, ok=False)
                return MemberOutcome(
                    task.name,
                    error=DeadlineExceededError(
                        f"member {task.name!r}: no result within the "
                        f"{task.deadline}s wall-clock deadline",
                        member=task.name,
                    ),
                    timed_out=True,
                    hedged=hedge is not None,
                )
        loser = hedge if winner is run else run
        if hedge is not None and loser is not None:
            if metrics is not None:
                metrics.counter("connector.pool.rejected").inc()
        error = winner.future.exception()
        value = None if error is not None else winner.future.result()
        latency_ms = (winner.latency * 1000.0
                      if winner.latency is not None else None)
        self._observe_slo(task.name, None, ok=error is None,
                          latency_ms=latency_ms)
        return MemberOutcome(task.name, value=value, error=error,
                             latency=winner.latency,
                             hedged=hedge is not None)

    def _pick_winner(self, run, hedge):
        """The first *successful* finished attempt, preferring the
        primary; ``None`` while a success is still possible."""
        for candidate in (run, hedge):
            if candidate is None or not candidate.future.done():
                continue
            if candidate.future.exception() is None:
                return candidate
        return None

    def _maybe_hedge(self, pool, task, run, parent, tracer, metrics,
                     started_at, deadline_at):
        """Give a straggling idempotent read a second worker once
        ``hedge_after`` has elapsed (bounded by the task deadline).
        Returns the hedge's :class:`_Run`, or ``None`` when the primary
        finished inside the hedge window."""
        hedge_wait = max(0.0, started_at + self.hedge_after
                         - time.monotonic())
        if deadline_at is not None:
            hedge_wait = min(hedge_wait,
                             max(0.0, deadline_at - time.monotonic()))
        if hedge_wait:
            done, _pending = wait([run.future], timeout=hedge_wait)
            if done:
                return None
        if run.future.done():
            return None
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return None
        return self._hedge_submit(pool, task, parent, tracer, metrics)

    def _hedge_submit(self, pool, task, parent, tracer, metrics):
        span = None
        if tracer is not None:
            span = tracer.child_span(parent, "scatter-gather.hedge",
                                     member=task.name)
        requests = (metrics.active_requests()
                    if metrics is not None else ())
        if metrics is not None:
            metrics.counter("connector.pool.hedges").inc()
        return self._submit(pool, task, span, parent, tracer, metrics,
                            requests)

    # -- plumbing --------------------------------------------------------

    def _observe_latency(self, metrics, name, latency):
        if metrics is not None:
            metrics.histogram("connector.pool.latency",
                              member=name).observe(latency * 1000.0)

    def _observe_slo(self, name, latency, ok, latency_ms=None):
        """Report one member task outcome to the SLO tracker (latency
        in seconds, or pre-converted via ``latency_ms``)."""
        slo = getattr(self.obs, "slo", None) if self.obs is not None else None
        if slo is None:
            return
        if latency_ms is None and latency is not None:
            latency_ms = latency * 1000.0
        slo.record_member(name, latency_ms, ok=ok)

    def _ensure_pool(self, n_tasks):
        with self._lock:
            desired = (self.max_workers if self.max_workers is not None
                       else min(DEFAULT_WORKER_CAP, n_tasks))
            if self._pool is None or (self.max_workers is None
                                      and desired > self._pool_size):
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ThreadPoolExecutor(
                    max_workers=desired, thread_name_prefix="member-io",
                )
                self._pool_size = desired
            return self._pool

    def __repr__(self):
        return (f"MemberExecutor(parallel={self.parallel!r}, "
                f"max_workers={self.max_workers}, "
                f"hedge_after={self.hedge_after})")


class _NullContextManager:
    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_CONTEXT = _NullContextManager()
