"""Per-layer tracing for the benchmark's traced run.

The program's own spans are not used: the benchmark wraps each layer's
entry point at the name its callers look it up by (a module global or a
class attribute), records one span per call, and restores the original
on exit. A span is ``[layer, parent, request, worker, start, end]``:
``parent`` is the enclosing span on the same thread (span stacks are
thread-local, because connector applies run on executor worker
threads), ``request`` the id of the client operation that caused it,
and ``worker`` whether it ran off the client thread. Spans stay in
memory until :meth:`SpanRecorder.dump` writes them out.

Self time is a span's duration minus its children's. On the client
thread the spans nest, so the self times of every layer plus the
``client`` remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict

import repro.core.engine as engine_module
import repro.core.fixpoint as fixpoint_module
import repro.multidb.federation as federation_module
from repro.analysis.effects import EffectAnalysis
from repro.core.engine import IdlEngine
from repro.core.update_programs import UpdateExecutor
from repro.multidb import Federation
from repro.multidb.executor import MemberExecutor
from repro.multidb.journal import UpdateJournal
from repro.objects.universe import Universe

CLIENT = "client"


def _count_answers(counts, args, result):
    counts["answers"] += len(result)


def _count_derivations(counts, args, result):
    counts["derivations"] += result[1].derivations


def _count_repairs(counts, args, result):
    counts["repaired_strata"] += 1


def _count_staged_rows(counts, args, result):
    counts["rows_staged"] += sum(len(rows) for rows in result.values())


def _count_tasks(counts, args, result):
    counts["tasks"] += len(args[1])


#: ``(owner, attribute, layer, counter)`` for every wrapped entry point.
ENTRY_POINTS = (
    (engine_module, "parse_program", "parser", None),
    (engine_module, "answers", "evaluator", _count_answers),
    (IdlEngine, "effect_analysis", "analysis", None),
    (EffectAnalysis, "query_footprint", "analysis", None),
    (EffectAnalysis, "request_footprint", "analysis", None),
    (EffectAnalysis, "program_footprint", "analysis", None),
    (fixpoint_module, "materialize_strata", "fixpoint.materialize",
     _count_derivations),
    (fixpoint_module, "maintain_stratum", "fixpoint.maintain",
     _count_repairs),
    (UpdateExecutor, "execute_request", "updates", None),
    (Universe, "snapshot", "objects.snapshot", None),
    (federation_module, "universe_rows", "flush.stage", _count_staged_rows),
    (MemberExecutor, "map", "executor", _count_tasks),
    (UpdateJournal, "begin", "journal", None),
    (UpdateJournal, "record_member", "journal", None),
    (UpdateJournal, "commit", "journal", None),
    (Federation, "query", "federation", None),
    (Federation, "call", "federation", None),
    (Federation, "update", "federation", None),
)


class SpanRecorder:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self, connector_types=()):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._client = threading.get_ident()
        self._local = threading.local()
        self._originals = []
        self._entry_points = list(ENTRY_POINTS)
        for connector_type in connector_types:
            self._entry_points.append(
                (connector_type, "apply", "connector.apply", None))
            self._entry_points.append(
                (connector_type, "scan", "connector.scan", None))

    # -- installing the wrappers -------------------------------------

    def install(self):
        for owner, attribute, layer, counter in self._entry_points:
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original, counter))

    def uninstall(self):
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, function, counter):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            result, _span = self._record(layer, function, args, kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def _record(self, layer, function, args, kwargs):
        stack = self._stack()
        span = [layer, stack[-1] if stack else None, self.request,
                threading.get_ident() != self._client, 0.0, 0.0]
        stack.append(span)
        span[4] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        return result, span

    # -- client operations ----------------------------------------------

    def run_op(self, request, call):
        """Run one client operation under a ``client`` root span."""
        self.request = request
        return self._record(CLIENT, call, (), {})[0]

    # -- results -----------------------------------------------------------

    def breakdown(self, scale):
        """Self seconds and call counts per layer.

        Returns ``(client_self, worker_self, worker_busy, calls, wall)``:
        self time by layer on the client thread and on worker threads,
        the summed duration of the spans that opened a worker thread's
        stack (its busy time), span counts by layer (``client`` spans
        are the operations), and the summed duration of the ``client``
        roots. Every span of one operation is multiplied by
        ``scale(start of the operation)``, so the scaled self times
        still add up to the scaled wall time.
        """
        children = defaultdict(float)
        factors = {}
        for span in self.spans:
            if span[1] is not None:
                children[id(span[1])] += span[5] - span[4]
            if span[0] == CLIENT:
                factors[span[2]] = scale(span[4])
        client_self = defaultdict(float)
        worker_self = defaultdict(float)
        worker_busy = 0.0
        calls = Counter()
        wall = 0.0
        for span in self.spans:
            factor = factors.get(span[2]) or scale(span[4])
            duration = (span[5] - span[4]) * factor
            own = duration - children.get(id(span), 0.0) * factor
            (worker_self if span[3] else client_self)[span[0]] += own
            calls[span[0]] += 1
            if span[0] == CLIENT:
                wall += duration
            elif span[3] and span[1] is None:
                worker_busy += duration
        return client_self, worker_self, worker_busy, calls, wall

    def dump(self, path):
        """Write every span as one JSON line (parents by index)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                parent = index.get(id(span[1])) if span[1] is not None else None
                out.write(json.dumps({
                    "layer": span[0], "parent": parent, "request": span[2],
                    "worker": span[3], "start": span[4], "end": span[5],
                }) + "\n")


def count_spans(span):
    """Spans in one program trace tree (``result.trace``)."""
    if span is None:
        return 0
    return 1 + sum(count_spans(child) for child in span.children)
