"""Outside-in layer tracing: wrappers installed on the program's public functions.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces each
function named by :func:`layers` on its class (or module) with a wrapper that
records into the tracer, and puts the originals back on :meth:`Tracer.remove`.
Wrappers must be installed before ``Cluster.open``: the simulator binds
``coordinator.execute_transaction`` when it is built, and ``_run_fast`` binds
``scheduler.pop`` and ``generator.next_request`` when it starts.

Three kinds of wrapper keep the cost of tracing proportionate to the call:

* ``SPAN`` records one span per call: layer, start, end, parent span.
* ``SAMPLED`` (the hot, tiny calls: scheduler ``submit/pop/requeue``,
  ``next_request``) counts every call and records a span for one call in
  :data:`SAMPLE_EVERY`, weighted to stand for the calls it skipped.  Timing
  every ``pop``/``requeue`` of the tenant workload (~700,000 calls a session)
  would cost more than the work it measures.
* ``TALLY`` only counts calls, and the calls its ``hit`` test picks
  (undo-log writes retained, estimate-cache lookups served).

A layer's self time is its spans' time minus the time of the wrapped child
spans inside them.  Spans stay in memory until :meth:`Tracer.report`.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro import session
from repro.engine.engine import ExecutionEngine
from repro.engine.executor import StatementExecutor
from repro.houdini.cache import EstimateCache
from repro.houdini.estimator import PathEstimator
from repro.houdini.houdini import Houdini
from repro.houdini.optimizations import OptimizationSelector
from repro.houdini.runtime import HoudiniRuntime
from repro.scheduling.scheduler import TransactionScheduler
from repro.sim.cost_model import CostModel
from repro.sim.simulator import ClusterSimulator
from repro.storage.undo_log import UndoLog
from repro.tenancy.manager import TenancyManager
from repro.tenancy.scheduler import TenantScheduler
from repro.txn.coordinator import TransactionCoordinator
from repro.workload.generator import WorkloadGenerator

SPAN, SAMPLED, TALLY = "span", "sampled", "tally"

#: One ``SAMPLED`` call in this many is timed.
SAMPLE_EVERY = 32


def _generators() -> list:
    """Every loaded workload generator class that defines ``next_request``."""
    import repro.benchmarks  # noqa: F401  (registers every benchmark's generator)

    found, todo = [], [WorkloadGenerator]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not WorkloadGenerator and "next_request" in cls.__dict__:
            found.append(cls)
    if not found:
        raise RuntimeError("no WorkloadGenerator subclass defines next_request")
    return found


def _not_none(args, result) -> bool:
    return result is not None


def _log_enabled(args, result) -> bool:
    return args[0].enabled


def layers() -> list[tuple]:
    """``(layer, kind, [(owner, attribute), ...], hit)`` for every traced layer.

    Layer names are module names; setup layers wrap module functions of
    :mod:`repro.session`, the rest wrap methods.  ``hit(args, result)``, on
    ``TALLY`` layers, picks the calls counted as hits.
    """
    undo_writes = ("record", "record_insert", "record_update", "record_delete")
    return [
        ("workload.next_request", SAMPLED, [(g, "next_request") for g in _generators()], None),
        ("houdini.plan", SPAN, [(Houdini, "plan")], None),
        ("houdini.plan_restart", SPAN, [(Houdini, "plan_restart")], None),
        ("houdini.estimate_fresh", SPAN, [(PathEstimator, "estimate_fresh")], None),
        ("houdini.walk_record", SPAN, [(PathEstimator, "walk_record")], None),
        ("houdini.estimate_cache", TALLY, [(EstimateCache, "lookup")], _not_none),
        ("houdini.decide", SPAN, [(OptimizationSelector, "decide")], None),
        ("runtime.monitor", SPAN, [(HoudiniRuntime, "__call__")], None),
        ("runtime.finish", SPAN, [(HoudiniRuntime, "finish")], None),
        ("txn.execute", SPAN, [(TransactionCoordinator, "execute_transaction")], None),
        ("engine.execute_attempt", SPAN, [(ExecutionEngine, "execute_attempt")], None),
        ("engine.statement", SPAN, [(StatementExecutor, "execute")], None),
        # An undo write is retained while the log is enabled and skipped
        # (OP3) once it is disabled.
        ("storage.undo.write", TALLY, [(UndoLog, m) for m in undo_writes], _log_enabled),
        ("storage.undo.note_skipped", TALLY, [(UndoLog, "note_skipped")], None),
        ("storage.undo.rollback", TALLY, [(UndoLog, "rollback")], None),
        ("cost_model", SPAN,
         [(CostModel, "attempt_timing"), (CostModel, "attempt_timings")], None),
        ("scheduling.submit", SAMPLED, [(TransactionScheduler, "submit")], None),
        ("scheduling.pop", SAMPLED,
         [(TransactionScheduler, "pop"), (TenantScheduler, "pop")], None),
        ("scheduling.requeue", SAMPLED,
         [(TransactionScheduler, "requeue"), (TenantScheduler, "requeue")], None),
        ("tenancy.should_shed", SPAN, [(TenancyManager, "should_shed")], None),
        ("sim.loop", SPAN, [(ClusterSimulator, "run_until")], None),
        ("metrics.snapshot", SPAN, [(ClusterSimulator, "snapshot")], None),
        ("setup.build_benchmark", SPAN, [(session, "build_benchmark")], None),
        ("setup.record_trace", SPAN, [(session, "record_trace")], None),
        ("setup.build_models", SPAN, [(session, "build_models_from_trace")], None),
        ("setup.build_mappings", SPAN, [(session, "build_parameter_mappings")], None),
        ("setup.build_houdini", SPAN, [(session, "build_houdini")], None),
        ("setup.open", SPAN, [(session.Cluster, "open")], None),
    ]


class Tracer:
    """Spans and counts for one traced phase, gathered by installed wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.hits: list[int] = []
        #: ``(layer, start, end, parent span index or -1, weight)``.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        table = layers()
        wrapped = [(owner, attribute) for _n, _k, targets, _h in table
                   for owner, attribute in targets]
        for name, kind, targets, hit in table:
            layer = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.hits.append(0)
            for owner, attribute in targets:
                if attribute not in vars(owner):
                    raise RuntimeError(
                        f"layer {name}: {getattr(owner, '__name__', owner)} no longer "
                        f"defines {attribute!r}; update perfbench/tracer.py"
                    )
                raw = vars(owner)[attribute]
                is_static = isinstance(raw, staticmethod)
                function = raw.__func__ if is_static else raw
                # A subclass override calling ``super()`` reaches the base
                # class's wrapper too; only the most-derived wrapper records.
                overridden = isinstance(owner, type) and any(
                    other is not owner and isinstance(other, type)
                    and issubclass(other, owner) and other_attribute == attribute
                    for other, other_attribute in wrapped
                )
                wrapper = self._wrap(layer, kind, function,
                                     attribute if overridden else None, hit)
                setattr(owner, attribute, staticmethod(wrapper) if is_static else wrapper)
                self._installed.append((owner, attribute, raw))

    def remove(self) -> None:
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay installed)."""
        self.calls[:] = [0] * len(self.calls)
        self.hits[:] = [0] * len(self.hits)
        self.spans.clear()
        self._stack.clear()

    # ------------------------------------------------------------------
    def _wrap(self, layer: int, kind: str, function, overridden: str | None, hit):
        """Wrap ``function``; ``overridden`` names the attribute when a wrapped
        subclass overrides it, so calls through ``super()`` pass straight on."""
        calls, hits, spans, stack = self.calls, self.hits, self.spans, self._stack
        clock = time.perf_counter

        def sampled_span(args, kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, stack[-1] if stack else -1, SAMPLE_EVERY)

        if kind == SPAN:
            def wrapper(*args, **kwargs):
                if overridden and getattr(type(args[0]), overridden) is not wrapper:
                    return function(*args, **kwargs)
                calls[layer] += 1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (layer, start, end, stack[-1] if stack else -1, 1)
        elif kind == SAMPLED:
            def wrapper(*args, **kwargs):
                if overridden and getattr(type(args[0]), overridden) is not wrapper:
                    return function(*args, **kwargs)
                calls[layer] += 1
                if calls[layer] % SAMPLE_EVERY:
                    return function(*args, **kwargs)
                return sampled_span(args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                if overridden and getattr(type(args[0]), overridden) is not wrapper:
                    return function(*args, **kwargs)
                calls[layer] += 1
                result = function(*args, **kwargs)
                if hit is not None and hit(args, result):
                    hits[layer] += 1
                return result

        return wrapper

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Per-layer calls, hits, self seconds and span durations.

        A sampled span stands for ``weight`` calls: its self time counts
        ``weight`` times and it covers ``weight`` times its duration of its
        parent.  ``covered_s`` is the time inside top-level spans.
        """
        spans = self.spans
        if any(entry is None for entry in spans):
            raise RuntimeError("report() called while a traced call is still open")
        cover = [0.0] * len(spans)
        covered = 0.0
        for layer, start, end, parent, weight in spans:
            if parent >= 0:
                cover[parent] += (end - start) * weight
            else:
                covered += (end - start) * weight
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for index, (layer, start, end, _parent, weight) in enumerate(spans):
            name = self.names[layer]
            self_s[name] += (end - start - cover[index]) * weight
            if weight == 1:
                durations[name].append(end - start)
        return {
            "calls": dict(zip(self.names, self.calls)),
            "hits": dict(zip(self.names, self.hits)),
            "self_s": {name: self_s.get(name, 0.0) for name in self.names},
            "durations": {name: durations.get(name, []) for name in self.names},
            "covered_s": covered,
        }
