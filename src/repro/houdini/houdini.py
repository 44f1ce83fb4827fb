"""The Houdini facade (paper §4, Fig. 6).

``Houdini`` ties the pieces together: given the off-line artifacts (Markov
models behind a :class:`~repro.houdini.providers.ModelProvider`, parameter
mappings) it produces, for each incoming request, an execution plan plus a
run-time monitor, and afterwards feeds what actually happened back into model
maintenance and the per-procedure statistics that Table 4 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..catalog.schema import Catalog
from ..engine.engine import AttemptResult
from ..mapping.parameter_mapping import ParameterMappingSet
from ..txn.plan import ExecutionPlan
from ..types import ProcedureRequest
from .cache import EstimateCache
from .config import HoudiniConfig
from .estimate import PathEstimate
from .estimator import PathEstimator
from .maintenance import MaintenanceRegistry
from .optimizations import OptimizationDecision, OptimizationSelector
from .providers import ModelProvider
from .runtime import HoudiniRuntime
from .stats import HoudiniStats

#: Distinguishes "parameter not passed" from an explicit ``None`` (which is a
#: meaningful value for ``maintenance_window``: it disables the window).
_UNSET = object()


@dataclass(slots=True)
class HoudiniPlan:
    """Everything Houdini produced for one transaction attempt."""

    plan: ExecutionPlan
    runtime: HoudiniRuntime
    estimate: PathEstimate
    decision: OptimizationDecision


class Houdini:
    """On-line prediction framework wrapping estimator + selector + runtime."""

    def __init__(
        self,
        catalog: Catalog,
        provider: ModelProvider,
        mappings: ParameterMappingSet,
        config: HoudiniConfig | None = None,
        *,
        learning: bool = True,
    ) -> None:
        self.catalog = catalog
        self.provider = provider
        self.mappings = mappings
        self.config = config or HoudiniConfig()
        self.estimator = PathEstimator(catalog, provider, mappings, self.config)
        self.selector = OptimizationSelector(
            self.config,
            catalog.num_partitions,
            catalog.scheme.partitions_per_node,
        )
        self.maintenance = MaintenanceRegistry(self.config)
        #: Optional estimate cache for always-single-partition procedures
        #: (§6.3); ``None`` unless enabled in the configuration.
        self.estimate_cache: EstimateCache | None = (
            EstimateCache(self.config) if self.config.enable_estimate_caching else None
        )
        self.stats = HoudiniStats()
        #: Whether run-time execution paths update the models (§4.4/§4.5).
        #: The off-line accuracy evaluation (Table 3) turns this off.
        self.learning = learning
        self._maintenance_interval = 200
        self._since_maintenance = 0
        #: Optional self-tuning observer (``repro.selftune``): fed every
        #: attempt's transition path after maintenance has seen it, so drift
        #: detection and hot model swaps happen between transactions.
        self._selftune = None

    def set_selftune(self, observer) -> None:
        """Attach (or with ``None`` detach) the self-tuning observer."""
        self._selftune = observer

    # ------------------------------------------------------------------
    def estimate(self, request: ProcedureRequest) -> PathEstimate:
        """Produce (only) the initial path estimate for a request."""
        return self.estimator.estimate(request)

    def plan(self, request: ProcedureRequest) -> HoudiniPlan:
        """Produce the execution plan and run-time monitor for a request.

        The default operating mode is cached/compiled planning: the §6.3
        estimate cache is probed first (single-partition footprints), then
        the estimator's compiled whole-walk records (chain-shaped models);
        only requests neither layer can serve pay for a stepwise model walk
        plus optimization selection.  All three paths produce identical
        decisions and charge the identical modelled estimation cost, so
        simulated metrics do not depend on which one served a request.
        """
        started = time.perf_counter()
        estimator = self.estimator
        estimate_cache = self.estimate_cache
        config = self.config
        footprint, signature = estimator.footprint_and_signature(request)
        model = self.provider.model_for(request)
        token = (
            (id(model), model.version)
            if model is not None and model.processed
            else None
        )
        cache_key = None
        cached = None
        if estimate_cache is not None:
            cache_key = EstimateCache.key_for(request, footprint)
            if cache_key is not None and signature is None:
                # Nothing can vouch that an identical-footprint request
                # walks the same path: treat it as uncacheable.
                cache_key = None
            cached = estimate_cache.lookup(cache_key, token, signature)
        if cached is not None:
            # §6.3: reuse the path walk of an earlier identical-footprint
            # request; only a dictionary lookup is performed.
            estimate = cached.estimate
            decision = cached.decision
            if config.estimate_cache_simulated_savings:
                charged_ms = config.estimation_cache_hit_ms
            else:
                # Neutral charging: the reused walk is charged exactly what
                # computing it would have cost, so enabling the cache never
                # changes simulated metrics (only wall-clock time).
                charged_ms = config.estimation_cost_ms(
                    estimate.work_units, estimate.query_count
                )
            # The measured wall cost of this plan is the probe, not the
            # original walk.
            estimate.estimation_ms = (time.perf_counter() - started) * 1000.0
            source = "houdini:cached"
        else:
            record = (
                estimator.walk_record(request, model, signature)
                if signature is not None
                else None
            )
            if record is not None:
                # Compiled whole-walk fast path (chain-shaped model).
                estimate = record.estimate
                decision = record.decision
                if decision is None:
                    decision = self.selector.decide(
                        request, estimate, None if estimate.degenerate else model
                    )
                    if not (self.learning and decision.support_limited):
                        record.decision = decision
            else:
                estimate = estimator.estimate_fresh(request)
                decision = self.selector.decide(
                    request, estimate, None if estimate.degenerate else model
                )
            # The simulator charges a modelled (deterministic) estimation
            # cost; the measured wall-clock time stays on the estimate.
            charged_ms = config.estimation_cost_ms(
                estimate.work_units, estimate.query_count
            )
            source = "houdini"
            if estimate_cache is not None:
                estimate_cache.store(
                    cache_key, estimate, decision, token, signature,
                    support_may_grow=self.learning,
                )
        plan = decision.as_plan(charged_ms, source=source)
        runtime = HoudiniRuntime(
            None if estimate.degenerate else model,
            estimate,
            config,
            predicted_single_partition=decision.predicted_single_partition,
            undo_initially_disabled=decision.disable_undo,
            learn=self.learning,
            footprint=footprint,
        )
        self._record_plan_stats(request, estimate, decision)
        return HoudiniPlan(plan=plan, runtime=runtime, estimate=estimate, decision=decision)

    def plan_restart(
        self,
        request: ProcedureRequest,
        base_partition: int,
        *,
        attempt_number: int = 1,
        never_finish: frozenset[int] = frozenset(),
    ) -> HoudiniPlan:
        """Plan a conservative restart after a misprediction.

        Per the paper's evaluation, a mispredicted transaction is restarted
        as a multi-partition transaction that locks every partition with undo
        logging enabled.  Houdini still monitors the restarted attempt so
        that the early-prepare optimization (OP4) releases the partitions the
        transaction does not actually need — but restarts become
        progressively more conservative so the retry loop always converges:
        partitions in ``never_finish`` (they caused an early-prepare
        misprediction earlier in this transaction) are never released again,
        and when :attr:`HoudiniConfig.conservative_restarts` is set the
        early-prepare optimization is switched off entirely from the second
        restart onward.
        """
        estimate = self.estimator.estimate(request)
        model = None if estimate.degenerate else self.provider.model_for(request)
        charged_ms = self.config.estimation_cost_ms(
            estimate.work_units, estimate.query_count
        )
        plan = ExecutionPlan(
            base_partition=base_partition,
            locked_partitions=None,
            undo_logging=True,
            estimation_ms=charged_ms,
            source="houdini:restart",
        )
        allow_early_prepare = True
        if self.config.conservative_restarts and attempt_number >= 2:
            allow_early_prepare = False
        runtime = HoudiniRuntime(
            model,
            estimate,
            self.config,
            predicted_single_partition=False,
            undo_initially_disabled=False,
            learn=self.learning,
            footprint=self.estimator.predicted_footprint(request),
            allow_early_prepare=allow_early_prepare,
            never_finish=never_finish,
        )
        decision = OptimizationDecision(
            base_partition=base_partition,
            locked_partitions=self.catalog.scheme.all_partitions(),
            predicted_single_partition=False,
            disable_undo=False,
            abort_probability=estimate.abort_probability,
            confidence=estimate.confidence,
        )
        return HoudiniPlan(plan=plan, runtime=runtime, estimate=estimate, decision=decision)

    # ------------------------------------------------------------------
    def after_attempt(
        self,
        request: ProcedureRequest,
        houdini_plan: HoudiniPlan,
        attempt: AttemptResult,
    ) -> None:
        """Feed the attempt's outcome back into maintenance and statistics."""
        runtime = houdini_plan.runtime
        runtime.finish(attempt.committed)
        model = self.provider.model_for(request)
        if model is not None and self.learning:
            maintenance = self.maintenance.for_model(model)
            maintenance.record_transitions(runtime.stats.transitions)
            self._since_maintenance += 1
            if self._since_maintenance >= self._maintenance_interval:
                self._since_maintenance = 0
                recomputed = self.maintenance.check_all()
                if recomputed and self.estimate_cache is not None:
                    # Recomputed probabilities can change decisions, but only
                    # for the recomputed models: evict exactly those
                    # procedures' entries instead of flushing the cache.
                    for procedure in recomputed:
                        self.estimate_cache.invalidate_procedure(procedure)
            if self._selftune is not None:
                # After the maintenance block so the detector sees the
                # freshest accuracy signal.  The observer may swap the
                # procedure's model here — between transactions, which is
                # what makes the swap atomic.
                self._selftune.observe(
                    request.procedure, model, runtime.stats.transitions
                )
        self._record_outcome_stats(request, houdini_plan, attempt)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _record_plan_stats(
        self,
        request: ProcedureRequest,
        estimate: PathEstimate,
        decision: OptimizationDecision,
    ) -> None:
        stats = self.stats.for_procedure(request.procedure)
        stats.transactions += 1
        stats.estimates += 1
        stats.estimation_ms_total += estimate.estimation_ms
        if decision.op1_selected:
            stats.op1_enabled += 1
        if decision.op2_selected:
            stats.op2_enabled += 1
        if decision.disable_undo:
            stats.op3_enabled += 1

    def _record_outcome_stats(
        self,
        request: ProcedureRequest,
        houdini_plan: HoudiniPlan,
        attempt: AttemptResult,
    ) -> None:
        stats = self.stats.for_procedure(request.procedure)
        runtime_stats = houdini_plan.runtime.stats
        decision = houdini_plan.decision
        mispredicted = attempt.mispredicted_partition is not None
        if mispredicted:
            stats.mispredicted_restarts += 1
        if decision.op1_selected and not mispredicted:
            touched = attempt.touched_partitions.as_frozenset()
            if not touched or decision.base_partition in touched or attempt.committed:
                stats.op1_correct += 1
        if decision.op2_selected and not mispredicted:
            stats.op2_correct += 1
        if runtime_stats.undo_disabled_at_query is not None and attempt.committed:
            # Undo logging was switched off at run time (§4.4 OP3 update).
            stats.op3_enabled += 0 if decision.disable_undo else 1
        if runtime_stats.finished_partitions and not runtime_stats.finish_mispredicted:
            stats.op4_enabled += 1

    # ------------------------------------------------------------------
    def reconfigure(
        self,
        *,
        estimate_caching: bool | None = None,
        confidence_threshold: float | None = None,
        maintenance_window: int | None | object = _UNSET,
    ) -> None:
        """Apply live configuration changes, routing through the invalidation
        contracts.

        ``confidence_threshold`` changes drop every memoized decision — the
        compiled whole-walk records and the §6.3 estimate cache both store
        decisions that baked the old threshold in.  ``estimate_caching``
        toggles the §6.3 cache: enabling installs a fresh (empty) cache,
        disabling invalidates and removes it.  ``maintenance_window`` resizes
        the §4.5 sliding window; every tracked maintenance rebuilds its
        counters from the recent tail (``None`` disables the window).  Either
        way the next :meth:`plan` call operates entirely under the new
        configuration.
        """
        config = self.config
        if maintenance_window is not _UNSET:
            self.maintenance.set_window(maintenance_window)
        if confidence_threshold is not None:
            if not 0.0 <= confidence_threshold <= 1.0:
                raise ValueError("confidence_threshold must be within [0, 1]")
            config.confidence_threshold = confidence_threshold
            self.estimator.clear_walk_records()
            if self.estimate_cache is not None:
                self.estimate_cache.invalidate()
        if estimate_caching is not None:
            config.enable_estimate_caching = estimate_caching
            if estimate_caching and self.estimate_cache is None:
                self.estimate_cache = EstimateCache(config)
            elif not estimate_caching and self.estimate_cache is not None:
                self.estimate_cache.invalidate()
                self.estimate_cache = None

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"Houdini(threshold={self.config.confidence_threshold}, "
            f"models={len(list(self.provider.models()))}, "
            f"procedures={len(self.mappings)})"
        )
