"""Estimate caching for always-single-partition procedures (paper §6.3).

The paper observes that short single-partition transactions can spend a
large share of their total time inside Houdini (46.5% for AuctionMark's
``NewComment``) and notes that "Houdini can completely avoid this if it
caches the estimations for any non-abortable, always single-partition
transactions."  This module implements that cache — and since
:attr:`~repro.houdini.config.HoudiniConfig.enable_estimate_caching`
defaults to ``True``, it is the framework's **default operating mode**, not
an opt-in ablation.

A cached entry is keyed by the stored-procedure name and the partition
footprint that the parameter mappings resolve from the request's input
parameters.  Two requests of the same procedure whose parameters map to the
same single partition traverse exactly the same states in the Markov model,
so the expensive path walk can be reused; the cache only ever admits
estimates that are safe to reuse (single-partition, terminal, effectively
non-abortable — and, while the model is still learning, not
:attr:`support-limited
<repro.houdini.optimizations.OptimizationDecision.support_limited>`, since a
decision that could flip as observation counts grow must not be reused).

Invalidation contract
---------------------

Default-on caching must never change what Houdini decides, so entries are
invalidated on *every* event that could change a freshly-planned decision:

* each entry records the identity and :attr:`~repro.markov.model.MarkovModel.version`
  of the model it was derived from; a lookup whose model token no longer
  matches evicts the entry and counts as a miss (this covers run-time
  learning adding placeholder vertices or edges, probability recomputation,
  and partitioned providers routing the same (procedure, footprint) to a
  different cluster model);
* when model maintenance (§4.5) recomputes one procedure's probabilities,
  the facade calls :meth:`EstimateCache.invalidate_procedure` for exactly
  that procedure — a per-procedure eviction, not a global flush;
* each entry also records the request's full partition-binding signature:
  a single-partition footprint does not pin the walk for branchy models
  (TPC-C ``payment`` by name vs. by id share a footprint but execute
  different statements), so a lookup with a different signature misses and
  re-plans instead of replaying the wrong path.

``stats.invalidations`` counts *entries evicted* on every invalidation path
(full flush, per-procedure, stale-token) so the counter means one thing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..types import PartitionId, ProcedureRequest
from .config import HoudiniConfig
from .estimate import PathEstimate
from .optimizations import OptimizationDecision

#: Cache key: (procedure name, resolved partition footprint).
CacheKey = tuple[str, frozenset[PartitionId]]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    rejected: int = 0
    #: Entries evicted by any invalidation path (flush, per-procedure,
    #: stale model token).
    invalidations: int = 0
    #: Requests that could not even be keyed (multi-partition or unknown
    #: footprints).  Counted as lookups so the hit rate reflects how much of
    #: the *workload* the cache absorbs, not just the cacheable slice.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.uncacheable

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass
class CachedEstimate:
    """One reusable estimate plus the optimization decision derived from it."""

    estimate: PathEstimate
    decision: OptimizationDecision
    uses: int = 0
    #: ``(id(model), model.version)`` of the model the walk was derived
    #: from, or ``None`` when no model token was supplied at store time.
    model_token: tuple[int, int] | None = None
    #: The request's full partition-binding signature
    #: (:meth:`~repro.houdini.compiled.CompiledProcedure.binding_signature`).
    #: The footprint alone does not pin the walk for branchy models — e.g.
    #: TPC-C ``payment`` by customer name and by customer id share a
    #: footprint but execute different statements — so a lookup whose
    #: signature differs must re-plan.
    signature: tuple | None = None


class EstimateCache:
    """LRU cache of path estimates for cache-eligible procedures."""

    def __init__(self, config: HoudiniConfig | None = None, *, max_entries: int | None = None) -> None:
        self.config = config or HoudiniConfig()
        self.max_entries = max_entries or self.config.estimate_cache_max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, CachedEstimate] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(
        request: ProcedureRequest, footprint: frozenset[PartitionId] | None
    ) -> CacheKey | None:
        """Cache key for a request, or ``None`` when it cannot be cached.

        Only requests whose parameter mappings resolve to exactly one
        partition are cacheable: the footprint then fully determines which
        Markov-model states the transaction can reach, so the cached walk is
        guaranteed to match.
        """
        if footprint is None or len(footprint) != 1:
            return None
        return (request.procedure, frozenset(footprint))

    # ------------------------------------------------------------------
    def lookup(
        self,
        key: CacheKey | None,
        token: tuple[int, int] | None = None,
        signature: tuple | None = None,
    ) -> CachedEstimate | None:
        """Return the cached entry for ``key`` (LRU-refreshing it), if any.

        ``token`` is the caller's current model token; an entry stored under
        a different token is stale (the model changed, or a different
        cluster model now serves the procedure) and is evicted on the spot.
        ``signature`` is the request's partition-binding signature; an entry
        stored for a different signature stays (it is still valid for its
        own signature class) but cannot serve this request — the lookup is
        a miss and the fresh walk overwrites it.
        """
        if key is None:
            self.stats.uncacheable += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.model_token != token:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        if entry.signature != signature:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.uses += 1
        self.stats.hits += 1
        return entry

    def store(
        self,
        key: CacheKey | None,
        estimate: PathEstimate,
        decision: OptimizationDecision,
        token: tuple[int, int] | None = None,
        signature: tuple | None = None,
        *,
        support_may_grow: bool = False,
    ) -> bool:
        """Admit an estimate if it is safe to reuse; returns True if stored.

        ``support_may_grow`` says the model is still learning (observation
        counts keep rising without the model version moving); a
        support-limited decision is then rejected because more observations
        alone could flip it.  With learning off the counts are frozen, so
        such decisions are stable and reusable.
        """
        if key is None or not self._eligible(estimate, decision):
            self.stats.rejected += 1
            return False
        if support_may_grow and decision.support_limited:
            self.stats.rejected += 1
            return False
        self._entries[key] = CachedEstimate(
            estimate=estimate, decision=decision, model_token=token,
            signature=signature,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        self.stats.stores += 1
        return True

    def _eligible(self, estimate: PathEstimate, decision: OptimizationDecision) -> bool:
        """Only non-abortable, always-single-partition estimates are reusable."""
        if estimate.degenerate or not estimate.reached_terminal:
            return False
        if estimate.predicted_abort:
            return False
        if not decision.predicted_single_partition:
            return False
        if estimate.abort_probability > self.config.abort_tolerance:
            return False
        return True

    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every entry (e.g. when every model is recomputed).

        Returns the number of entries evicted; ``stats.invalidations``
        advances by the same amount.
        """
        evicted = len(self._entries)
        self.stats.invalidations += evicted
        self._entries.clear()
        return evicted

    def invalidate_procedure(self, procedure: str) -> int:
        """Drop entries for one procedure; returns how many were removed."""
        doomed = [key for key in self._entries if key[0] == procedure]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def describe(self) -> str:
        return (
            f"EstimateCache(entries={len(self)}, hits={self.stats.hits}, "
            f"misses={self.stats.misses}, uncacheable={self.stats.uncacheable}, "
            f"hit_rate={self.stats.hit_rate:.2%})"
        )
