"""Atomic hot model swap.

Installing a retrained model into a running session must route through the
existing invalidation contracts, and must touch **only** the swapped
procedure's state:

* the provider's model table is updated through
  :meth:`~repro.houdini.providers.GlobalModelProvider.install_model` (a
  single dict store — every later ``plan()`` sees either the old model or
  the new one, never a mix);
* the estimator's compiled-walk tables for the procedure are dropped
  (:meth:`~repro.houdini.estimator.PathEstimator.drop_walk_records`);
* the §6.3 estimate cache's entries for the procedure are invalidated
  (:meth:`~repro.houdini.cache.EstimateCache.invalidate_procedure`);
* maintenance stops tracking the retired model
  (:meth:`~repro.houdini.maintenance.MaintenanceRegistry.forget`);
* the retired model's ``version`` is bumped while we still hold it, so any
  ``(id(model), version)`` token captured against it can never validate
  again even if its ``id`` is recycled.

Nothing else is rekeyed: other procedures' cached walks and estimates stay
exactly where they are (the swap-isolation tests pin this down).

Sessions execute transactions one at a time in the event loop, so a swap
performed between two transactions (inside ``after_attempt``) is atomic by
construction.
"""

from __future__ import annotations

from ..markov.model import MarkovModel


class ModelSwapController:
    """Installs retrained models through the invalidation contracts."""

    def __init__(self, houdini) -> None:
        self.houdini = houdini
        self.swaps_performed = 0

    def swap(self, procedure: str, new_model: MarkovModel) -> MarkovModel | None:
        """Swap ``procedure``'s live model for ``new_model``; return the old.

        Evicts the swapped procedure's derived state only — see the module
        docstring for the exact contract.
        """
        houdini = self.houdini
        old_model = houdini.provider.install_model(procedure, new_model)
        houdini.estimator.drop_walk_records(procedure)
        if houdini.estimate_cache is not None:
            houdini.estimate_cache.invalidate_procedure(procedure)
        if old_model is not None:
            houdini.maintenance.forget(old_model)
            old_model.version += 1
        self.swaps_performed += 1
        return old_model
