"""The repo's enforced invariants, as data.

Every rule in :mod:`repro.analysis.rules` is parameterized by one of the
registries below instead of hard-coding class or attribute names, so
extending a contract to a new subsystem is a one-line edit here — the rule
machinery never changes.  The registries are the written-down form of the
contracts that previously lived only in docstrings and reviewers' heads:

* the determinism contract (all randomness and clocks route through
  :class:`~repro.workload.rng.WorkloadRandom` / seeded generators; the
  byte-equivalence suites rely on it);
* the prediction-version contract (mutating a Markov model's structure
  must advance :attr:`~repro.markov.model.MarkovModel.version`, the token
  the §6.3 estimate cache and compiled walks validate against);
* the cache-invalidation contract (derived caches are cleared through
  their named contract methods, never by reaching into private dicts);
* the serialization contract (``to_dict`` output round-trips through
  ``from_dict``).
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
#: Fully-resolved call targets that introduce nondeterminism.  Calls are
#: resolved through import aliases (``from time import time`` is caught).
#: ``time.perf_counter`` is deliberately absent: it measures *wall-clock
#: cost of the planner itself* (``estimation_ms``), which is a measured
#: quantity, not a simulated decision input.
BANNED_CALLS: dict[str, str] = {
    "time.time": "wall-clock time; simulated time comes from the event loop",
    "time.time_ns": "wall-clock time; simulated time comes from the event loop",
    "time.monotonic": "host clock; simulated time comes from the event loop",
    "time.monotonic_ns": "host clock; simulated time comes from the event loop",
    "datetime.datetime.now": "wall-clock date; derive timestamps from the run seed",
    "datetime.datetime.utcnow": "wall-clock date; derive timestamps from the run seed",
    "datetime.datetime.today": "wall-clock date; derive timestamps from the run seed",
    "datetime.date.today": "wall-clock date; derive timestamps from the run seed",
    "os.urandom": "OS entropy; route randomness through WorkloadRandom",
    "os.getrandom": "OS entropy; route randomness through WorkloadRandom",
    "uuid.uuid1": "host/time-derived id; derive ids from seeded counters",
    "uuid.uuid4": "OS entropy; derive ids from seeded counters",
}

#: Modules whose *module-level* functions draw from hidden global state.
#: Instantiating a seeded generator from them (``random.Random(seed)``,
#: ``numpy.random.default_rng(seed)``) is the sanctioned pattern and stays
#: allowed; calling the module-level singletons is banned.
BANNED_MODULE_RANDOM: dict[str, frozenset[str]] = {
    # module -> constructor names that remain allowed
    "random": frozenset({"Random"}),
    "numpy.random": frozenset({"default_rng", "Generator", "RandomState", "MT19937"}),
    "secrets": frozenset(),
}

# ----------------------------------------------------------------------
# version-bump
# ----------------------------------------------------------------------
#: Classes whose structural mutations must advance a version counter.
#: ``tracked`` names the attributes holding prediction-relevant structure;
#: any method that mutates one of them (directly, through a local alias,
#: or via a mutating dict/set method call) must — itself or through
#: another method it calls — assign/augment the ``version`` attribute.
VERSIONED_CLASSES: dict[str, dict] = {
    "MarkovModel": {
        "tracked": frozenset({"_vertices", "_edges", "_reverse"}),
        "version": "version",
        "hint": "bump self.version (or delegate to _add_vertex/_add_edge_visit)",
    },
}

#: Attribute-name suffix of cache-feeding cost constants: assigning one on
#: a live instance must go through the class's ``__setattr__`` clearing
#: path (``CostModel.__setattr__`` drops the schedule cache), so bypasses
#: — ``object.__setattr__(obj, "..._ms", v)`` or ``obj.__dict__[...]`` —
#: are violations everywhere except inside a ``__setattr__`` definition.
CACHE_FEEDING_SUFFIX = "_ms"

# ----------------------------------------------------------------------
# cache-poke
# ----------------------------------------------------------------------
#: Private cache containers and their owning class.  Touching one of these
#: attributes in code that is not inside the owner class is a violation;
#: the message names the contract method(s) to use instead.
PROTECTED_CACHES: dict[str, tuple[str, str]] = {
    # attribute -> (owner class, contract methods to use instead)
    "_entries": ("EstimateCache", "lookup()/store()/invalidate()/invalidate_procedure()"),
    "_schedule_cache": ("CostModel", "assign the *_ms field or call clear_schedule_cache()"),
    "_walk_tables": ("PathEstimator", "walk_record()/clear_walk_records()/drop_walk_records()"),
    # Self-tuning (hot model swap) contract surfaces: the provider's model
    # table only changes through install_model() — the atomic swap point —
    # and the detector/manager state only moves through their observe loop.
    "_models": ("GlobalModelProvider", "model_for()/models()/model_for_procedure()/install_model()"),
    "_windows": ("DriftDetector", "observe()/score()/check()/reset()"),
    "_states": ("SelfTuneManager", "observe()/snapshot()"),
    # Multi-tenancy contract surfaces: queues and virtual clocks only move
    # through the scheduler's push/pop/rekey/adopt surface, quota slots
    # through would_admit()/admit()/release_if_admitted(), SLO counters
    # through record(), and the in-flight work heap through
    # note_dispatch()/inflight_remaining_ms().
    "_tenant_queues": ("TenantScheduler", "submit()/pop()/requeue()/rekey()/adopt_from()/set_tenancy()"),
    "_tenant_vtime": ("TenantScheduler", "note_dispatched()/fairness_snapshot()"),
    "_quota_held": ("TenantQuotaController", "would_admit()/admit()/release_if_admitted()"),
    "_slo_counts": ("SLOTracker", "record()/set_config()/snapshot()"),
    "_work_ends": ("TenancyManager", "note_dispatch()/seed_inflight()/inflight_remaining_ms()"),
    "_sorted_successors": ("MarkovModel", "successors()/process(); mutate via record_transition(s)"),
    "_successor_records": ("MarkovModel", "successor_records()/process()"),
    "_successor_hints": ("MarkovModel", "successor_hint()/process()"),
    "_successor_index": ("MarkovModel", "probe_successor()/process()"),
    "_successor_groups": ("MarkovModel", "successor_groups()/process()"),
}

# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
#: ``to_dict`` keys that are derived/recomputed on load by convention and
#: therefore not required to appear in ``from_dict``: ``derived`` blocks
#: are rebuilt from counters, ``version``/``summary`` are format stamps
#: and rollups regenerated on the next dump.
RECOMPUTED_KEYS: frozenset[str] = frozenset({"derived", "version", "summary"})
