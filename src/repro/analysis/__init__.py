"""AST-based invariant analyzer for the repro codebase.

``repro analyze`` enforces the contracts the byte-equivalence suites only
catch after the fact: determinism (no hidden clocks or entropy), the
Markov-model version-bump contract, cache-invalidation pairing, and
``to_dict``/``from_dict`` serialization parity.  See
:mod:`repro.analysis.contracts` for the registries the rules are
parameterized by and :mod:`repro.analysis.rules` for the rule
implementations.
"""

from .core import (
    AnalysisError,
    AnalysisReport,
    Finding,
    ModuleInfo,
    ProjectIndex,
    Rule,
    collect_files,
    load_baseline,
    run_analysis,
    save_baseline,
)
from .rules import RULE_CLASSES, all_rules, rules_by_id

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "RULE_CLASSES",
    "all_rules",
    "collect_files",
    "load_baseline",
    "rules_by_id",
    "run_analysis",
    "save_baseline",
]
