"""Staged construction of level structures with a finite-stage dimension
comparator and dividing experiments.

The pieces: formulas and schedules (formula), structures with level
predicates (structures), quantifier-free and capped evaluation (evaluator),
theory plugins with extension oracles (theory), the stage builder
(construction), count trends and the comparator (dimension), dividing
certificates and the drop survey (dividing), SVG plots (plots), and the
command line (cli)."""

import importlib

# every public name, under the module that defines it. A module is imported
# on the first access to one of its names (PEP 562), so `import levelsat`
# and `import levelsat.cli` load only what a command goes on to use.
_NAMES = {
    "construction": "ConstructionError InternalFaultError StageChain build_chain build_m0 "
    "check_level_freeze embed_model load_chain serialize_chain strongly_satisfies "
    "verify_axioms_on_levels",
    "dimension": "BOUNDED DIVERGES_NEG DIVERGES_POS INCONCLUSIVE DimCompareResult DimTrend "
    "dim_compare export_trend_csv mu product_set quasi_axiom_report read_trend_csv trend",
    "dividing": "CoveringReport DividesWitness DropReport certify_dividing covering_bound "
    "covering_check find_dimension_drop",
    "evaluator": "DefinableSet count diag_key evaluate qf_type_equal solutions",
    "formula": "OMEGA Formula LevelOrdinal ParseError ScheduleEntry Signature "
    "enumerate_schedule fin omega_plus parse parse_level render seeded_schedule",
    "structures": "ExtensionDelta FinStructure StructureError apply_delta",
    "theory": "PLUGINS OracleError TheoryPlugin get_plugin",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
