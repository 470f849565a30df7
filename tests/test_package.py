"""The package's public names: one table, each name resolved on first use."""

import importlib
import subprocess
import sys

import pytest

import levelsat

# the 58 names `levelsat` exports, under the module that defines each
DEFINED_IN = {
    "construction": (
        "ConstructionError", "InternalFaultError", "StageChain", "build_chain", "build_m0",
        "check_level_freeze", "embed_model", "load_chain", "serialize_chain",
        "strongly_satisfies", "verify_axioms_on_levels",
    ),
    "dimension": (
        "BOUNDED", "DIVERGES_NEG", "DIVERGES_POS", "INCONCLUSIVE", "DimCompareResult",
        "DimTrend", "dim_compare", "export_trend_csv", "mu", "product_set",
        "quasi_axiom_report", "read_trend_csv", "trend",
    ),
    "dividing": (
        "CoveringReport", "DividesWitness", "DropReport", "certify_dividing",
        "covering_bound", "covering_check", "find_dimension_drop",
    ),
    "evaluator": ("DefinableSet", "count", "diag_key", "evaluate", "qf_type_equal", "solutions"),
    "formula": (
        "OMEGA", "Formula", "LevelOrdinal", "ParseError", "ScheduleEntry", "Signature",
        "enumerate_schedule", "fin", "omega_plus", "parse", "parse_level", "render",
        "seeded_schedule",
    ),
    "structures": ("ExtensionDelta", "FinStructure", "StructureError", "apply_delta"),
    "theory": ("PLUGINS", "OracleError", "TheoryPlugin", "get_plugin"),
}
NAMES = [(module, name) for module, names in DEFINED_IN.items() for name in names]


def test_all_keeps_the_same_names():
    assert len(NAMES) == 58
    assert sorted(levelsat.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_definition(module, name):
    namespace = {}
    exec(f"from levelsat import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"levelsat.{module}"), name)
    assert name in dir(levelsat)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from levelsat import *", namespace)
    assert set(levelsat.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        levelsat.no_such_name  # noqa: B018
    assert not hasattr(levelsat, "no_such_name")


def test_import_levelsat_loads_no_submodule():
    """A fresh `import levelsat` compiles none of the modules: each waits
    for the first access to one of its names."""
    probe = (
        "import sys, levelsat; "
        "print(sorted(m for m in sys.modules if m.startswith('levelsat.')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
