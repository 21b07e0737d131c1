"""The package surface: `import chm` loads no submodule, and each public name
loads the submodule that defines it on first use.

PUBLIC is what `from chm import *` bound when the package imported every
submodule eagerly: the public names and the seven submodules they live in.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chm

PUBLIC = {
    "CensusRecord", "CensusResult", "CheckResult", "ChmError", "DEFAULT_EPS", "DEFAULT_TOL",
    "DimensionMismatchError", "DomainError", "EquivalenceWitness", "ExclusionReport", "FORBIDDEN_COUNTS",
    "FamilyPoint", "H2Structure", "InvalidMatrixError", "MuVerdict", "NonSquareError", "NotCHMError",
    "NotUnimodularError", "OMEGA_1", "OMEGA_2", "RealSubmatrixReport", "RegistryEntry", "RuleHit",
    "ScanConfig", "SearchTimeoutError", "SubmatrixLoc", "Tolerance", "UnknownNameError", "ZeroPivotError",
    "apply_witness", "are_equivalent", "as_matrix", "census_2x2", "count_real_entries", "dephase",
    "exclusion_report", "f_factor", "family_h", "find_3x3_sub_chms", "forbidden_count_check",
    "gram_residual", "grid_values", "h2_block_structure", "is_chm", "is_sub_chm_2x2", "json_dumps",
    "loads_matrix", "matrix_from_obj", "matrix_to_obj", "mu_pair", "named", "real_submatrices_3x2",
    "registry_entries", "registry_names", "run_scan", "scan_point", "write_scan",
    "census", "core", "equivalence", "errors", "families", "mub", "scan",
}

SUBMODULES = {"census", "cli", "core", "equivalence", "errors", "families", "mub", "scan"}

_FRESH_PACKAGE = """
import json, sys, types
import chm
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "chm")
listed = dir(chm)
modules = sorted(name for name in json.loads(sys.argv[1]) if isinstance(getattr(chm, name), types.ModuleType))
star = {}
exec("from chm import *", star)
print(json.dumps({"loaded": loaded, "listed": listed, "modules": modules,
                  "star": sorted(set(star) - {"__builtins__"})}))
"""


def test_import_chm_loads_no_submodule_and_every_public_name_resolves():
    # In a fresh process: a bare `import chm` loads chm alone, dir() lists every
    # public name and submodule, each of them resolves (cli too), and `from chm
    # import *` binds exactly PUBLIC.
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PACKAGE, json.dumps(sorted(PUBLIC | SUBMODULES))],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(chm.__file__).resolve().parent.parent)},
    )
    report = json.loads(out.stdout)
    assert report["loaded"] == ["chm"]
    assert PUBLIC | SUBMODULES <= set(report["listed"])
    assert report["modules"] == sorted(SUBMODULES)
    assert report["star"] == sorted(PUBLIC)


def test_public_names_are_listed_once_and_unknown_names_raise():
    assert sorted(chm.__all__) == sorted(PUBLIC)
    with pytest.raises(AttributeError, match="module 'chm' has no attribute 'nope'"):
        chm.nope


def test_every_public_dataclass_has_its_own_docstring():
    # Without one, creating the class builds a docstring from inspect.signature,
    # ~0.5 ms of every import that loads its module.
    classes = [value for value in (getattr(chm, name) for name in chm.__all__)
               if isinstance(value, type) and dataclasses.is_dataclass(value)]
    assert len(classes) == 13
    assert [cls.__name__ for cls in classes if cls.__doc__.startswith(f"{cls.__name__}(")] == []
