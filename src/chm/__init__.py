"""Structure checks and censuses for 6x6 complex Hadamard matrices.

`import chm` loads no submodule: a public name loads the submodule that
defines it when it is first used (PEP 562), so a command imports only what
it runs.
"""

import importlib

# The public names, by the submodule that defines them. `from chm import *`
# binds these names and the submodules themselves.
_EXPORTS = {
    "census": ("FORBIDDEN_COUNTS", "CensusResult", "H2Structure", "SubmatrixLoc", "census_2x2",
               "find_3x3_sub_chms", "forbidden_count_check", "h2_block_structure", "is_sub_chm_2x2"),
    "core": ("DEFAULT_EPS", "DEFAULT_TOL", "CheckResult", "Tolerance", "as_matrix", "gram_residual",
             "is_chm", "json_dumps", "loads_matrix", "matrix_from_obj", "matrix_to_obj"),
    "equivalence": ("EquivalenceWitness", "RealSubmatrixReport", "apply_witness", "are_equivalent",
                    "count_real_entries", "dephase", "real_submatrices_3x2"),
    "errors": ("ChmError", "DimensionMismatchError", "DomainError", "InvalidMatrixError", "NonSquareError",
               "NotCHMError", "NotUnimodularError", "SearchTimeoutError", "UnknownNameError", "ZeroPivotError"),
    "families": ("OMEGA_1", "OMEGA_2", "FamilyPoint", "RegistryEntry", "f_factor", "family_h", "named",
                 "registry_entries", "registry_names"),
    "mub": ("ExclusionReport", "MuVerdict", "RuleHit", "exclusion_report", "mu_pair"),
    "scan": ("CensusRecord", "ScanConfig", "grid_values", "run_scan", "scan_point", "write_scan"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*_ORIGIN, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
