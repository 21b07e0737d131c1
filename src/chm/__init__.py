"""Structure checks and censuses for 6x6 complex Hadamard matrices."""

from .census import (
    FORBIDDEN_COUNTS,
    CensusResult,
    H2Structure,
    SubmatrixLoc,
    census_2x2,
    find_3x3_sub_chms,
    forbidden_count_check,
    h2_block_structure,
    is_sub_chm_2x2,
)
from .core import (
    DEFAULT_EPS,
    DEFAULT_TOL,
    CheckResult,
    Tolerance,
    as_matrix,
    gram_residual,
    is_chm,
    json_dumps,
    loads_matrix,
    matrix_from_obj,
    matrix_to_obj,
)
from .equivalence import (
    EquivalenceWitness,
    RealSubmatrixReport,
    apply_witness,
    are_equivalent,
    count_real_entries,
    dephase,
    real_submatrices_3x2,
)
from .errors import (
    ChmError,
    DimensionMismatchError,
    DomainError,
    InvalidMatrixError,
    NonSquareError,
    NotCHMError,
    NotUnimodularError,
    OracleDisagreementError,
    SearchTimeoutError,
    UnknownNameError,
    ZeroPivotError,
)
from .families import (
    OMEGA_1,
    OMEGA_2,
    FamilyPoint,
    RegistryEntry,
    f_factor,
    family_h,
    named,
    registry_entries,
    registry_names,
)
from .mub import ExclusionReport, MuVerdict, RuleHit, exclusion_report, mu_pair
from .scan import CensusRecord, ScanConfig, grid_values, run_scan, scan_point

__version__ = "0.1.0"
