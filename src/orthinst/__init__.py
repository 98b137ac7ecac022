"""orthinst: exact verification of skew tensor forms and their monads.

Construct candidate forms from integer skew block data, flatten them to
exact-rational symmetric matrices, verify the defining conditions, build the
associated monad, decide splitting type on lines through the c x c pencil,
compute cohomology tables, and evaluate moduli dimensions.  All arithmetic
is exact; every randomized operation is seeded and reproducible.
"""

from .cohomology import (
    CohomEntry,
    CohomTable,
    InstantonReport,
    bott_h,
    chi_line_bundle,
    h_table,
    monomials,
    verify_instanton,
)
from .errors import (
    BadSubset,
    DegenerateLine,
    GenerationExhausted,
    HypothesisViolation,
    NonSquare,
    NotSkew,
    NotSymmetric,
    OddOrder,
    OrthinstError,
    PreconditionN,
    RankMismatch,
    SchemaError,
    ShapeMismatch,
    Singular,
    UsageError,
)
from .forms import FlatForm, TensorSpec, act, flatten, wedge_membership
from .kronecker import (
    LineWitness,
    ScanReport,
    SplitVerdict,
    gamma_eval,
    kronecker_conditions,
    line_span_ok,
    pencil_verdict,
    scan_lines,
    splitting_type,
)
from .linalg import (
    RatMatrix,
    det,
    kernel_basis,
    pfaffian,
    principal_rank_subset,
    rank,
)
from .moduli import ModuliInfo, OrbitProbeReport, moduli_dim, orbit_probe, random_unimodular
from .monad import (
    A2Status,
    ConditionReport,
    LinFormMatrix,
    build_alpha,
    build_beta,
    check_conditions,
    nondegeneracy_witness_search,
    verify_monad_identity,
)
from .specfile import SpecFile, bundled_spec_path, generate, load_bundled, parse_spec, serialize_spec

__version__ = "0.1.0"
