"""pdtls: symmetric positive definite solutions of overdetermined linear
systems D X ~= T under an errors-in-variables model, with direct solvers
for full-rank and rank-deficient data, a consistent-problem generator, and
a Dolan-More benchmarking harness."""

from .bench import (
    PerformanceProfile,
    RunRecord,
    baseline_ols_projection,
    dolan_more_profile,
    run_suite,
)
from .errors import (
    AsymmetricMatrixError,
    DimensionError,
    NoSolutionError,
    NotPositiveDefiniteError,
    PdtlsError,
    RankDeficiencyError,
    SingularTriangularError,
)
from .fullrank import solve_qr, solve_spectral, spd_root
from .generate import (
    GeneratorSpec,
    gen_consistent_rankdef,
    gen_full_rank,
    inject_noise,
    random_rotation,
)
from .model import (
    GramPair,
    ProblemInstance,
    SpdSolution,
    error_frobenius,
    error_trace,
    gram_pair,
    kkt_residual,
)
from .rankdef import (
    BlockPartition,
    CompletionChoice,
    ConsistencyReport,
    check_consistency,
    partition_cod,
    partition_spectral,
    solve_rankdef,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMatrixError",
    "BlockPartition",
    "CompletionChoice",
    "ConsistencyReport",
    "DimensionError",
    "GeneratorSpec",
    "GramPair",
    "NoSolutionError",
    "NotPositiveDefiniteError",
    "PdtlsError",
    "PerformanceProfile",
    "ProblemInstance",
    "RankDeficiencyError",
    "RunRecord",
    "SingularTriangularError",
    "SpdSolution",
    "baseline_ols_projection",
    "check_consistency",
    "dolan_more_profile",
    "error_frobenius",
    "error_trace",
    "gen_consistent_rankdef",
    "gen_full_rank",
    "gram_pair",
    "inject_noise",
    "kkt_residual",
    "partition_cod",
    "partition_spectral",
    "random_rotation",
    "run_suite",
    "solve_qr",
    "solve_rankdef",
    "solve_spectral",
    "spd_root",
]
