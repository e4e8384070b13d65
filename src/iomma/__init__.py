"""Instrumented two-level memory model for blocked matrix multiplication.

The package executes explicit load/store/FMA schedules against a bounded fast
memory, counts every transfer, and compares the observed traffic against
structural predictions, Loomis-Whitney phase inequalities, asymptotic lower
bounds, and a two-cache read model for Goto-style kernels.
"""

from types import ModuleType as _ModuleType

from .algorithms import (
    Algorithm,
    PredictedIO,
    TooSmallError,
    block_size,
    build_schedule,
    naive_schedule,
    predicted_io,
)
from .bounds import (
    BoundReport,
    CapsExceededError,
    GridTooFineError,
    TinyOptimum,
    XYZOptimum,
    compulsory_io,
    fmax,
    grid_search_xyz,
    lower_bound_AB,
    lower_bound_final,
    lower_bound_general,
    lower_bound_MS,
    optimal_M,
    optimal_xyz,
    phase_size_payoff,
    tiny_optimal_schedule,
)
from .goto import (
    DEFAULT_SUBOPTIMAL_THRESHOLD,
    GotoParams,
    GotoReport,
    goto_report,
    l2_reads,
    l3_reads,
)
from .inputs import SplitMix64, seeded_matrices
from .memsim import (
    CapacityExceededError,
    DirtyEvictionError,
    DoubleLoadError,
    ExecutionResult,
    IncompleteWritebackError,
    MemoryConfig,
    NonResidentOperandError,
    OutOfBoundsError,
    ShapeMismatchError,
    SimulationError,
    StoreNonCError,
    StoreNonResidentError,
    dump_trace,
    execute,
    parse_trace,
    reference_gemm,
)
from .model import (
    EventView,
    Evict,
    Fma,
    IOStats,
    Load,
    Matrix,
    OperandRef,
    ProblemDims,
    Schedule,
    Store,
    TraceEvent,
    fma_count,
)
from .phases import (
    PHASE_CSV_HEADER,
    EmptyInputError,
    PhaseConfig,
    PhaseReport,
    check_capacity,
    check_loomis_whitney,
    partition_phases,
    phase_efficiency,
    phases_to_csv,
)

__version__ = "0.1.0"

# every name imported above, without the submodules that importing binds
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
