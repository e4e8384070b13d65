"""Instrumented two-level memory model for blocked matrix multiplication.

The package executes explicit load/store/FMA schedules against a bounded fast
memory, counts every transfer, and compares the observed traffic against
structural predictions, Loomis-Whitney phase inequalities, asymptotic lower
bounds, and a two-cache read model for Goto-style kernels.

Importing the package loads none of its modules: each exported name is
imported from its home module on first access (PEP 562), so a program that
uses one layer never compiles the others. Nor does numpy run until a layer
needs it: model, algorithms and bounds take it from ``model._numpy``, a lazy
import unless numpy is already imported, so the closed forms (the CLI's
predict, bounds, goto and sweep) never load it, though it must be
installed; inputs, memsim, phases and tracefile import numpy themselves,
so simulate, phases, brute-force and verify load it with their layers.
"""

import importlib

# each layer and the names it exports
_LAYERS = {
    "algorithms": (
        "Algorithm",
        "PredictedIO",
        "TooSmallError",
        "block_size",
        "build_schedule",
        "cheapest_runnable",
        "naive_schedule",
        "predicted_io",
        "runnable_costs",
    ),
    "bounds": (
        "BoundReport",
        "CapsExceededError",
        "GridTooFineError",
        "TinyOptimum",
        "XYZOptimum",
        "compulsory_io",
        "fmax",
        "grid_search_xyz",
        "lower_bound_final",
        "lower_bound_general",
        "lower_bound_MS",
        "optimal_M",
        "optimal_xyz",
        "phase_size_payoff",
        "tiny_optimal_schedule",
    ),
    "goto": (
        "DEFAULT_SUBOPTIMAL_THRESHOLD",
        "GotoParams",
        "GotoReport",
        "goto_report",
        "l2_reads",
        "l3_reads",
    ),
    "inputs": ("SplitMix64", "seeded_matrices"),
    "memsim": (
        "CapacityExceededError",
        "DirtyEvictionError",
        "DoubleLoadError",
        "ExecutionResult",
        "IncompleteWritebackError",
        "MemoryConfig",
        "NonResidentOperandError",
        "OutOfBoundsError",
        "ShapeMismatchError",
        "StoreNonCError",
        "StoreNonResidentError",
        "execute",
        "reference_gemm",
    ),
    "model": (
        "IOStats",
        "Matrix",
        "ProblemDims",
        "Schedule",
        "SimulationError",
        "fma_count",
    ),
    "phases": (
        "PHASE_CSV_HEADER",
        "EmptyInputError",
        "PhaseConfig",
        "PhaseReport",
        "check_capacity",
        "check_loomis_whitney",
        "partition_phases",
        "phase_efficiency",
        "phases_to_csv",
    ),
    "tracefile": ("dump_trace", "parse_trace"),
}
_HOMES = {name: layer for layer, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import an exported name from its home module, once: the value is then
    bound here, so later lookups never come back."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
