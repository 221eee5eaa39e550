"""Exact zero censuses for symmetric-group character tables, with the
matching asymptotic bound evaluators and a Monte Carlo density probe."""

from .partitions import (
    Partition,
    enumerate_partitions,
    hook_multiset,
    is_t_core,
    parse_partition,
)
from .counting import (
    bounded_partition_count,
    partition_count,
    tcore_count,
    tcore_count_bruteforce,
)
from .characters import (
    CharacterTable,
    ZeroCensus,
    character_table,
    character_value,
    class_size,
    lower_bound_partial,
    lower_bound_sum,
    zero_count,
)
from .logreal import LogReal
from .asymptotics import (
    BoundReport,
    EtaValue,
    SaddleSolution,
    Thresholds,
    bounded_count_estimate,
    core_count_bound,
    eta,
    eta_log_deriv,
    full_table_bound,
    rademacher_main_term,
    solve_saddle,
    split_thresholds,
    strip_zero_bound,
    tcore_count_estimate,
)
from .sampling import DensityEstimate, estimate_zero_density, random_partition
from .errors import CharcensusError, GuardError, NumericError

__version__ = "0.1.0"

__all__ = [
    "Partition", "enumerate_partitions", "hook_multiset", "is_t_core",
    "parse_partition",
    "bounded_partition_count", "partition_count",
    "tcore_count", "tcore_count_bruteforce",
    "CharacterTable", "ZeroCensus", "character_table", "character_value",
    "class_size", "lower_bound_partial", "lower_bound_sum", "zero_count",
    "LogReal", "BoundReport", "EtaValue", "SaddleSolution", "Thresholds",
    "bounded_count_estimate", "core_count_bound", "eta", "eta_log_deriv",
    "full_table_bound", "rademacher_main_term", "solve_saddle",
    "split_thresholds", "strip_zero_bound", "tcore_count_estimate",
    "DensityEstimate", "estimate_zero_density", "random_partition",
    "CharcensusError", "GuardError", "NumericError",
]
