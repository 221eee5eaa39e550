"""Exact zero censuses for symmetric-group character tables, with the
matching asymptotic bound evaluators and a Monte Carlo density probe.

The public names load their submodule on first access (PEP 562), so
``import charcensus`` compiles no layer that the caller does not use.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, in the order of ``__all__``
_MODULES = {
    "partitions": ("Partition", "enumerate_partitions", "is_t_core",
                   "parse_partition"),
    "counting": ("bounded_partition_count", "partition_count", "tcore_count",
                 "tcore_count_bruteforce"),
    "characters": ("CharacterTable", "ZeroCensus", "character_table",
                   "character_value", "lower_bound_partial",
                   "lower_bound_sum", "zero_count"),
    "logreal": ("LogReal",),
    "asymptotics": ("BoundReport", "SaddleSolution", "core_count_bound", "eta",
                    "full_table_bound", "rademacher_main_term", "solve_saddle",
                    "strip_zero_bound", "tcore_count_estimate"),
    "sampling": ("DensityEstimate", "estimate_zero_density"),
    "errors": ("CharcensusError", "GuardError", "NumericError"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
