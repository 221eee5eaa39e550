"""Exception taxonomy shared by the engines and the CLI.

The CLI maps these onto distinct exit codes so pipelines can tell
"infeasible at this scale" apart from "numerically broken".
"""


class CharcensusError(Exception):
    """Base class for all package errors."""


class GuardError(CharcensusError):
    """A feasibility or validity guard refused the request (CLI exit 3)."""


class NumericError(CharcensusError):
    """A numeric routine broke down (bracket failure, sign loss; CLI exit 1)."""


def check_cost(cost: int, limit: int, what: str) -> None:
    """Refuse a request whose ``cost``, described by ``what``, exceeds ``limit``."""
    if cost > limit:
        raise GuardError(f"{what} = {cost} exceeds the limit {limit}")
