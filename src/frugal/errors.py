"""Exception types shared across the library."""


class FrugalError(Exception):
    """Base class for all library errors."""


class ValidationError(FrugalError):
    """An input value violates a documented invariant."""


class MonopolyError(FrugalError):
    """A set system (or pruned system) is not monopoly-free."""


class InfeasibleFlowError(FrugalError):
    """The requested flow size exceeds the maximum s-t flow."""


class EnumerationCapError(FrugalError):
    """An exhaustive enumeration exceeded its configured cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(f"{message} (cap {cap})")
        self.cap = cap


class SizeCapError(FrugalError):
    """An instance is larger than the documented limit for an exact routine."""


class ConvergenceError(FrugalError):
    """An iterative solver failed to reach its tolerance within its budget."""


class MonotonicityError(FrugalError):
    """A win predicate assumed monotone returned non-monotone samples."""


class StructureError(FrugalError):
    """A value does not have the structure an operation requires."""


class GraphCycleError(FrugalError):
    """A directed cycle was found where a DAG was required."""


class ParseError(FrugalError):
    """Malformed instance or report text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column
