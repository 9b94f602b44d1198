"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1,
PropertyViolation -> 2, NonConvergence and its budget subclasses -> 3.
"""


class KakeyaError(Exception):
    pass


class ValidationError(KakeyaError):
    """Malformed input: bad ranges, inconsistent families, schema errors."""


class PropertyViolation(KakeyaError):
    """A checked inequality or contract failed."""


class NonConvergence(KakeyaError):
    """Refined quadrature failed to meet its tolerance."""


class CellBudgetExceeded(NonConvergence):
    """A requested grid exceeds the configured cell budget."""


class MemberBudgetExceeded(NonConvergence):
    """A generator spec or a search asks for more members than the member budget."""
