"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat.
"""


class FormatError(ValueError):
    """Malformed input file or record (bad JSON, bad indices, bad schema)."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured size budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class InvariantError(RuntimeError):
    """An internal consistency check failed (numerical or structural)."""


class EmptyConditionError(ValueError):
    """Conditioning selected no shots / no probability mass."""
