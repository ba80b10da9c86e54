"""Shared exception types."""


class ScaleGuardError(ValueError):
    """A computation was requested beyond its hard size guard."""


class HypothesisError(ValueError):
    """Inputs violate the hypotheses a closed form or construction needs."""


class InfeasibleError(ValueError):
    """No object with the requested combinatorial constraints exists."""


class UsageError(ValueError):
    """Command-line input that the parser admits but the command refuses (exit 2)."""


class TieError(ValueError):
    """Constituents could not be labeled because two candidates tie."""
