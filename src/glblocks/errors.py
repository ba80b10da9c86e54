"""Shared exception types."""


class ScaleGuardError(ValueError):
    """A computation was requested beyond its hard size guard."""


class HypothesisError(ValueError):
    """Inputs violate the hypotheses a closed form or construction needs."""


class InfeasibleError(ValueError):
    """No object with the requested combinatorial constraints exists."""


class TieError(ValueError):
    """Constituents could not be labeled because two candidates tie."""
