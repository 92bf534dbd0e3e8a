"""Exception hierarchy shared across the package."""


class RankPhaseError(Exception):
    """Base class for all package errors."""


class InputError(RankPhaseError, ValueError):
    """A caller supplied an invalid argument (bad shape, range, or kind)."""


class ConfigError(InputError):
    """An experiment configuration is malformed or inconsistent."""


class DegenerateFitError(RankPhaseError):
    """A regression target is degenerate (e.g. constant rank vector)."""


class MatchBudgetError(RankPhaseError):
    """The exact matcher outgrew its dynamic program's budgets.

    ``incumbent`` is a feasible rank vector and ``gap`` a certified bound on
    how far its objective may lie above the optimum.
    """

    def __init__(self, incumbent, gap: float):
        super().__init__(
            "matching outgrew the dynamic program's budgets; "
            f"the incumbent is within {gap:.3e} of optimal"
        )
        self.incumbent = incumbent
        self.gap = gap
