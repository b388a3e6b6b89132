"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidAutomaton(WorkbenchError):
    """An automaton failed structural validation.

    Carries the full diagnostic list so callers can report every problem
    at once instead of fixing them one by one.
    """

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(diagnostics))


class WiringError(WorkbenchError):
    """A channel, projection, or network hookup is ill-typed."""


class CapacityExceeded(WorkbenchError):
    """A construction grew past its configured state/configuration cap."""


class PreconditionError(WorkbenchError):
    """An analysis was invoked on input outside its stated domain."""


class SchedulerError(WorkbenchError):
    """A run asked for a scheduler or a choice that does not exist."""


class ChoiceOutOfRange(SchedulerError):
    """A scripted run chose a move its configuration does not offer.

    `describe(place)` words the error with `place` naming the
    configuration, so a caller that knows the network's channel labels can
    print them instead of the raw configuration.
    """

    def __init__(self, step: int, choice: int, enabled: int, config):
        self.step, self.choice, self.enabled, self.config = step, choice, enabled, config
        super().__init__(self.describe(repr))

    def describe(self, place) -> str:
        return (
            f"step {self.step}: choice {self.choice} out of range "
            f"({self.enabled} enabled at {place(self.config)})"
        )


class StepRejected(WorkbenchError):
    """The executor was fed an input with no defined transition."""


class DslError(WorkbenchError):
    """Syntax or resolution error in a workbench document."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}: {message}" if col is None else f"line {line}, col {col}: {message}"
        super().__init__(message)
