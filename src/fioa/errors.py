"""Exception types shared across the workbench.

Messages are worded for the user: the CLI prints each one as
``error: <message>`` and exits 2, so a library caller reads the same text.
A configuration in a message is spelled by `channels.config_str`.
"""


class WorkbenchError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidAutomaton(WorkbenchError):
    """An automaton failed structural validation.

    Raised by `core.Nfioa` when it is built (`dataclasses.replace`
    included), so no invalid automaton exists.  Carries the full
    diagnostic list so callers can report every problem at once instead
    of fixing them one by one.
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
