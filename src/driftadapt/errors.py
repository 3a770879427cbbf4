"""Shared exception types.

Every error the program raises on purpose subclasses ``DriftAdaptError``
and names its own ``code``; the CLI prints it as ``ERROR <code>: <text>``.
"""


class DriftAdaptError(Exception):
    """Base of all driftadapt errors; ``code`` is the CLI error code and
    ``tau`` the adaptation batch's index where one is known, else None."""

    code = ""

    def __init__(self, message: str, tau: int = None):
        super().__init__(message)
        self.tau = tau


class DegenerateDataError(DriftAdaptError, ValueError):
    """Input data cannot support the requested computation: a (near-)zero-norm
    row where direction matters, or all points identical."""

    code = "degenerate"


class ConfigError(DriftAdaptError, ValueError):
    """A hyperparameter or configuration field is out of its valid range."""

    code = "config"


class ContractError(DriftAdaptError, ValueError):
    """A caller violated an interface precondition, such as operand shapes
    that do not fit."""

    code = "contract"


class DivergenceError(DriftAdaptError, RuntimeError):
    """A non-finite loss; its ``tau`` is None in pretraining."""

    code = "divergence"


class NumericError(DriftAdaptError, RuntimeError):
    """A numeric evaluation produced non-finite values."""

    code = "numeric"


class CompatibilityError(DriftAdaptError, ValueError):
    """A checkpoint or artifact does not match the current configuration."""

    code = "compat"


def error_code(exc: Exception) -> str:
    """The CLI code of an error: its own ``code``, or ``io`` for an OSError."""
    return exc.code if isinstance(exc, DriftAdaptError) else "io"
