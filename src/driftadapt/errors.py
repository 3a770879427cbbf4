"""Shared exception types.

Every error the program raises on purpose subclasses ``DriftAdaptError``
and names its own ``code``; the CLI prints it as ``ERROR <code>: <text>``.
"""


class DriftAdaptError(Exception):
    """Base of all driftadapt errors; ``code`` is the CLI error code."""

    code = ""


class ShapeMismatchError(DriftAdaptError, ValueError):
    """Operand shapes are incompatible for the requested operation."""

    code = "shape"


class DegenerateVectorError(DriftAdaptError, ValueError):
    """A vector with (near-)zero norm was passed where direction matters."""

    code = "degenerate"


class DegenerateDataError(DriftAdaptError, ValueError):
    """Input data cannot support the requested computation (e.g. all duplicates)."""

    code = "degenerate"


class ConfigError(DriftAdaptError, ValueError):
    """A hyperparameter or configuration field is out of its valid range."""

    code = "config"


class ContractError(DriftAdaptError, ValueError):
    """A caller violated an interface precondition."""

    code = "contract"


class DivergenceError(DriftAdaptError, RuntimeError):
    """Training or adaptation produced a non-finite loss."""

    code = "divergence"


class NumericError(DriftAdaptError, RuntimeError):
    """A numeric evaluation produced non-finite values."""

    code = "numeric"


class CompatibilityError(DriftAdaptError, ValueError):
    """A checkpoint or artifact does not match the current configuration."""

    code = "compat"
