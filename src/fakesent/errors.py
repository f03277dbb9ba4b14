"""Exception hierarchy shared across the package.

CLI exit codes: DataError (and an OSError on a file) -> 3, NumericalError -> 4;
usage problems, from argparse or a ConfigParseError, -> 2.
"""


class FakesentError(Exception):
    """Base class for all package errors."""


class DataError(FakesentError):
    """Bad or insufficient input data."""


class EmptyCorpus(DataError):
    pass


class EmptySentence(DataError):
    pass


class EmptyDataset(DataError):
    pass


class TooShort(DataError):
    pass


class NoDistinctPair(DataError):
    pass


class SingleClassData(DataError):
    pass


class InsufficientExamples(DataError):
    pass


class DegenerateBins(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class MalformedLine(DataError):
    pass


class CheckpointFormatError(DataError):
    pass


class ConfigParseError(DataError):
    """Config file could not be parsed; the CLI reports this as a usage error."""


class NumericalError(FakesentError):
    """Numerical contract violations."""


class ShapeMismatch(NumericalError):
    pass


class NonFiniteValue(NumericalError):
    pass


class DivergedTraining(NumericalError):
    pass
