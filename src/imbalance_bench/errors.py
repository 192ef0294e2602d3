"""Exception hierarchy.

Everything below DataError maps to CLI exit code 2; UsageError maps to 1.
"""

from __future__ import annotations


class DataError(Exception):
    """Base for contract violations in data handling or computation."""


class EmptyClass(DataError):
    """A dataset has no elements in one of the two classes."""


class ParseError(DataError):
    """Malformed input file: a CSV cell or row length, a pool manifest, or bytes that are not UTF-8."""


class LabelError(DataError):
    """Label column contains a value outside {0, 1}."""


class MajorityMislabeled(DataError):
    """Class 1 is the majority and relabeling was not requested."""


class TooFewElements(DataError):
    """A class has fewer elements than the number of folds."""


class ConfigError(DataError):
    """An invalid setting.

    Generator ranges, cells, strategies, multiplier grids that repeat a
    point, models or methods the compared results lack, and empty or
    duplicated benchmark combinations raise it.
    """


class MultiplierOutOfRange(DataError):
    """Resampling multiplier outside (1, IR(S)]."""


class MinorityTooSmall(DataError):
    """SMOTE needs at least two minor-class elements."""


class DimensionMismatch(DataError):
    """Feature matrix width differs from the training dimension."""


class NoPositives(DataError):
    """PR-AUC is undefined without at least one positive label."""


class EmptyGrid(DataError):
    """No multiplier grid point satisfies 1 < m <= IR(S)."""


class NoComparableRows(DataError):
    """Every task row was dropped from the profile comparison."""


class MismatchedGrids(DataError):
    """Curves passed to the emitter do not share a beta grid."""


class UsageError(Exception):
    """Invalid command line (exit code 1)."""
