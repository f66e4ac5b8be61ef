"""Exception types raised across the package.

An error means the analysis could not run; a failed property is a report
with ``holds`` false, never an exception.  There are six classes, one per
thing a caller can act on:

- :class:`ValidationError` (a ValueError): the input is malformed, e.g. a
  matrix that is not a semimetric, a map that is not defined everywhere,
  or a function that is not increasing on its probe grid;
- :class:`ParseError`: a file or command-line value could not be read;
- :class:`PreconditionFailed`: the inputs are well formed but do not meet
  a theorem's hypothesis, e.g. the supplied modulus does not verify the
  map;
- :class:`NotInvertible`: a function has no inverse at the asked value;
- :class:`TooLarge`: an exhaustive search was asked to enumerate too much;

all under the base :class:`QsymError`.
"""


class QsymError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QsymError, ValueError):
    """Input data or parameters failed validation."""


class PreconditionFailed(QsymError):
    """An analysis was invoked on inputs that do not satisfy its theorem's
    hypotheses; the message names the failing one."""


class NotInvertible(QsymError):
    """A gauge diagonal or modulus cannot be inverted at the asked value:
    it is not strictly increasing, never reaches the value, or its
    bisection stalls."""


class TooLarge(QsymError):
    """The brute-force search was asked to enumerate too many permutations."""


class ParseError(QsymError):
    """A space, map, or envelope file could not be parsed; carries the path
    and, when available, the line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
            if line is not None:
                loc = f"{path}:{line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line
