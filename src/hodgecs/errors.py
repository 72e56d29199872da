"""Exception types shared across the package."""


class ToolError(Exception):
    """Base class for every error raised by this package."""


class DegreeError(ToolError, ValueError):
    """A class has the wrong degree, or a wedge would exceed the top degree."""


class RingMismatchError(ToolError, ValueError):
    """Operands belong to different intersection rings."""


class FlagError(ToolError, ValueError):
    """A positivity flag does not satisfy an operation's requirements."""


class SingularSplitError(ToolError, ArithmeticError):
    """A mixed hard Lefschetz map used by the decomposition is singular.

    For genuinely Kahler reference classes that map is an isomorphism, so a
    singular one means the declared positivity flags are wrong.
    """


class UnknownRingError(ToolError, KeyError):
    """A ring name is not in the zoo catalogue."""

    # KeyError's str is the repr of the key; this error carries a message.
    __str__ = Exception.__str__


class ValidationLimitError(ToolError):
    """Validating a ring would take more work than the stated limit allows."""


class MissingSamplesError(ToolError, ValueError):
    """An operation needs declared Kahler cone samples the ring lacks."""


class BundleError(ToolError, ValueError):
    """Problem with a ring-bundle document."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path

    def __str__(self):
        base = super().__str__()
        return f"{self.path}: {base}" if self.path else base


class BundleSyntaxError(BundleError):
    """The document is not syntactically valid."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = Exception.__str__(self)
        if self.line is not None:
            return f"line {self.line}, column {self.col}: {base}"
        return base


class BundleSemanticError(BundleError):
    """The document parses but violates a ring constraint."""

    def __init__(self, message, path="", constraint=""):
        super().__init__(message, path=path)
        self.constraint = constraint
