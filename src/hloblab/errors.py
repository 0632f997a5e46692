"""Exception hierarchy shared across the pipeline."""


class HloblabError(Exception):
    """Base class for all pipeline errors."""


# --- ingestion ---

class RowCountMismatch(HloblabError):
    pass


class MalformedRow(HloblabError):
    def __init__(self, line_number, detail=""):
        self.line_number = line_number
        super().__init__(f"malformed row at line {line_number}: {detail}")


class CrossedBook(HloblabError):
    def __init__(self, line_number):
        self.line_number = line_number
        super().__init__(f"crossed book at line {line_number}")


class EmptyAfterClean(HloblabError):
    pass


class MissingLevels(HloblabError):
    pass


class InvalidBook(HloblabError):
    """A day breaks a book invariant; ``index`` is the 0-based snapshot."""

    def __init__(self, day, index, check):
        self.day = day
        self.index = index
        self.check = check
        super().__init__(f"invalid book on {day} at snapshot {index}: {check}")


# --- preprocessing ---

class InsufficientHistory(HloblabError):
    pass


class SeriesTooShort(HloblabError):
    pass


class MissingClass(HloblabError):
    def __init__(self, class_label):
        self.class_label = class_label
        super().__init__(f"no windows with label {class_label}")


# --- information network ---

class LengthMismatch(HloblabError):
    pass


class EmptyList(HloblabError):
    pass


class TooFewVertices(HloblabError):
    pass


class AsymmetricInput(HloblabError):
    pass


class IndexOutOfRange(HloblabError):
    pass


# --- tensor engine / model ---

class ShapeMismatch(HloblabError):
    pass


class BadLabel(HloblabError):
    pass


class ConfigInconsistent(HloblabError):
    pass


class NonFiniteLogit(HloblabError):
    pass


class IoFailure(HloblabError):
    pass


class DigestMismatch(HloblabError):
    pass


# --- training / cli ---

class EmptyDataset(HloblabError):
    pass


class ConfigError(HloblabError):
    def __init__(self, key, detail=""):
        self.key = key
        super().__init__(f"config error at '{key}': {detail}")
