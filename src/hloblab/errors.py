"""Exception hierarchy shared across the pipeline."""

import copyreg


class HloblabError(Exception):
    """Base class for all pipeline errors."""

    def __reduce__(self):
        # rebuild from the message and the attributes, without ``__init__``:
        # a subclass's arguments are not its message, so the default reduce
        # (``cls(*args)``) would wrap the message again or fail, and an
        # ingest worker's error must cross back to its parent intact
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- ingestion ---

def where(day=None, files=()) -> str:
    """`` (day D, file F)`` or `` (day D, files O, M)`` naming the parts that
    are known (not None), or ``""`` if none is."""
    parts = [] if day is None else [f"day {day}"]
    files = [str(f) for f in files if f is not None]
    if files:
        parts.append(f"file{'s' if len(files) > 1 else ''} {', '.join(files)}")
    return f" ({', '.join(parts)})" if parts else ""


class RowCountMismatch(HloblabError):
    """The two files of a day differ in rows; the message names the day and
    the files when they are known (see :func:`where`)."""


class MalformedRow(HloblabError):
    """A bad row; the message adds the day and the file when they are known."""

    def __init__(self, line_number, detail="", day=None, file=None):
        self.line_number = line_number
        self.day = day
        self.file = file
        super().__init__(f"malformed row at line {line_number}: {detail}"
                         f"{where(day, (file,))}")


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


class NonFiniteLoss(HloblabError):
    """Training produced a NaN or infinite loss; ``batch`` counts from 1."""

    def __init__(self, epoch, batch, loss):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite training loss {loss} at epoch {epoch}, "
                         f"batch {batch}")


class IoFailure(HloblabError):
    pass


class DigestMismatch(HloblabError):
    pass


class WorkerLost(HloblabError):
    """A pool worker process died, so a job's result never came back."""


# --- training / cli ---

class EmptyDataset(HloblabError):
    pass


class ConfigError(HloblabError):
    def __init__(self, key, detail=""):
        self.key = key
        super().__init__(f"config error at '{key}': {detail}")
