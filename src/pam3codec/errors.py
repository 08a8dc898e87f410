"""Exception types shared across the package."""


class Pam3Error(Exception):
    """Base class for all pam3codec errors."""


class InvalidPair(Pam3Error):
    """A frame column holds the unused (0, 0) level pair.

    frame_index is the frame's position in its stream of frames, or None
    when a single frame was checked.
    """

    def __init__(self, message: str, frame_index: int | None = None):
        super().__init__(message)
        self.frame_index = frame_index


class WrongAlgorithm(Pam3Error):
    """An encoded frame was handed to the decoder of a different algorithm."""


class InvalidFlag(Pam3Error):
    """Flag value is out of range for the algorithm's flag width."""


class ZeroBaseline(Pam3Error):
    """Baseline power is zero, so a power ratio is undefined."""


class EmptyStream(Pam3Error):
    """An operation requiring at least one frame received none."""


class EmptyInput(Pam3Error):
    """A raw trace input contained no bytes."""


class ParseError(Pam3Error):
    """Malformed trace or encoded-frame input.

    Carries the 1-based line number of the offending line, and the message
    without it as reason.
    """

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.reason = message
        self.line_number = line_number
