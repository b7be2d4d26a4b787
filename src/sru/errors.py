"""Exception types shared across the package."""


class SruError(Exception):
    """Base class for all library errors."""


class ParseError(SruError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyDatasetError(SruError):
    """Every session was filtered out."""


class DimensionError(SruError):
    """Array shapes do not conform."""


class ContractError(SruError):
    """A documented precondition or invariant was violated."""


class CheckpointError(SruError):
    """Base class for checkpoint persistence failures."""


class IntegrityError(CheckpointError):
    """Corrupt or truncated checkpoint; carries the failing byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VersionError(CheckpointError):
    """Unknown magic bytes or unsupported format version."""


class PositionError(SruError, IndexError):
    """A request or deletion position lies outside its session."""


class UnknownSessionError(SruError, KeyError):
    """A request names a session that the corpus does not hold."""

    def __str__(self):
        # KeyError would quote the message as a repr
        return str(self.args[0]) if self.args else ""


class StageDependencyError(SruError):
    """A pipeline stage ran before the stage it depends on."""


class StaleArtifactError(SruError):
    """An on-disk artifact was produced under a different configuration."""
