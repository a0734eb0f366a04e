"""Exception hierarchy shared by all taxtrace modules.

Every error raised by the library derives from :class:`TaxTraceError`, so
callers (and the CLI) can distinguish domain failures from programming
errors with a single except clause.
"""


class TaxTraceError(Exception):
    """Base class for all taxtrace domain errors."""


# --- taxonomy ---------------------------------------------------------------

class EmptyCode(TaxTraceError):
    """A class code was empty after trimming whitespace and padding dashes."""


class UnknownCode(TaxTraceError):
    """A class code does not exist in the taxonomy."""


class DuplicateCode(TaxTraceError):
    """Two taxonomy records normalize to the same class code."""


class UnknownParent(TaxTraceError):
    """A taxonomy record names a parent code that is not in the set."""


class CycleDetected(TaxTraceError):
    """The parent relation of a taxonomy contains a cycle."""


class MalformedRecord(TaxTraceError):
    """An input record (CSV row, JSON object, JSONL line) is not well formed."""


# --- artifact store ---------------------------------------------------------

class DuplicateId(TaxTraceError):
    """An artifact id is already present in the repository."""


class UnknownId(TaxTraceError):
    """No artifact with the given id exists in the repository."""


class RepositoryIOError(TaxTraceError):
    """A repository file could not be read, written, or parsed."""


class RepositoryLocked(TaxTraceError):
    """Another writer holds the repository's lock."""


class SchemaVersionMismatch(TaxTraceError):
    """A repository file declares an unsupported schema version."""


class ReferentialIntegrityError(TaxTraceError):
    """An assignment references a missing artifact or taxonomy code."""


# --- linkage ----------------------------------------------------------------

class DuplicateAssignment(TaxTraceError):
    """The (artifact, code) pair already has a non-rejected assignment."""


class UnknownAssignment(TaxTraceError):
    """No non-rejected assignment exists for the (artifact, code) pair."""


class ArchivedArtifact(TaxTraceError):
    """A split names an artifact that an earlier split archived."""


class TooFewParts(TaxTraceError):
    """A split needs at least two replacement artifacts."""


class InvalidCategory(TaxTraceError):
    """The reason category is not one of the recognized ones."""


class MalformedScenario(TaxTraceError):
    """A maintenance scenario file fails schema validation."""


# --- query ------------------------------------------------------------------

class EmptyClassification(TaxTraceError):
    """The source artifact has no usable classification to trace from."""


# --- audit ------------------------------------------------------------------

class KindMismatch(TaxTraceError):
    """An audit received artifacts of the wrong kind."""


class MissingAttribute(TaxTraceError):
    """An object lacks an attribute required for fingerprinting."""
