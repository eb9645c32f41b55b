"""Exception hierarchy.

Every error carries an ``exit_code`` used by the CLI: 1 for usage errors,
2 for data errors, 3 for backend errors.
"""


class VerdocError(Exception):
    exit_code = 2


# --- graph ---------------------------------------------------------------

class GraphError(VerdocError):
    pass


class UnknownNodeError(GraphError):
    pass


class DuplicateVersionError(GraphError):
    pass


class UnknownVersionError(GraphError):
    def __init__(self, message, available=None):
        super().__init__(message)
        self.available = list(available or [])


class InvertedRangeError(GraphError):
    pass


class GraphValidationError(GraphError):
    def __init__(self, violations):
        super().__init__("graph validation failed: " + "; ".join(violations))
        self.violations = list(violations)


# --- persistence ---------------------------------------------------------

class CorruptFileError(VerdocError):
    pass


class VersionMismatchError(CorruptFileError):
    """Persisted file declares an unsupported format_version."""


# --- ingestion -----------------------------------------------------------

class InvalidChunkParamsError(VerdocError):
    pass


class EmptyCorpusError(VerdocError):
    pass


# --- gateway -------------------------------------------------------------

class GatewayError(VerdocError):
    exit_code = 3


class BackendUnavailableError(GatewayError):
    pass


class RateLimitedError(GatewayError):
    pass


class SchemaViolationError(GatewayError):
    pass


# --- indexing ------------------------------------------------------------

class AttributeExtractionError(VerdocError):
    pass


class ClusteringError(VerdocError):
    pass


class ExplicitExtractionError(VerdocError):
    pass


class IndexingError(VerdocError):
    """Wraps a failure inside the indexing pipeline with the step name."""

    def __init__(self, step, cause):
        super().__init__(f"indexing step '{step}' failed: {cause}")
        self.step = step
        self.cause = cause
        if isinstance(cause, VerdocError):
            self.exit_code = cause.exit_code


# --- vector index --------------------------------------------------------

class DimensionMismatchError(VerdocError):
    pass


# --- retrieval -----------------------------------------------------------

class QueryParseError(VerdocError):
    pass


class InvalidQuestionError(VerdocError):
    """A question that is not valid Unicode text."""

    exit_code = 1


class VersionNotFoundError(VerdocError):
    def __init__(self, message, available=None):
        super().__init__(message)
        self.available = list(available or [])


class DocumentNotFoundError(VerdocError):
    pass


class EmptyIndexError(VerdocError):
    pass


# --- evaluation / config -------------------------------------------------

class DatasetSchemaError(VerdocError):
    pass


class ConfigError(VerdocError):
    exit_code = 1
