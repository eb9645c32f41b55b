"""Version-aware retrieval and question answering over versioned corpora.

Indexing builds a four-level version graph (categories, documents,
versions, change records) plus a metadata-filtered vector index, which
holds each content chunk once; queries are classified by intent and routed to graph traversal,
version-filtered vector search or semantic change search; answers are
generated from version-pure context with provenance citations.
"""

from .config import Config, build_gateway, load_config
from .engine import Engine
from .gateway import Gateway, HttpBackend, MockBackend, TokenUsage
from .graph import VersionGraph
from .indexer import IndexSummary, index_corpus, index_documents
from .vector_index import IndexEntry, MetadataFilter, VectorIndex
from .versions import VersionLabel, compare_versions, parse_version

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Engine",
    "Gateway",
    "HttpBackend",
    "IndexEntry",
    "IndexSummary",
    "MetadataFilter",
    "MockBackend",
    "TokenUsage",
    "VectorIndex",
    "VersionGraph",
    "VersionLabel",
    "build_gateway",
    "compare_versions",
    "index_corpus",
    "index_documents",
    "load_config",
    "parse_version",
    "__version__",
]
