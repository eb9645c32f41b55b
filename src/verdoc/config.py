"""Configuration loading and gateway construction.

The config file is JSON with three sections (all optional, all keys
defaulted): ``gateway``, ``ingestion`` and ``retrieval``. Invalid values
are rejected with field-level messages. The API key can live in the file
but the ``VERDOC_API_KEY`` environment variable overrides it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .fileio import read_json
from .gateway import DEFAULT_DIMENSION, Gateway, HttpBackend, MockBackend
from .ingestion import CHUNK_OVERLAP, CHUNK_SIZE, PAGE_TOKENS

API_KEY_ENV = "VERDOC_API_KEY"


@dataclass
class GatewayConfig:
    backend: str = "mock"  # "mock" | "http"
    base_url: str = ""
    model: str = ""
    embedding_model: str = ""
    dimension: int = DEFAULT_DIMENSION
    rate_in: float = 0.0
    rate_out: float = 0.0
    api_key: Optional[str] = None
    script_path: Optional[str] = None  # mock reply script


@dataclass
class IngestionConfig:
    chunk_size: int = CHUNK_SIZE
    chunk_overlap: int = CHUNK_OVERLAP
    page_tokens: int = PAGE_TOKENS


@dataclass
class RetrievalConfig:
    k: int = 5


@dataclass
class Config:
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    ingestion: IngestionConfig = field(default_factory=IngestionConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)


def _apply(section: dict, target, prefix: str, problems: list) -> None:
    for key, value in section.items():
        if not hasattr(target, key):
            problems.append(f"{prefix}.{key}: unknown key")
            continue
        current = getattr(target, key)
        if isinstance(current, bool) or current is None or isinstance(value, type(current)):
            setattr(target, key, value)
        elif isinstance(current, float) and isinstance(value, int):
            setattr(target, key, float(value))
        else:
            problems.append(
                f"{prefix}.{key}: expected {type(current).__name__}, got {type(value).__name__}"
            )


def load_config(path=None) -> Config:
    """Load configuration from a JSON file (defaults when path is None)."""
    config = Config()
    problems: list = []
    if path is not None:
        data = read_json(path, "config file", ConfigError)
        for section_name, target in (
            ("gateway", config.gateway),
            ("ingestion", config.ingestion),
            ("retrieval", config.retrieval),
        ):
            section = data.get(section_name, {})
            if not isinstance(section, dict):
                problems.append(f"{section_name}: must be an object")
                continue
            _apply(section, target, section_name, problems)
        unknown = set(data) - {"gateway", "ingestion", "retrieval"}
        problems.extend(f"{key}: unknown section" for key in sorted(unknown))

    if config.gateway.backend not in ("mock", "http"):
        problems.append("gateway.backend: must be 'mock' or 'http'")
    if config.gateway.dimension < 1:
        problems.append("gateway.dimension: must be >= 1")
    if config.gateway.backend == "http" and not config.gateway.base_url:
        problems.append("gateway.base_url: required for the http backend")
    if not 0 <= config.ingestion.chunk_overlap < config.ingestion.chunk_size:
        problems.append("ingestion.chunk_overlap: need 0 <= overlap < chunk_size")
    if config.ingestion.page_tokens < 1:
        problems.append("ingestion.page_tokens: must be >= 1")
    if config.retrieval.k < 1:
        problems.append("retrieval.k: must be >= 1")
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))

    env_key = os.environ.get(API_KEY_ENV)
    if env_key:
        config.gateway.api_key = env_key
    return config


def build_gateway(config: Config) -> Gateway:
    gw = config.gateway
    if gw.backend == "mock":
        script = None
        if gw.script_path:
            script = read_json(gw.script_path, "mock script", ConfigError, list)
            if not all(isinstance(entry, dict) for entry in script):
                raise ConfigError(f"mock script {gw.script_path}: every entry must be an object")
        backend = MockBackend(script=script)
    else:
        backend = HttpBackend(
            base_url=gw.base_url,
            model=gw.model,
            embedding_model=gw.embedding_model,
            api_key=gw.api_key,
        )
    return Gateway(
        backend,
        dimension=gw.dimension,
        rate_in=gw.rate_in,
        rate_out=gw.rate_out,
    )
