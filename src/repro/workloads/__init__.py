"""Workload generation: the paper's synthetic distribution."""

from .synthetic import (
    DEFAULT_CONFIG,
    GeneratorConfig,
    chain_batch,
    ktype_chain_batch,
    random_chain,
    random_ktype_chain,
)

__all__ = [
    "GeneratorConfig",
    "DEFAULT_CONFIG",
    "random_chain",
    "chain_batch",
    "random_ktype_chain",
    "ktype_chain_batch",
]
