"""Builds the per-run auxiliary structures an LSMConfig asks for.

The SSTable builder takes plain callables (``filter_factory(keys)``,
``index_factory(keys, block_of_key)``); this module manufactures those
callables from the configuration, including per-level Bloom budgets (Monkey)
and per-file seeds (decorrelated false positives; one shared seed under
shared hashing).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.core.config import LSMConfig
from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.elastic import ElasticBloomFilter
from repro.filters.partitioned import PartitionedBloomFilter
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta import Rosetta
from repro.filters.snarf import Snarf
from repro.filters.surf import SuRF
from repro.filters.quotient import QuotientFilter
from repro.filters.xor import XorFilter
from repro.indexes import make_index_factory


class AuxFactory:
    """Stateful factory bound to one engine instance."""

    def __init__(self, config: LSMConfig) -> None:
        self._config = config
        self._seeds = itertools.count(config.seed)

    def filter_factory(self, level: int) -> Optional[Callable]:
        """Point-filter factory for runs landing at ``level``; None = no filter."""
        kind = self._config.filter_kind
        if kind == "none":
            return None
        bits = self._config.bits_for_level(level)
        if bits == 0 and kind in {"bloom", "blocked_bloom", "partitioned", "elastic"}:
            return None  # Monkey may assign zero memory to deep levels
        params = dict(self._config.filter_params)
        # Shared hashing probes every filter with one digest under
        # config.seed, so every point filter must be built under it too.
        seed = self._config.seed if self._config.shared_hashing else next(self._seeds)

        if kind == "bloom":
            return lambda keys: BloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "blocked_bloom":
            return lambda keys: BlockedBloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "partitioned":
            return lambda keys: PartitionedBloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "elastic":
            return lambda keys: ElasticBloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "cuckoo":
            return lambda keys: CuckooFilter(keys, seed=seed, **params)
        if kind == "xor":
            return lambda keys: XorFilter(keys, seed=seed, **params)
        if kind == "quotient":
            return lambda keys: QuotientFilter(keys, seed=seed, **params)
        raise AssertionError(f"validated config held unknown filter {kind!r}")

    def range_filter_factory(self) -> Optional[Callable]:
        """Range-filter factory, shared across levels; None = no range filter."""
        kind = self._config.range_filter
        if kind == "none":
            return None
        params = dict(self._config.range_filter_params)
        seed = next(self._seeds)

        if kind == "prefix_bloom":
            return lambda keys: PrefixBloomFilter(keys, seed=seed, **params)
        if kind == "surf":
            return lambda keys: SuRF(keys, seed=seed, **params)
        if kind == "rosetta":
            return lambda keys: Rosetta(keys, seed=seed, **params)
        if kind == "snarf":
            return lambda keys: Snarf(keys, **params)
        raise AssertionError(f"validated config held unknown range filter {kind!r}")

    def index_factory(self) -> Optional[Callable]:
        """Search-index factory; None disables block indexing."""
        if self._config.index == "none":
            return None
        return make_index_factory(self._config.index, **self._config.index_params)
