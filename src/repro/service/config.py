"""Service-layer knobs: group commit, scheduling, rate limiting, stalls.

These are deliberately separate from :class:`repro.core.config.LSMConfig`:
the tree's knobs shape *what* the structure looks like; the service's knobs
shape *when and on which thread* reorganization runs — the dimension the
compaction design-space work isolates as first-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config_base import kwonly_dataclass
from repro.errors import ConfigError


@kwonly_dataclass
@dataclass
class ServiceConfig:
    """Every knob of the concurrent front-end, with RocksDB-shaped defaults.

    Keyword-only: positional arguments raise TypeError.

    Attributes:
        max_batch: group-commit batch cap; a commit leader drains at most
            this many queued writes into one WAL frame.
        max_batch_wait_s: how long a leader waits for followers before
            committing a short batch (the group-commit latency/amortization
            tradeoff).
        num_workers: background worker threads shared by flush and
            compaction jobs.
        compaction_rate_bytes: token-bucket refill rate (bytes/second of
            compaction input) limiting background I/O so foreground reads
            are not starved; None disables rate limiting.
        compaction_burst_bytes: bucket capacity; defaults to one second of
            refill when None.
        l0_slowdown_runs: flush backlog (sealed memtables + level-1 runs)
            at which writers are delayed (soft stall).
        l0_stop_runs: backlog at which writers block until compaction
            catches up (hard stall).
        debt_slowdown: compaction-debt gauge (see
            ``LSMTree.compaction_debt``) for a soft stall; None disables.
        debt_stop: debt gauge for a hard stall; None disables.
        slowdown_delay_s: sleep injected per soft-stalled write.
        stop_timeout_s: safety valve — the longest a hard stall may block
            one write before letting it through (prevents deadlock if
            maintenance cannot make progress).
        subcompaction_workers: when set, the scheduler owns one shared
            thread pool of this size that serves every registered tree's
            key-range subcompactions (see
            :class:`repro.parallel.ParallelConfig`); None lets each tree
            lazily create a private pool on first parallel merge.
    """

    max_batch: int = 64
    max_batch_wait_s: float = 0.002
    num_workers: int = 2
    compaction_rate_bytes: Optional[float] = None
    compaction_burst_bytes: Optional[float] = None
    l0_slowdown_runs: int = 8
    l0_stop_runs: int = 16
    debt_slowdown: Optional[float] = None
    debt_stop: Optional[float] = None
    slowdown_delay_s: float = 0.001
    stop_timeout_s: float = 10.0
    subcompaction_workers: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.max_batch < 1:
            raise ConfigError("max_batch must be at least 1")
        if self.max_batch_wait_s < 0:
            raise ConfigError("max_batch_wait_s must be non-negative")
        if self.num_workers < 1:
            raise ConfigError("num_workers must be at least 1")
        if self.compaction_rate_bytes is not None and self.compaction_rate_bytes <= 0:
            raise ConfigError("compaction_rate_bytes must be positive")
        if self.l0_slowdown_runs < 1:
            raise ConfigError("l0_slowdown_runs must be at least 1")
        if self.l0_stop_runs < self.l0_slowdown_runs:
            raise ConfigError("l0_stop_runs must be >= l0_slowdown_runs")
        if self.debt_slowdown is not None and self.debt_slowdown < 0:
            raise ConfigError("debt_slowdown must be non-negative")
        if self.debt_stop is not None:
            if self.debt_stop < 0:
                raise ConfigError("debt_stop must be non-negative")
            if self.debt_slowdown is not None and self.debt_stop < self.debt_slowdown:
                raise ConfigError("debt_stop must be >= debt_slowdown")
        if self.slowdown_delay_s < 0:
            raise ConfigError("slowdown_delay_s must be non-negative")
        if self.stop_timeout_s <= 0:
            raise ConfigError("stop_timeout_s must be positive")
        if self.subcompaction_workers is not None and self.subcompaction_workers < 1:
            raise ConfigError("subcompaction_workers must be at least 1")
