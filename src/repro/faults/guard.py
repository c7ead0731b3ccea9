"""ReadGuard: the hardened read path's retry/quarantine policy.

Every block a reader consumes goes through :meth:`ReadGuard.read_parsed`
when a guard is attached to the device (``device.guard``):

* a :class:`~repro.errors.TransientIOError` is retried up to
  ``max_read_retries`` times with capped exponential backoff, charged to
  the device's simulated clock (the real-engine analog of a controller
  retry, which costs time but no extra host I/O);
* a :class:`~repro.errors.CorruptionError` (checksum mismatch) is re-read a
  bounded number of times — persistent corruption then **quarantines** the
  whole file and propagates the typed error, so a damaged file can never
  serve a silently wrong answer;
* counters for every decision feed ``LSMTree.metrics_snapshot()`` (the
  ``fault_*`` / ``retry_*`` / ``quarantine_*`` keys) and, when observability
  is attached, the registry's fault counters.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import CorruptionError, QuarantinedFileError, TransientIOError


class ReadGuard:
    """Retry, backoff, and quarantine policy for device block reads.

    One guard serves one device (attach via ``device.guard = guard``); all
    trees sharing the device share its quarantine set, exactly as shards
    sharing a disk share its bad-sector list.

    Args:
        max_read_retries: transient-error retries before giving up.
        backoff_base: simulated-time charge of the first backoff (doubles
            per retry, capped at ``backoff_cap``).
        backoff_cap: ceiling for a single backoff charge.
        quarantine_after: failed re-reads of a corrupt block before the
            file is quarantined.
    """

    def __init__(
        self,
        max_read_retries: int = 4,
        backoff_base: float = 1.0,
        backoff_cap: float = 32.0,
        quarantine_after: int = 2,
    ) -> None:
        self.max_read_retries = max_read_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.quarantine_after = quarantine_after
        self.observer = None  # EngineObserver with fault counters (optional)
        self._lock = threading.Lock()
        self._quarantined: Set[int] = set()
        # -- counters (monotone; exported with fault_/retry_/quarantine_ prefixes)
        self.transient_errors = 0  # TransientIOErrors observed (pre-retry)
        self.corruptions_detected = 0  # checksum failures observed
        self.degraded_reads = 0  # lookups that fell back past a broken filter/index
        self.retry_attempts = 0  # re-reads issued
        self.retry_successes = 0  # reads that succeeded after >= 1 retry
        self.retry_exhausted = 0  # transient errors that escaped after max retries
        self.quarantine_blocked_reads = 0  # fast-failed reads of quarantined files

    @classmethod
    def from_config(cls, faults) -> "ReadGuard":
        """Build a guard from a :class:`~repro.faults.FaultConfig`."""
        return cls(
            max_read_retries=faults.max_read_retries,
            backoff_base=faults.backoff_base,
            backoff_cap=faults.backoff_cap,
            quarantine_after=faults.quarantine_after,
        )

    # -- quarantine ----------------------------------------------------------

    @property
    def quarantined_files(self) -> List[int]:
        with self._lock:
            return sorted(self._quarantined)

    def is_quarantined(self, file_id: int) -> bool:
        return file_id in self._quarantined

    def quarantine(self, file_id: int) -> None:
        """Mark a file bad; subsequent reads fail fast with a typed error."""
        with self._lock:
            if file_id not in self._quarantined:
                self._quarantined.add(file_id)
                obs = self.observer
                if obs is not None:
                    obs.record_quarantine(file_id)

    def release(self, file_id: int) -> None:
        """Lift a quarantine (after the file is rebuilt or deleted)."""
        with self._lock:
            self._quarantined.discard(file_id)

    # -- the guarded read ----------------------------------------------------

    def read_parsed(
        self,
        device,
        file_id: int,
        block_no: int,
        parse: Callable[[bytes], object],
    ) -> Tuple[bytes, object]:
        """Read one block and parse it, retrying/quarantining per policy.

        ``parse`` is the reader's own decoder — for a table's data blocks,
        the same checksum-verifying decoder the unguarded path uses — and
        any :class:`CorruptionError` it raises counts as a corrupt read.

        Returns:
            ``(payload, parsed)`` on success.

        Raises:
            QuarantinedFileError: the file was already quarantined.
            TransientIOError: the error persisted past the retry budget.
            CorruptionError: the checksum failure persisted; the file is now
                quarantined.
        """
        if file_id in self._quarantined:
            self.quarantine_blocked_reads += 1
            raise QuarantinedFileError(file_id)
        attempt = 0
        corrupt_reads = 0
        while True:
            try:
                payload = device.read_block(file_id, block_no)
                parsed = parse(payload)
                if attempt:
                    self.retry_successes += 1
                return payload, parsed
            except TransientIOError:
                self.transient_errors += 1
                self._note_observer("transient")
                if attempt >= self.max_read_retries:
                    self.retry_exhausted += 1
                    raise
            except CorruptionError:
                self.corruptions_detected += 1
                self._note_observer("corruption")
                corrupt_reads += 1
                if corrupt_reads >= self.quarantine_after:
                    self.quarantine(file_id)
                    raise
            attempt += 1
            self.retry_attempts += 1
            self._note_observer("retry")
            # Backoff costs time, not host I/O: charge the simulated clock.
            backoff = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
            device.stats.simulated_time += backoff

    def note_degraded_read(self) -> None:
        """A lookup survived a broken filter/index by scanning data blocks."""
        self.degraded_reads += 1
        self._note_observer("degraded")

    def _note_observer(self, kind: str) -> None:
        obs = self.observer
        if obs is not None:
            obs.record_fault(kind)

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        """Flat counters for ``metrics_snapshot()`` (prefixed key names)."""
        return {
            "fault_transient_errors": self.transient_errors,
            "fault_corruptions_detected": self.corruptions_detected,
            "fault_degraded_reads": self.degraded_reads,
            "retry_attempts": self.retry_attempts,
            "retry_successes": self.retry_successes,
            "retry_exhausted": self.retry_exhausted,
            "quarantine_files": len(self._quarantined),
            "quarantine_blocked_reads": self.quarantine_blocked_reads,
        }
