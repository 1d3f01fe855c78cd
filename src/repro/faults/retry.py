"""Retry policy for fault-tolerant execution.

One small frozen dataclass shared by the fleet recovery ladder (in
process and in every shard of a sharded or parallel run) and the
campaign runner: how many times a failed chunk is retried, and the
exponential backoff between attempts.  Kept separate from the runner so
CLIs, campaigns, and tests can build one policy and thread it through
every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for the recovery ladder.

    ``max_retries``
        Retries per chunk *before* escalation (so a chunk runs at most
        ``max_retries + 1`` times at each ladder stage).  The ladder
        after exhaustion: a multi-device chunk splits into per-device
        jobs (batched → per-device degradation); a single device gets
        one last attempt; only then is it quarantined as a
        ``DeviceFailure``.  A parallel run's process-level faults are
        the shard ledger's job instead: a dead or hung drain child's
        shard is stolen once its lease expires.
    ``backoff_s`` / ``backoff_factor``
        Exponential backoff: retry *k* (0-based) waits
        ``backoff_s * backoff_factor**k`` seconds.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ConfigError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, retry_index: int) -> float:
        """Seconds to wait before 0-based retry ``retry_index``."""
        return self.backoff_s * self.backoff_factor ** max(int(retry_index), 0)


#: The default policy: a couple of retries with a short backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()
