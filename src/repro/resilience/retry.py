"""Retry policy: bounded attempts with deterministic backoff + jitter.

The fleet orchestrator retries a shard when its worker dies or stops
heartbeating.  Two requirements shape this module: retries must *back
off* (a shard that crashes twice in 50 ms is not going to pass on the
third immediate try, and hammering respawns burns CPU the healthy
workers need), and
the whole schedule must be *deterministic* (chaos tests assert exact
retry counts; a resumed run must not depend on ``random`` module
state).  Jitter therefore comes from a seeded hash of (attempt, key),
not from a shared PRNG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ResilienceError

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY", "NO_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how fast a failed task is retried.

    Parameters
    ----------
    max_attempts:
        Total tries per task including the first (1 = never retry).
    base_delay:
        Backoff before attempt 1's retry, in seconds; doubles per
        further attempt (exponential), capped at ``max_delay``.
    max_delay:
        Upper bound on any single backoff delay.
    jitter:
        Fraction of the backoff added as deterministic jitter in
        ``[0, jitter)`` — de-synchronises retries of tasks that failed
        together (e.g. all tasks of one dead worker).
    seed:
        Seeds the jitter hash; same seed → same schedule.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ResilienceError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(f"jitter {self.jitter} outside [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """Whether a task that just failed its ``attempt``-th try (0-based)
        gets another one."""
        return attempt + 1 < self.max_attempts

    def delay(self, attempt: int, key: object = "") -> float:
        """Backoff before retrying after failed 0-based ``attempt``.

        ``key`` identifies the task (e.g. the macro index) so tasks
        failing in the same round jitter apart from each other.
        """
        backoff = min(self.base_delay * (2.0**attempt), self.max_delay)
        if backoff <= 0.0 or self.jitter == 0.0:
            return backoff
        digest = hashlib.sha256(
            f"{self.seed}:{key!r}:{attempt}".encode("utf-8")
        ).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return backoff * (1.0 + self.jitter * u)


#: Fleet default: three tries, fast first retry, bounded backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: One attempt, no second chances — for benches and strict tests.
NO_RETRY = RetryPolicy(max_attempts=1)
