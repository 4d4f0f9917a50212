"""Shared result records for identification runs (all algorithms emit these)."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StageRecord", "TrialRecord"]


@dataclass(frozen=True)
class StageRecord:
    """Snapshot of one elimination stage, after decisions were applied."""

    t: int
    undecided: int
    accepted: int
    rejected: int
    balancing: int
    sample_size: int
    queries: int
    mu_hat: dict[int, float]
    c_hat: dict[int, float]
    accepted_now: tuple[int, ...]
    rejected_now: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "undecided": self.undecided,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "balancing": self.balancing,
            "sample_size": self.sample_size,
            "queries": self.queries,
            "mu_hat": {str(i): v for i, v in sorted(self.mu_hat.items())},
            "c_hat": {str(i): v for i, v in sorted(self.c_hat.items())},
            "accepted_now": list(self.accepted_now),
            "rejected_now": list(self.rejected_now),
        }


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one identification run.

    ``success`` stays None when the instance has no known unique answer.
    ``wall_time`` is measured but never serialized (results files must be
    byte-identical across reruns of the same seed).
    """

    returned: tuple[int, ...]
    total_queries: int
    stages: int
    inconclusive: bool = False
    replicate: int | None = None
    seed: int | None = None
    success: bool | None = None
    wall_time: float | None = None
    warnings: tuple[str, ...] = ()
    stage_log: tuple[StageRecord, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        # wall_time deliberately omitted: files must be deterministic
        return {
            "kind": "trial",
            "replicate": self.replicate,
            "seed": self.seed,
            "returned": list(self.returned),
            "success": self.success,
            "total_queries": self.total_queries,
            "stages": self.stages,
            "inconclusive": self.inconclusive,
            "warnings": list(self.warnings),
        }
