"""Shared result records for identification runs (all algorithms emit these).

A record's document is its compared fields: a field declared
``compare=False`` (a timing, the per-stage log) is neither written nor part
of equality, so results files are byte-identical across reruns of a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .measures import document

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


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one identification run.

    ``success`` stays None when the instance has no known unique answer.
    ``wall_time`` is measured but never written; ``stage_log`` goes to the
    stage trace, not to the results file, and ``harness.run_experiment``
    empties it unless the run is traced.
    """

    returned: tuple[int, ...]
    total_queries: int
    stages: int
    inconclusive: bool = False
    replicate: int | None = None
    seed: int | None = None
    success: bool | None = None
    wall_time: float | None = field(default=None, compare=False)
    warnings: tuple[str, ...] = ()
    stage_log: tuple[StageRecord, ...] = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return document(self, kind="trial")
