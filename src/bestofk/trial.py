"""Shared result records for identification runs (all algorithms emit these).

A record's document is its compared fields: a field declared
``compare=False`` (a timing, the per-stage log) is neither written nor part
of equality, so results files are byte-identical across reruns of a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import document

__all__ = ["StageRecord", "TrialRecord"]


@dataclass(frozen=True, eq=False)
class StageRecord:
    """One elimination stage: the sets it began with, its intervals and its decisions.

    ``undecided`` is the tuple of arms undecided when the stage began, in
    stage order, and ``mu_hat`` and ``c_hat`` are read-only float64 arrays
    of their estimates and radii in that order.  ``accepted``, ``rejected``
    and ``balancing`` count the accepted and rejected arms the stage began
    with and its balancing set; ``accepted_now`` and ``rejected_now`` are its
    decisions.  The stage trace writes ``undecided`` as a count and each
    array as an ``{arm: value}`` object.  Records compare by identity, since
    arrays have no single truth value.
    """

    t: int
    undecided: tuple[int, ...]
    accepted: int
    rejected: int
    balancing: int
    sample_size: int
    queries: int
    mu_hat: np.ndarray
    c_hat: np.ndarray
    accepted_now: tuple[int, ...]
    rejected_now: tuple[int, ...]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one identification run.

    ``success`` stays None when the instance has no known unique answer.
    ``wall_time`` is measured but never written; ``stage_log`` goes to the
    stage trace, not to the results file, and ``harness.run_experiment``
    has elimination keep it only when the run is traced.
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
