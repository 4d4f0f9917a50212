"""The Best-of-K feedback channels: the executable spec of one query.

A query names a set of arms; nature draws a fresh reward vector per query and
the observation depends on the feedback model:

* ``bandit`` -- only the max bit over the queried arms,
* ``marked`` -- nothing if every queried arm is 0, otherwise one arm chosen
  uniformly among those that read 1,
* ``semi``   -- the bit of every queried arm.

``observe`` applies one channel to one realized reward vector; the batched
recorder in ``kernels`` is tested query by query against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError

__all__ = ["MODELS", "check_model", "Observation", "validate_query", "observe"]

MODELS = ("bandit", "marked", "semi")


def check_model(model: str) -> None:
    """Raise ``DomainError`` unless ``model`` names one of ``MODELS``."""
    if model not in MODELS:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")


def validate_query(arms: Iterable[int], n: int) -> tuple[int, ...]:
    """Check a query against the arm count; returns it sorted."""
    q = tuple(sorted(int(a) for a in arms))
    if not q:
        raise DomainError("query must be nonempty")
    if len(set(q)) != len(q):
        raise DomainError("query arms must be distinct")
    if q[0] < 0 or q[-1] >= n:
        raise DomainError("arm index out of range")
    return q


@dataclass(frozen=True)
class Observation:
    """One feedback event; carries the query it answers.

    Exactly one payload field is set per model: ``bit`` (bandit),
    ``marked`` (marked; None encodes the empty marking), ``bits`` (semi,
    aligned with the sorted query).
    """

    model: str
    query: tuple[int, ...]
    bit: int | None = None
    marked: int | None = None
    bits: tuple[int, ...] | None = None


def observe(x: np.ndarray, query: Iterable[int], model: str,
            rng: np.random.Generator) -> Observation:
    """Apply one feedback channel to a realized reward vector."""
    check_model(model)
    q = validate_query(query, n=len(x))
    vals = np.asarray([x[a] for a in q], dtype=np.uint8)
    if model == "bandit":
        return Observation(model=model, query=q, bit=int(vals.max()))
    if model == "semi":
        return Observation(model=model, query=q, bits=tuple(int(v) for v in vals))
    winners = [a for a, v in zip(q, vals) if v == 1]
    if not winners:
        return Observation(model=model, query=q, marked=None)
    return Observation(model=model, query=q, marked=int(winners[int(rng.random() * len(winners))]))

