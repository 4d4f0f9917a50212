"""Reward distributions over {0,1}^n and exact expected rewards.

Four measure families are supported:

* ``ProductMeasure`` -- n independent Bernoulli arms.
* ``PlantedMeasure`` -- one hidden k-subset made jointly dependent through a
  parity coupling while every proper sub-collection stays independent; the
  planted set beats every other k-subset by exactly ``p * mu**k``.
* ``CoverageMeasure`` -- arms are indicator sets over a finite universe; arm i
  fires when a uniform element lands in its set.
* ``JointTableMeasure`` -- an explicit joint table over {0,1}^k.

Arms are 0-based everywhere.  All randomness flows through explicit
``numpy.random.Generator`` instances; measures themselves are immutable and
safe to share across workers.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "ProductMeasure",
    "PlantedMeasure",
    "CoverageMeasure",
    "JointTableMeasure",
    "Measure",
    "make_planted",
    "planted_gap",
    "from_coverage",
    "sample_matrix",
    "fold_columns",
    "expected_max",
    "marginal_means",
    "optimal_subset",
    "measure_to_dict",
    "measure_from_dict",
    "dumps",
    "loads",
]

# Sum of a loaded joint table may deviate from 1 by at most this much before
# the load is rejected; smaller deviations are renormalized and recorded.
TABLE_NORMALIZATION_TOL = 1e-9
# A sum this close to 1 is rounding: the table is kept as given, so a
# renormalized table (whose sum is 1 only up to rounding) loads back unchanged.
TABLE_ROUNDING_TOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ProductMeasure:
    """n independent Bernoulli arms with means ``means``."""

    means: tuple[float, ...]

    def __post_init__(self):
        if len(self.means) < 1:
            raise DomainError("need at least one arm")
        if any(not (0.0 <= m <= 1.0) for m in self.means):
            raise DomainError("every mean must lie in [0, 1]")
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))

    @property
    def n(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class PlantedMeasure:
    """Parity-coupled hard instance hiding ``planted_set`` among independent arms.

    Latent variables: Y ~ Bernoulli(p), Z_i ~ Bernoulli(1/2), U_i ~ Bernoulli(2*mu).
    Every arm is Z_i * U_i except the first planted arm, whose Z is replaced by
    the complement of the parity of the other planted Zs whenever Y = 1.  All
    marginals equal mu; all strict sub-collections of the planted set are
    mutually independent.

    The dataclass itself tolerates p = 0 (the fully independent degenerate
    case, used by exact-table cross-checks); the public constructor
    ``make_planted`` requires p > 0.
    """

    n: int
    k: int
    mu: float
    p: float
    planted_set: tuple[int, ...]

    def __post_init__(self):
        if not (2 <= self.k <= self.n):
            raise DomainError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        if not (0.0 < self.mu <= 0.5):
            raise DomainError(f"need 0 < mu <= 1/2, got mu={self.mu}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"need 0 <= p <= 1, got p={self.p}")
        s = tuple(sorted(int(i) for i in self.planted_set))
        if len(s) != self.k or len(set(s)) != self.k:
            raise DomainError("planted_set must hold k distinct arms")
        if s[0] < 0 or s[-1] >= self.n:
            raise DomainError("planted_set arm out of range")
        object.__setattr__(self, "planted_set", s)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class CoverageMeasure:
    """Arm i fires iff a uniform element of a size-m universe lies in ``sets[i]``."""

    m: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("universe size m must be >= 1")
        if len(self.sets) < 1:
            raise DomainError("need at least one arm")
        frozen = tuple(frozenset(int(e) for e in s) for s in self.sets)
        for i, s in enumerate(frozen):
            for e in s:
                if not (0 <= e < self.m):
                    raise DomainError(f"set {i} holds element {e} outside [0, {self.m})")
        object.__setattr__(self, "sets", frozen)

    @property
    def n(self) -> int:
        return len(self.sets)

    @cached_property
    def members(self) -> np.ndarray:
        """(m, n) uint8 membership table: ``members[e, i]`` is 1 iff e is in sets[i]."""
        table = np.zeros((self.m, self.n), dtype=np.uint8)
        for i, s in enumerate(self.sets):
            if s:
                table[np.fromiter(s, dtype=np.int64), i] = 1
        table.flags.writeable = False
        return table

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per-arm bitmask over the universe: bit e of ``masks[i]`` is set iff e is in sets[i]."""
        return tuple(sum(1 << e for e in s) for s in self.sets)


@dataclass(frozen=True)
class JointTableMeasure:
    """Explicit joint table over {0,1}^k.

    ``probs[j]`` is the probability of the atom whose bit i equals
    ``(j >> i) & 1`` (arm i maps to bit i).  A loaded table whose mass deviates
    from 1 by at most ``TABLE_NORMALIZATION_TOL`` is renormalized; the applied
    correction is kept in ``normalization_correction``.
    """

    k: int
    probs: tuple[float, ...]
    normalization_correction: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("dimension k must be >= 1")
        if len(self.probs) != 2**self.k:
            raise DomainError(f"need 2**k = {2**self.k} atoms, got {len(self.probs)}")
        probs = np.asarray(self.probs, dtype=float)
        if np.any(probs < -1e-12):
            raise DomainError("negative atom probability")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > TABLE_NORMALIZATION_TOL:
            raise DomainError(f"atom mass {total} deviates from 1 beyond {TABLE_NORMALIZATION_TOL}")
        if abs(total - 1.0) > TABLE_ROUNDING_TOL:
            probs = probs / total
        object.__setattr__(self, "normalization_correction", total - 1.0)
        object.__setattr__(self, "probs", tuple(float(x) for x in probs))

    @property
    def n(self) -> int:
        return self.k


Measure = Union[ProductMeasure, PlantedMeasure, CoverageMeasure, JointTableMeasure]


def make_planted(n: int, k: int, mu: float, p: float,
                 planted_set: Sequence[int] | None = None) -> PlantedMeasure:
    """Build the planted dependent measure with gap ``p * mu**k``.

    Requires 2 <= k <= n, 0 < mu <= 1/2 (the coupling needs 2*mu <= 1) and
    0 < p <= 1.  ``planted_set`` defaults to arms 0..k-1 and may be any k
    distinct arms to relabel the hidden subset.
    """
    if not (0.0 < p <= 1.0):
        raise DomainError(f"need 0 < p <= 1, got p={p}")
    if planted_set is None:
        planted_set = tuple(range(k))
    return PlantedMeasure(n=n, k=k, mu=mu, p=p, planted_set=tuple(planted_set))


def planted_gap(mu: float, p: float, k: int) -> float:
    """Reward gap of the planted instance: ``p * mu**k``."""
    if k < 2:
        raise DomainError(f"need k >= 2, got k={k}")
    if not (0.0 < mu <= 0.5):
        raise DomainError(f"need 0 < mu <= 1/2, got mu={mu}")
    if not (0.0 < p <= 1.0):
        raise DomainError(f"need 0 < p <= 1, got p={p}")
    return p * mu**k


def from_coverage(m: int, sets: Sequence[Iterable[int]]) -> CoverageMeasure:
    """Coverage measure: arm i is the indicator of ``sets[i]`` under a uniform element."""
    return CoverageMeasure(m=m, sets=tuple(frozenset(s) for s in sets))


def sample_matrix(measure: Measure, rng: np.random.Generator, size: int,
                  arms: np.ndarray | None = None) -> np.ndarray:
    """Draw ``size`` independent reward vectors, each read at its row of ``arms``.

    ``arms`` is an int array of shape (size, w) naming the distinct
    coordinates each row observes; the result is a (size, w) uint8 array
    whose row i has the joint law of the measure on ``arms[i]``, drawn
    fresh per row.  Only the observed coordinates are drawn.  Without
    ``arms`` every row observes all n arms and the result is (size, n).

    ``PlantedMeasure`` rows draw Y and the k planted Zs, then one uniform
    per observed arm: a planted arm reads 1 when its Z is 1 and the uniform
    falls under 2*mu, any other arm when the uniform falls under mu (its Z*U
    is Bernoulli(mu) and independent of everything else).
    """
    if size < 0:
        raise DomainError("size must be >= 0")
    if arms is None:
        arms = np.broadcast_to(np.arange(measure.n), (size, measure.n))
    else:
        arms = np.asarray(arms, dtype=np.int64)
        if arms.ndim != 2 or arms.shape[0] != size:
            raise DomainError(f"arms must have shape ({size}, w), got {arms.shape}")
    if isinstance(measure, ProductMeasure):
        means = np.asarray(measure.means)
        return (rng.random(arms.shape) < means[arms]).astype(np.uint8)
    if isinstance(measure, PlantedMeasure):
        k, mu = measure.k, measure.mu
        y = rng.random(size) < measure.p
        z = rng.random((size, k)) < 0.5
        odd_rest = fold_columns(z[:, 1:], np.bitwise_xor)
        z[:, 0] = np.where(y, ~odd_rest, z[:, 0])  # Y=1 forces odd parity over the planted set
        # column j < k: threshold of planted arm j; column k: any other arm
        rate = np.concatenate([2.0 * mu * z, np.full((size, 1), mu)], axis=1)
        slot = np.full(measure.n, k)
        slot[list(measure.planted_set)] = np.arange(k)
        threshold = np.take_along_axis(rate, slot[arms], axis=1)
        return (rng.random(arms.shape) < threshold).astype(np.uint8)
    if isinstance(measure, CoverageMeasure):
        omega = rng.integers(0, measure.m, size=size)
        return measure.members[omega[:, None], arms]
    if isinstance(measure, JointTableMeasure):
        atoms = rng.choice(2**measure.k, size=size, p=np.asarray(measure.probs))
        return ((atoms[:, None] >> arms) & 1).astype(np.uint8)
    raise TypeError(f"unsupported measure type {type(measure).__name__}")


def fold_columns(bits: np.ndarray, op: np.ufunc, dtype=None) -> np.ndarray:
    """Combine the columns of ``bits`` (its last axis) with the binary ufunc ``op``.

    Works column by column on (..., w) views, accumulating in ``dtype``
    (default: the dtype of ``bits``).  For the few-wide query axis this is
    several times faster than a numpy reduction along it.
    """
    acc = bits[..., 0].astype(dtype or bits.dtype)
    for j in range(1, bits.shape[-1]):
        op(acc, bits[..., j], out=acc)
    return acc


def marginal_means(measure: Measure) -> tuple[float, ...]:
    """Exact marginal mean of every arm."""
    if isinstance(measure, ProductMeasure):
        return measure.means
    if isinstance(measure, PlantedMeasure):
        return (measure.mu,) * measure.n
    if isinstance(measure, CoverageMeasure):
        return tuple(len(s) / measure.m for s in measure.sets)
    if isinstance(measure, JointTableMeasure):
        probs = np.asarray(measure.probs)
        idx = np.arange(2**measure.k)
        return tuple(float(probs[(idx >> i) & 1 == 1].sum()) for i in range(measure.k))
    raise TypeError(f"unsupported measure type {type(measure).__name__}")


def expected_max(measure: Measure, arms: Iterable[int]) -> float:
    """Exact value of E[max over ``arms``] under the measure."""
    s = tuple(sorted(set(int(a) for a in arms)))
    if not s:
        raise DomainError("arms must be nonempty")
    if s[0] < 0 or s[-1] >= measure.n:
        raise DomainError("arm index out of range")

    if isinstance(measure, ProductMeasure):
        return 1.0 - math.prod(1.0 - measure.means[i] for i in s)
    if isinstance(measure, PlantedMeasure):
        mu, k, p = measure.mu, measure.k, measure.p
        if set(measure.planted_set) <= set(s):
            # all-zero mass over the planted block is (1-mu)^k - p*mu^k
            all_zero = ((1.0 - mu) ** k - p * mu**k) * (1.0 - mu) ** (len(s) - k)
        else:
            all_zero = (1.0 - mu) ** len(s)
        return 1.0 - all_zero
    if isinstance(measure, CoverageMeasure):
        return _coverage(measure.masks, measure.m, s)
    if isinstance(measure, JointTableMeasure):
        probs = np.asarray(measure.probs)
        idx = np.arange(2**measure.k)
        mask = np.zeros(len(idx), dtype=bool)
        for i in s:
            mask |= (idx >> i) & 1 == 1
        return float(probs[mask].sum())
    raise TypeError(f"unsupported measure type {type(measure).__name__}")


def optimal_subset(measure: Measure, k: int, cap: int = 100_000) -> tuple[int, ...] | None:
    """The unique reward-maximizing k-subset, or None if unknown/non-unique.

    Product and planted instances use closed forms; other measures enumerate
    expected_max over C(n, k) subsets when that count stays within ``cap``.
    """
    n = measure.n
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got k={k}")
    if isinstance(measure, ProductMeasure):
        order = sorted(range(n), key=lambda i: (-measure.means[i], i))
        if k < n and measure.means[order[k - 1]] == measure.means[order[k]]:
            return None
        return tuple(sorted(order[:k]))
    if isinstance(measure, PlantedMeasure):
        if k == measure.k and measure.p > 0:
            return measure.planted_set
        # fall through to enumeration for mismatched k
    if math.comb(n, k) > cap:
        return None
    if isinstance(measure, CoverageMeasure):
        # expected_max's value without its per-call argument checks
        value = partial(_coverage, measure.masks, measure.m)
    else:
        value = partial(expected_max, measure)
    best, best_val, runner_up = None, -1.0, -1.0
    for s in combinations(range(n), k):
        v = value(s)
        if v > best_val:
            best, best_val, runner_up = s, v, best_val
        elif v > runner_up:
            runner_up = v
    if best_val - runner_up <= 1e-12:
        return None
    return best


def _coverage(masks: Sequence[int], m: int, arms: Iterable[int]) -> float:
    """Share of the size-m universe covered by the union of the arms' sets."""
    union = 0
    for i in arms:
        union |= masks[i]
    return union.bit_count() / m


# ---------------------------------------------------------------------------
# Serialization: structured text documents, exact for binary rationals.
# ---------------------------------------------------------------------------

def measure_to_dict(measure: Measure) -> dict:
    if isinstance(measure, ProductMeasure):
        return {"type": "product", "n": measure.n, "means": list(measure.means)}
    if isinstance(measure, PlantedMeasure):
        return {
            "type": "planted",
            "n": measure.n,
            "k": measure.k,
            "mu": measure.mu,
            "p": measure.p,
            "planted_set": list(measure.planted_set),
        }
    if isinstance(measure, CoverageMeasure):
        return {
            "type": "coverage",
            "n": measure.n,
            "m": measure.m,
            "sets": [sorted(s) for s in measure.sets],
        }
    if isinstance(measure, JointTableMeasure):
        return {"type": "joint_table", "n": measure.n, "k": measure.k,
                "probs": list(measure.probs)}
    raise TypeError(f"unsupported measure type {type(measure).__name__}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(check(v) for v in value)


_FIELDS = {
    # key: (check, what a well-formed value is)
    "n": (_is_int, "an integer"),
    "k": (_is_int, "an integer"),
    "m": (_is_int, "an integer"),
    "mu": (_is_number, "a number"),
    "p": (_is_number, "a number"),
    "means": (_list_of(_is_number), "a list of numbers"),
    "probs": (_list_of(_is_number), "a list of numbers"),
    "planted_set": (_list_of(_is_int), "a list of integers"),
    "sets": (_list_of(_list_of(_is_int)), "a list of integer lists"),
}


def measure_from_dict(doc: dict) -> Measure:
    """Rebuild a measure from its document; a malformed document raises ``DomainError``."""
    if not isinstance(doc, dict):
        raise DomainError(f"a measure document must be an object, got {type(doc).__name__}")
    kind = doc.get("type")

    def get(key, default=None):
        if key not in doc:
            if default is not None:
                return default
            raise DomainError(f"{kind} measure document lacks the key {key!r}")
        check, what = _FIELDS[key]
        if not check(doc[key]):
            raise DomainError(
                f"{kind} measure key {key!r} must be {what}, got {reprlib.repr(doc[key])}"
            )
        return doc[key]

    if kind == "product":
        return ProductMeasure(means=tuple(get("means")))
    if kind == "planted":
        k = int(get("k"))
        return PlantedMeasure(
            n=int(get("n")),
            k=k,
            mu=float(get("mu")),
            p=float(get("p")),
            planted_set=tuple(get("planted_set", range(k))),
        )
    if kind == "coverage":
        return CoverageMeasure(m=int(get("m")), sets=tuple(frozenset(s) for s in get("sets")))
    if kind == "joint_table":
        return JointTableMeasure(k=int(get("k")), probs=tuple(get("probs")))
    raise DomainError(f"unknown measure type {kind!r}")


def dumps(measure: Measure) -> str:
    """Serialize to a JSON document; floats round-trip exactly."""
    return json.dumps(measure_to_dict(measure), sort_keys=True)


def loads(text: str) -> Measure:
    return measure_from_dict(json.loads(text))
