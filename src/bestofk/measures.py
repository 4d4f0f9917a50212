"""Reward distributions over {0,1}^n and exact expected rewards.

Four measure families are supported:

* ``ProductMeasure`` -- n independent Bernoulli arms.
* ``PlantedMeasure`` -- one hidden k-subset made jointly dependent through a
  parity coupling while every proper sub-collection stays independent; the
  planted set beats every other k-subset by exactly ``p * mu**k``.
* ``CoverageMeasure`` -- arms are indicator sets over a finite universe; arm i
  fires when a uniform element lands in its set.
* ``JointTableMeasure`` -- an explicit joint table over {0,1}^k.

Each family lives in one ``Measure`` subclass that holds its sampler
(``draw``), exact marginals and E[max], exact law by enumeration
(``exact_probs``, the oracle's source), best k-subset (``optimum``) and
document (``to_dict``: the class's compared fields).  Callers use those
methods directly.  Three module-level entry points stay because they check
their input: ``sample_matrix`` (the ``arms`` shape), ``expected_max`` (the
arm set) and ``optimal_subset`` (k); the benchmark's tracer also times
``sample_matrix`` and ``optimal_subset`` by name.

Arms are 0-based everywhere.  All randomness flows through explicit
``numpy.random.Generator`` instances; measures themselves are immutable and
safe to share across workers.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from itertools import combinations
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "ProductMeasure",
    "PlantedMeasure",
    "CoverageMeasure",
    "JointTableMeasure",
    "Measure",
    "SUBSET_CAP",
    "sample_matrix",
    "fold_columns",
    "expected_max",
    "optimal_subset",
    "measure_from_dict",
]

# Sum of a loaded joint table may deviate from 1 by at most this much before
# the load is rejected; smaller deviations are renormalized.
TABLE_NORMALIZATION_TOL = 1e-9
# A sum this close to 1 is rounding: the table is kept as given, so a
# renormalized table (whose sum is 1 only up to rounding) loads back unchanged.
TABLE_ROUNDING_TOL = 64 * np.finfo(float).eps
# Most k-subsets an enumeration over all of them may score.
SUBSET_CAP = 100_000
# Largest planted k: the gap p * mu**k <= 2**-k, and 2**-1075 is 0.0 in floating point.
PLANTED_K_MAX = 1074


class Measure(ABC):
    """A law over {0,1}^n.  Families are frozen dataclasses with an arm count
    ``n``; ``kind`` is the document type."""

    kind: ClassVar[str]

    @abstractmethod
    def draw(self, rng: np.random.Generator, arms: np.ndarray) -> np.ndarray:
        """(size, w) uint8 draws; row i has the joint law on the distinct ``arms[i]``."""

    @abstractmethod
    def marginals(self) -> tuple[float, ...]:
        """Exact marginal mean of every arm."""

    @abstractmethod
    def expected_max(self, s: Sequence[int]) -> float:
        """Exact E[max over ``s``] for sorted, distinct, in-range arms (unchecked)."""

    @abstractmethod
    def exact_probs(self, arms: Sequence[int]) -> np.ndarray:
        """Dense joint law of distinct ``arms`` by enumeration; atom bit b tracks ``arms[b]``."""

    def optimum(self, k: int) -> tuple[int, ...] | None:
        """The unique best k-subset by scoring all C(n, k), or None if tied or past the cap."""
        if math.comb(self.n, k) > SUBSET_CAP:
            return None
        value = self.expected_max
        best, best_val, runner_up = None, -1.0, -1.0
        for s in combinations(range(self.n), k):
            v = value(s)
            if v > best_val:
                best, best_val, runner_up = s, v, best_val
            elif v > runner_up:
                runner_up = v
        if best_val - runner_up <= 1e-12:
            return None
        return best

    def to_dict(self) -> dict:
        return document(self, type=self.kind, n=self.n)


def _product_probs(means: Sequence[float]) -> np.ndarray:
    """Dense product table; concat order makes atom bit b track variable b."""
    probs = np.ones(1)
    for m in means:
        probs = np.concatenate([probs * (1.0 - m), probs * m])
    return probs


def _marginalize(probs: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Dense law of the variables at ``positions`` of a dense joint table."""
    idx = np.arange(len(probs))
    code = np.zeros(len(idx), dtype=np.int64)
    for out_bit, p in enumerate(positions):
        code |= ((idx >> p) & 1) << out_bit
    sub = np.zeros(2 ** len(positions))
    np.add.at(sub, code, probs)
    return sub


@dataclass(frozen=True)
class ProductMeasure(Measure):
    """n independent Bernoulli arms with means ``means``."""

    kind: ClassVar[str] = "product"
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

    def draw(self, rng, arms):
        means = np.asarray(self.means)
        return (rng.random(arms.shape) < means[arms]).astype(np.uint8)

    def marginals(self):
        return self.means

    def expected_max(self, s):
        return 1.0 - math.prod(1.0 - self.means[i] for i in s)

    def exact_probs(self, arms):
        return _product_probs([self.means[a] for a in arms])

    def optimum(self, k):
        """The top k means; None when the k-th and (k+1)-th tie."""
        order = sorted(range(self.n), key=lambda i: (-self.means[i], i))
        if k < self.n and self.means[order[k - 1]] == self.means[order[k]]:
            return None
        return tuple(sorted(order[:k]))


@dataclass(frozen=True)
class PlantedMeasure(Measure):
    """Parity-coupled hard instance hiding ``planted_set`` among independent arms.

    Latent variables: Y ~ Bernoulli(p), Z_i ~ Bernoulli(1/2), U_i ~ Bernoulli(2*mu).
    Every arm is Z_i * U_i except the first planted arm, whose Z is replaced by
    the complement of the parity of the other planted Zs whenever Y = 1.  All
    marginals equal mu; all strict sub-collections of the planted set are
    mutually independent, and the planted set beats every other k-subset by
    ``p * mu**k``.  Needs 2 <= k <= n, 0 < mu <= 1/2 (the coupling needs
    2*mu <= 1) and 0 <= p <= 1; p = 0 is the fully independent degenerate
    case.  ``planted_set`` defaults to arms 0..k-1 and may be any k distinct
    arms.
    """

    kind: ClassVar[str] = "planted"
    n: int
    k: int
    mu: float
    p: float
    planted_set: Sequence[int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        if not (2 <= self.k <= self.n):
            raise DomainError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        if self.k > PLANTED_K_MAX:
            raise DomainError(f"need k <= {PLANTED_K_MAX} (the gap underflows), got k={self.k}")
        if not (0.0 < self.mu <= 0.5):
            raise DomainError(f"need 0 < mu <= 1/2, got mu={self.mu}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"need 0 <= p <= 1, got p={self.p}")
        given = range(self.k) if self.planted_set is None else self.planted_set
        s = tuple(sorted(int(i) for i in given))
        if len(s) != self.k or len(set(s)) != self.k:
            raise DomainError("planted_set must hold k distinct arms")
        if s[0] < 0 or s[-1] >= self.n:
            raise DomainError("planted_set arm out of range")
        object.__setattr__(self, "planted_set", s)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "p", float(self.p))

    def draw(self, rng, arms):
        """Draw Y and the k planted Zs, then one uniform per observed arm.

        A planted arm reads 1 when its Z is 1 and the uniform falls under
        2*mu, any other arm when the uniform falls under mu (its Z*U is
        Bernoulli(mu) and independent of everything else).
        """
        size, k, mu = len(arms), self.k, self.mu
        y = rng.random(size) < self.p
        z = rng.random((size, k)) < 0.5
        odd_rest = fold_columns(z[:, 1:], np.bitwise_xor)
        z[:, 0] = np.where(y, ~odd_rest, z[:, 0])  # Y=1 forces odd parity over the planted set
        # column j < k: threshold of planted arm j; column k: any other arm
        rate = np.concatenate([2.0 * mu * z, np.full((size, 1), mu)], axis=1)
        slot = np.full(self.n, k)
        slot[list(self.planted_set)] = np.arange(k)
        threshold = np.take_along_axis(rate, slot[arms], axis=1)
        return (rng.random(arms.shape) < threshold).astype(np.uint8)

    def marginals(self):
        return (self.mu,) * self.n

    def expected_max(self, s):
        mu, k = self.mu, self.k
        if set(self.planted_set) <= set(s):
            # all-zero mass over the planted block is (1-mu)^k - p*mu^k
            all_zero = ((1.0 - mu) ** k - self.p * mu**k) * (1.0 - mu) ** (len(s) - k)
        else:
            all_zero = (1.0 - mu) ** len(s)
        return 1.0 - all_zero

    def exact_probs(self, arms):
        """Enumerate the planted latents exactly.

        The effective Z vector over the planted set is uniform on {0,1}^k when
        Y=0 and uniform on the odd-parity strings when Y=1; given Z, the
        requested arms are independent with means Z_i * 2*mu (planted) or mu
        (outside), so each latent configuration contributes one product table.
        """
        mu, p, k = self.mu, self.p, self.k
        planted_pos = {a: j for j, a in enumerate(self.planted_set)}
        probs = np.zeros(2 ** len(arms))
        for z_code in range(2**k):
            odd = bin(z_code).count("1") % 2 == 1
            # Y=0 weight is uniform over all strings; Y=1 only over odd parity
            w = (1.0 - p) * 2.0**-k + (p * 2.0 ** -(k - 1) if odd else 0.0)
            if w == 0.0:
                continue
            means = [
                (2.0 * mu if (z_code >> planted_pos[a]) & 1 else 0.0)
                if a in planted_pos
                else mu
                for a in arms
            ]
            probs += w * _product_probs(means)
        return probs

    def optimum(self, k):
        """The planted set when k matches it; otherwise the C(n, k) enumeration."""
        if k == self.k and self.p > 0:
            return self.planted_set
        return super().optimum(k)


@dataclass(frozen=True)
class CoverageMeasure(Measure):
    """Arm i fires iff a uniform element of a size-m universe lies in ``sets[i]``."""

    kind: ClassVar[str] = "coverage"
    m: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
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

    def draw(self, rng, arms):
        omega = rng.integers(0, self.m, size=len(arms))
        return self.members[omega[:, None], arms]

    def marginals(self):
        return tuple(len(s) / self.m for s in self.sets)

    def expected_max(self, s):
        """Share of the universe covered by the union of the arms' sets."""
        masks, union = self.masks, 0
        for i in s:
            union |= masks[i]
        return union.bit_count() / self.m

    def exact_probs(self, arms):
        counts = np.zeros(2 ** len(arms))
        for omega in range(self.m):
            counts[sum(1 << b for b, a in enumerate(arms) if omega in self.sets[a])] += 1
        return counts / self.m


@dataclass(frozen=True)
class JointTableMeasure(Measure):
    """Explicit joint table over {0,1}^k.

    ``probs[j]`` is the probability of the atom whose bit i equals
    ``(j >> i) & 1`` (arm i maps to bit i).  A loaded table whose mass deviates
    from 1 by at most ``TABLE_NORMALIZATION_TOL`` is renormalized.  The table
    is the law, so the exact marginals and E[max] read it through ``exact_probs``.
    """

    kind: ClassVar[str] = "joint_table"
    k: int
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise DomainError("dimension k must be >= 1")
        atoms = len(self.probs)
        # bit lengths first: 2**k for a huge k would not fit in memory
        if atoms.bit_length() != self.k + 1 or atoms != 1 << self.k:
            raise DomainError(f"need 2**k atoms for k={self.k}, got {atoms}")
        probs = np.asarray(self.probs, dtype=float)
        if np.any(probs < -1e-12):
            raise DomainError("negative atom probability")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if not abs(total - 1.0) <= TABLE_NORMALIZATION_TOL:  # NaN mass fails too
            raise DomainError(f"atom mass {total} deviates from 1 beyond {TABLE_NORMALIZATION_TOL}")
        if abs(total - 1.0) > TABLE_ROUNDING_TOL:
            probs = probs / total
        object.__setattr__(self, "probs", tuple(float(x) for x in probs))

    @property
    def n(self) -> int:
        return self.k

    def draw(self, rng, arms):
        atoms = rng.choice(2**self.k, size=len(arms), p=np.asarray(self.probs))
        return ((atoms[:, None] >> arms) & 1).astype(np.uint8)

    def marginals(self):
        return tuple(float(self.exact_probs((i,))[1]) for i in range(self.k))

    def expected_max(self, s):
        return 1.0 - float(self.exact_probs(s)[0])

    def exact_probs(self, arms):
        return _marginalize(np.asarray(self.probs), arms)


_FAMILIES = {cls.kind: cls for cls in (ProductMeasure, PlantedMeasure, CoverageMeasure,
                                       JointTableMeasure)}


def sample_matrix(measure: Measure, rng: np.random.Generator, size: int,
                  arms: np.ndarray | None = None) -> np.ndarray:
    """Draw ``size`` independent reward vectors, each read at its row of ``arms``.

    ``arms`` is an int array of shape (size, w) naming the distinct
    coordinates each row observes; the result is a (size, w) uint8 array
    whose row i has the joint law of the measure on ``arms[i]``, drawn
    fresh per row.  Only the observed coordinates are drawn.  Without
    ``arms`` every row observes all n arms and the result is (size, n).
    """
    if size < 0:
        raise DomainError("size must be >= 0")
    if arms is None:
        arms = np.broadcast_to(np.arange(measure.n), (size, measure.n))
    else:
        arms = np.asarray(arms, dtype=np.int64)
        if arms.ndim != 2 or arms.shape[0] != size:
            raise DomainError(f"arms must have shape ({size}, w), got {arms.shape}")
    return measure.draw(rng, arms)


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


def expected_max(measure: Measure, arms: Iterable[int]) -> float:
    """Exact value of E[max over ``arms``] under the measure."""
    s = tuple(sorted(set(int(a) for a in arms)))
    if not s:
        raise DomainError("arms must be nonempty")
    if s[0] < 0 or s[-1] >= measure.n:
        raise DomainError("arm index out of range")
    return measure.expected_max(s)


def optimal_subset(measure: Measure, k: int) -> tuple[int, ...] | None:
    """The unique reward-maximizing k-subset, or None if unknown/non-unique."""
    if not (1 <= k <= measure.n):
        raise DomainError(f"need 1 <= k <= n, got k={k}")
    return measure.optimum(k)


# ---------------------------------------------------------------------------
# Documents: one key -> check table and one reader for every config and
# measure key, one writer for every record.  Floats round-trip exactly.
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is(*types):
    return lambda value: isinstance(value, types)


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(check(v) for v in value)


FIELDS = {
    # key: (check, what a well-formed value is); measure keys
    "n": (_is_int, "an integer"),
    "k": (_is_int, "an integer"),
    "m": (_is_int, "an integer"),
    "mu": (_is_number, "a number"),
    "p": (_is_number, "a number"),
    "means": (_list_of(_is_number), "a list of numbers"),
    "probs": (_list_of(_is_number), "a list of numbers"),
    "planted_set": (_list_of(_is_int), "a list of integers"),
    "sets": (_list_of(_list_of(_is_int)), "a list of integer lists"),
    # config keys (k is shared)
    "measure": (_is(dict), "an object"),
    "model": (_is(str), "a string"),
    "delta": (_is_number, "a number"),
    "algorithm": (_is(str), "a string"),
    "replicates": (_is_int, "an integer"),
    "base_seed": (_is_int, "an integer"),
    "exact_k_mode": (_is(bool, type(None)), "a bool or null"),
    "stage_cap": (_is_int, "an integer"),
    "out": (_is(str, type(None)), "a string or null"),
    "trace": (_is(bool), "a bool"),
}


def checked(label: str, key: str, value):
    """``value`` if it passes the ``FIELDS`` check of ``key``, else a ``DomainError``.

    Integers come back as plain ``int``: numpy integers pass the check but
    not ``json.dumps``.
    """
    check, what = FIELDS[key]
    if not check(value):
        raise DomainError(f"{label} key {key!r} must be {what}, got {reprlib.repr(value)}")
    return int(value) if check is _is_int else value


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DomainError(f"a {what} document must be an object, got {reprlib.repr(doc)}")
    return doc


def read_fields(cls, doc, label: str, ignored: Sequence[str] = ()) -> dict:
    """Checked keyword arguments for the dataclass ``cls`` from the JSON value ``doc``.

    ``doc`` must be an object whose keys are compared fields of ``cls`` or
    ``ignored`` keys (the caller reads those).  Every field without a default
    must be present, and every value present must pass its ``FIELDS`` check.
    Each failure is a one-line ``DomainError`` naming ``label``.
    """
    compared = [f for f in fields(cls) if f.compare]
    unknown = set(_object(doc, label)) - set(ignored) - {f.name for f in compared}
    if unknown:
        raise DomainError(f"unknown {label} keys: {sorted(unknown)}")
    values = {}
    for f in compared:
        if f.name in doc:
            values[f.name] = checked(label, f.name, doc[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise DomainError(f"{label} document lacks the key {f.name!r}")
    return values


def _plain(value):
    """A value as JSON data: tuples become lists, sets sorted lists, dict keys strings.

    String keys keep ``json.dumps(..., sort_keys=True)`` sorting key 10
    before key 2, as the written trace files do.
    """
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def document(record, **head) -> dict:
    """``head`` and the compared fields of the dataclass ``record``, as JSON data.

    A field declared ``compare=False`` is derived or volatile and is never written.
    """
    doc = dict(head)
    for f in fields(record):
        if f.compare:
            doc[f.name] = _plain(getattr(record, f.name))
    return doc


def measure_from_dict(doc: dict) -> Measure:
    """Rebuild a measure from its document; a malformed document raises ``DomainError``.

    ``type`` picks the family; the other keys are its compared fields (those
    with a default may be left out), read by ``read_fields``, and an optional
    ``n`` that must equal the measure's arm count.
    """
    kind = _object(doc, "measure").get("type")
    cls = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown measure type {kind!r}")
    measure = cls(**read_fields(cls, doc, f"{kind} measure", ignored=("type", "n")))
    if "n" in doc and not (_is_int(doc["n"]) and doc["n"] == measure.n):
        raise DomainError(f"{kind} measure key 'n' must be its arm count {measure.n}, "
                          f"got {reprlib.repr(doc['n'])}")
    return measure

