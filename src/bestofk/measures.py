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
(``draw``), exact marginals and E[max], exact law as a signed mixture of
product laws (``components``, which ``Measure.exact_probs`` expands for the
oracle without calling a sampler), best k-subset (``optimum``), the doubles a
draw takes from the stream (``draw_doubles``, where it is a count) and document
(``to_dict``: the class's compared fields).  Callers use those methods
directly, and those methods trust their input.  Three module-level entry
points stay because they check it: ``sample_matrix`` (the ``arms`` shape and
range), ``expected_max`` (the arm set) and ``optimal_subset`` (k); the
benchmark's tracer also times ``sample_matrix`` and ``optimal_subset`` by name.

Scoring all C(n, k) subsets keeps one uniqueness rule, ``_unique_best``, and
one subset table, ``_enumerate_subsets`` (also the subset baselines' arms);
the coverage optimum scores in colex order instead, counting unions in
64-bit words packed from the ``members`` table that ``draw`` reads.

Product and planted draws compare each uniform with one gathered
threshold: their uniforms and thresholds, and the planted cells, are
``held_buffer`` scratch, and the planted threshold table is written over the
block's spent Y and Z doubles.  The planted sampler takes at most
``DRAW_ELEMENTS`` doubles (or one row) per generator call; callers bound
each draw's observed arms by ``DRAW_ELEMENTS``.  Product and planted draws
return row-major bits, as their uniforms come from the stream in row order.
The gathering draws (coverage and joint table) draw one value per row,
gather each query slot's bits from it one slot at a time along the rows and
return the transpose of a (w, rows) table: slot-major bits, each slot's
column contiguous.  No draw checks its arms (its ``np.take`` gathers clip,
as raise mode fills a fresh copy of ``out``, and the joint table's shifts
read 0): ``sample_matrix`` raises ``IndexError`` for an arm outside range(n)
before anything is taken from the stream.

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
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import DomainError, SubsetCapError

__all__ = [
    "ProductMeasure",
    "PlantedMeasure",
    "CoverageMeasure",
    "JointTableMeasure",
    "Measure",
    "SUBSET_CAP",
    "DRAW_ELEMENTS",
    "sample_matrix",
    "fold_columns",
    "held_buffer",
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


@lru_cache(maxsize=8)
def _enumerate_subsets(n: int, k: int) -> np.ndarray:
    """Read-only int64 (C(n, k), k): the k-subsets of range(n) in lexicographic
    order, one per row.  Built once per (n, k) and process; a count past
    ``SUBSET_CAP`` raises on every call, as a raised call is not cached."""
    count = math.comb(n, k)
    if count > SUBSET_CAP:
        raise SubsetCapError(f"C({n},{k}) = {count} exceeds the cap {SUBSET_CAP}")
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.int64,
                          count=count * k).reshape(count, k)
    subsets.flags.writeable = False
    return subsets


def _unique_best(values: np.ndarray) -> int | None:
    """Index of the first largest of ``values``, or None when the next largest
    (repeats counted) lies within 1e-12 of it."""
    best = int(values.argmax())
    if len(values) > 1 and values[best] - np.delete(values, best).max() <= 1e-12:
        return None
    return best


class Measure(ABC):
    """A law over {0,1}^n.  Families are frozen dataclasses with an arm count
    ``n``; ``kind`` is the document type."""

    kind: ClassVar[str]

    @abstractmethod
    def draw(self, rng: np.random.Generator, arms: np.ndarray) -> np.ndarray:
        """(rows, w) uint8 draws, row- or slot-major; row i has the joint law on
        the distinct, in-range ``arms[i]`` (unchecked)."""

    @abstractmethod
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float arrays w (C,), a and b (C, n); the law of arms A is sum_c w_c *
        prod_{j not in A} (a_cj + b_cj) * (x)_{j in A} (a_cj, b_cj)."""

    def marginals(self) -> tuple[float, ...]:
        """Exact marginal mean of every arm."""
        return tuple(float(self.exact_probs((i,))[1]) for i in range(self.n))

    def expected_max(self, s: Sequence[int]) -> float:
        """Exact E[max over ``s``] for sorted, distinct, in-range arms (unchecked)."""
        return 1.0 - float(self.exact_probs(s)[0])

    def exact_probs(self, arms: Sequence[int]) -> np.ndarray:
        """Dense law of distinct ``arms`` from ``components``; atom bit b tracks ``arms[b]``."""
        w, a, b = self.components()
        table = (w * np.prod(np.delete(a + b, list(arms), axis=1), axis=1))[:, None]
        for j in arms:
            table = np.concatenate([table * a[:, j, None], table * b[:, j, None]], axis=1)
        return table.sum(axis=0)

    def draw_doubles(self, size: int, w: int) -> int | None:
        """How many ``Generator.random`` doubles ``draw`` takes for ``size`` rows of
        ``w`` arms, or None when it reads the stream another way; a count is
        linear in ``size``."""
        return None

    def optimum(self, k: int) -> tuple[int, ...] | None:
        """The ``_unique_best`` row of ``_enumerate_subsets`` by E[max]; None past the cap."""
        if not 0 < math.comb(self.n, k) <= SUBSET_CAP:  # no k-subset when k > n
            return None
        subsets = _enumerate_subsets(self.n, k).tolist()
        best = _unique_best(np.array([self.expected_max(s) for s in subsets]))
        return None if best is None else tuple(subsets[best])

    def to_dict(self) -> dict:
        return document(self, type=self.kind, n=self.n)


def _marginalize(probs: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Dense law of the variables at ``positions`` of a dense joint table."""
    idx = np.arange(len(probs))
    code = np.zeros(len(idx), dtype=np.int64)
    for out_bit, p in enumerate(positions):
        code |= ((idx >> p) & 1) << out_bit
    return np.bincount(code, weights=probs, minlength=2 ** len(positions))


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

    @cached_property
    def mean_array(self) -> np.ndarray:
        """Read-only float array of ``means``, built once per measure."""
        means = np.asarray(self.means)
        means.flags.writeable = False
        return means

    def draw(self, rng, arms):
        """Compare held uniforms with held thresholds, the gathered means; the
        bits are fresh.

        ``np.take`` clips rather than raises, because in raise mode it fills a
        temporary copy of ``out``.
        """
        uniforms = rng.random(out=held_buffer("draw.uniforms", arms.shape, np.float64))
        thresholds = self.mean_array.take(
            arms, mode="clip", out=held_buffer("draw.thresholds", arms.shape, np.float64))
        return (uniforms < thresholds).view(np.uint8)

    def draw_doubles(self, size, w):
        return size * w

    def marginals(self):
        return self.means

    def expected_max(self, s):
        return 1.0 - math.prod(1.0 - self.means[i] for i in s)

    def components(self):
        return np.ones(1), 1.0 - self.mean_array[None], self.mean_array[None]

    def optimum(self, k):
        """The top k means; None when the runner-up, which swaps the top set's k-th
        mean for the (k+1)-th, has an E[max] within 1e-12 of the top set's."""
        order = sorted(range(self.n), key=lambda i: (-self.means[i], i))
        best = sorted(order[:k])
        if k < self.n and (self.expected_max(best)
                           - self.expected_max(sorted(order[: k - 1] + [order[k]])) <= 1e-12):
            return None
        return tuple(best)


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
        """One generator call per block of at most max(1, ``DRAW_ELEMENTS`` //
        (1 + k + w)) rows gives, in order, Y per row, the k planted Zs per row
        and one uniform per observed arm.

        An arm reads 1 when its uniform is under its threshold: 2*mu*Z for the
        planted arm in slot s, mu for any other.  For u in [0, 1), u < 2*mu*Z
        is Z and (u < 2*mu); any other arm's Z*U is Bernoulli(mu) and
        independent of everything else.  The thresholds are a (k + 1, size)
        table written over the block's spent Y and Z doubles: row s holds slot
        s's 2*mu*Z and row k holds mu, so an arm's threshold is read flat at
        ``slots[arm]`` * size + row.  Every pass runs along the rows, none
        along the few-wide slot or arm axis: the Zs are compared with 1/2 in
        the block's (size, k) layout and copied into (k, size) by one
        transposing pass, and the row offsets are added down the columns of
        the cell table (``order="C"`` on its transpose).

        The cell table and the threshold gather are ``held_buffer`` views that
        ``np.take`` fills in clip mode, as raise mode would fill a fresh copy
        of ``out``.  The returned bits are fresh.
        """
        size, k = len(arms), self.k
        rows = max(1, DRAW_ELEMENTS // (1 + k + arms.shape[1]))
        if size > rows:
            return np.concatenate([self.draw(rng, arms[i : i + rows])
                                   for i in range(0, size, rows)])
        block = (size * (1 + k + arms.shape[1]),)
        u = rng.random(out=held_buffer("draw.uniforms", block, np.float64))
        # the cells first, so their fresh row offsets are freed before the Zs' tables
        cell = (self.slots * size).take(arms, mode="clip",
                                        out=held_buffer("draw.cells", arms.shape, np.int64))
        np.add(cell.T, np.arange(size), out=cell.T, order="C")
        y = u[:size] < self.p
        z = np.ascontiguousarray((u[size : size * (1 + k)].reshape(size, k) < 0.5).T)
        # Y=1 forces odd parity over the planted set: flip Z_0 where Y and the
        # parity is even (y > parity is y and not parity)
        z[0] ^= y > np.bitwise_xor.reduce(z, axis=0)
        table = u[: size * (1 + k)].reshape(k + 1, size)
        np.multiply(z, 2.0 * self.mu, out=table[:k])
        table[k] = self.mu
        thresholds = table.take(cell, mode="clip",
                                out=held_buffer("draw.thresholds", arms.shape, np.float64))
        return (u[size * (1 + k) :].reshape(arms.shape) < thresholds).view(np.uint8)

    def draw_doubles(self, size, w):
        return size * (1 + self.k + w)  # the blocks of ``draw`` add up to this

    @cached_property
    def slots(self) -> np.ndarray:
        """Read-only int array: ``slots[a]`` is a's position in ``planted_set``, else k."""
        slots = np.full(self.n, self.k)
        slots[list(self.planted_set)] = np.arange(self.k)
        slots.flags.writeable = False
        return slots

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

    def components(self):
        """Bernoulli(mu) arms, less p times the same product with (a, b) = (mu, -mu)
        on each planted arm.  A planted arm summed out gives mu - mu = 0, so only
        laws that hold the whole planted set see the correction."""
        a = np.full((2, self.n), 1.0 - self.mu)
        b = np.full((2, self.n), self.mu)
        a[1, list(self.planted_set)] = self.mu
        b[1, list(self.planted_set)] = -self.mu
        return np.array([1.0, -self.p]), a, b

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

    def draw(self, rng, arms):
        """One uniform element ω per row; slot s of the row reads ``members`` at
        (ω, ``arms[:, s]``).

        Slot by slot, the flat cells ω·n + arm are written along the rows into
        one (rows,) buffer and gathered into row s of a (w, rows) table, whose
        transpose is returned: slot-major bits, each slot's column contiguous.
        The cell buffer is as fresh as ω: held, it raised the coverage
        workload's peak RSS by about 1 MB and saved no time.
        """
        omega = rng.integers(0, self.m, size=len(arms))
        omega *= self.n
        cells = np.empty_like(omega)
        table = self.members.ravel()
        bits = np.empty(arms.shape[::-1], dtype=np.uint8)
        for slot, column in zip(bits, arms.T):
            table.take(np.add(omega, column, out=cells), mode="clip", out=slot)
        return bits.T

    def marginals(self):
        return tuple(len(s) / self.m for s in self.sets)

    def expected_max(self, s):
        """Share of the universe covered by the union of the arms' sets."""
        return int(self.members[:, list(s)].any(axis=1).sum()) / self.m

    def components(self):
        """One point mass per distinct membership row, weighted by its share of the
        universe; built from ``sets``, so the law shares no table with ``draw``."""
        rows = np.zeros((self.m, self.n))
        for i, s in enumerate(self.sets):
            rows[list(s), i] = 1.0
        rows, counts = np.unique(rows, axis=0, return_counts=True)
        return counts / self.m, 1.0 - rows, rows

    def optimum(self, k):
        """``Measure.optimum``'s rule, with the unions of all k-subsets counted at once.

        The rows of ``members`` that some set holds are packed into 64-bit
        words, one column per arm.  In colex order the k-subsets whose largest
        arm is c are {c} joined to each (k-1)-subset of range(c), the first
        C(c, k-1) of their own order, so each subset size is built from the
        last by one OR per arm.  Blocks of words keep every array within
        ``DRAW_ELEMENTS`` elements, and ``np.bitwise_count`` counts the
        covered elements.  None past the cap.
        """
        n, total = self.n, math.comb(self.n, k)
        if not 1 <= k <= n or total > SUBSET_CAP:
            return None
        held = self.members[self.members.any(axis=1)]  # the elements some set holds
        bits = np.zeros((n, len(held) - len(held) % -64), dtype=np.uint8)
        bits[:, :len(held)] = held.T
        rows = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).T.copy()  # (words, n)
        covered = np.zeros(total, dtype=np.uint64)
        step = max(1, DRAW_ELEMENTS // total)
        for words in (rows[w:w + step] for w in range(0, len(rows), step)):
            level = words[:, :n - k + 1]  # the j-subsets that start a k-subset, for j = 1
            for j in range(2, k + 1):
                level, prev = np.empty((len(words), math.comb(n - k + j, j)), np.uint64), level
                for c in range(j - 1, n - k + j):
                    lo, hi = math.comb(c, j), math.comb(c + 1, j)
                    np.bitwise_or(prev[:, :hi - lo], words[:, c, None], out=level[:, lo:hi])
            covered += np.bitwise_count(level).sum(axis=0)
        best = _unique_best(covered / self.m)
        if best is None:
            return None
        subset, rank = [], best  # the subset of colex rank best, largest arm first
        for j in range(k, 0, -1):
            c = j - 1
            while math.comb(c + 1, j) <= rank:
                c += 1
            subset.append(c)
            rank -= math.comb(c, j)
        return tuple(reversed(subset))


@dataclass(frozen=True)
class JointTableMeasure(Measure):
    """Explicit joint table over {0,1}^k.

    ``probs[j]`` is the probability of the atom whose bit i equals
    ``(j >> i) & 1`` (arm i maps to bit i).  A loaded table whose mass deviates
    from 1 by at most ``TABLE_NORMALIZATION_TOL`` is renormalized.  The table
    is the law: ``exact_probs`` marginalizes it instead of its 2**k point masses.
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
        """One atom per row; slot s of the row reads bit ``arms[:, s]`` of it.

        Slot by slot along the rows, the bits go into row s of a (w, rows)
        table whose transpose is returned: slot-major bits, as the coverage
        draw returns.
        """
        atoms = rng.choice(2**self.k, size=len(arms), p=np.asarray(self.probs))
        bits = np.empty(arms.shape[::-1], dtype=np.uint8)
        for slot, column in zip(bits, arms.T):
            np.bitwise_and(atoms >> column, 1, out=slot, casting="unsafe")
        return bits.T

    def components(self):
        """One point mass per atom."""
        b = ((np.arange(2**self.k)[:, None] >> np.arange(self.k)) & 1).astype(float)
        return np.asarray(self.probs), 1.0 - b, b

    def exact_probs(self, arms):
        return _marginalize(np.asarray(self.probs), arms)


_FAMILIES = {cls.kind: cls for cls in (ProductMeasure, PlantedMeasure, CoverageMeasure,
                                       JointTableMeasure)}


def sample_matrix(measure: Measure, rng: np.random.Generator, arms: np.ndarray) -> np.ndarray:
    """Draw one independent reward vector per row of ``arms``, read at that row.

    ``arms`` is a 2-D int array of shape (rows, w) naming the distinct
    coordinates each row observes; the result is a (rows, w) uint8 array
    whose row i has the joint law of the measure on ``arms[i]``, drawn
    fresh per row.  Only the observed coordinates are drawn.  Product and
    planted draws return it row-major; the gathering coverage and
    joint-table draws return it slot-major (the transpose of a C-contiguous
    (w, rows) table), so read it by columns, or by its strides.

    The one range check of the sampler: a single pass over the arms viewed
    as uint64, where a negative arm reads 2**63 or more, raises
    ``IndexError`` for an arm outside range(n) before anything is taken from
    ``rng``.
    """
    arms = np.asarray(arms, dtype=np.int64)
    if arms.ndim != 2:
        raise DomainError(f"arms must be a 2-D (rows, w) array, got shape {arms.shape}")
    if arms.size and arms.view(np.uint64).max() >= measure.n:
        raise IndexError(f"{measure.kind} draw arms must lie in range({measure.n})")
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


# Flat scratch buffers by name, each as large as the largest view asked of it.
_HELD: dict[str, np.ndarray] = {}
# Bound on the elements of one stage chunk (plays x keys per play) and of one
# baseline draw (rows x observed arms), so their arrays stay flat in n and k.
DRAW_ELEMENTS = 2**20


def held_buffer(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous ``shape`` view of the flat scratch buffer held as ``name``.

    The buffer grows to the largest view asked of it and is kept for the life
    of the process, so a chunk loop writes its temporaries into pages that are
    already mapped instead of allocating, freeing and (after glibc trims the
    heap) page-faulting them in again on every chunk.  Its contents are
    whatever the last user wrote: fill the view before reading it, and never
    return it to a caller, because the next request under ``name`` overwrites it.
    """
    size = math.prod(shape)
    flat = _HELD.get(name)
    if flat is None or flat.dtype != dtype or flat.size < size:
        flat = _HELD[name] = np.empty(size, dtype=dtype)
    return flat[:size].reshape(shape)


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
    """A value as JSON data: tuples become lists, sets sorted lists, dict keys strings."""
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

