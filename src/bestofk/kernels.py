"""Query layout and win recording for batched uniform-play stages.

Per-play layout: a permutation of the sampling pool is cut into ``m // k1``
record blocks of size k1; leftovers form a remainder block padded back to
size k1 by the leading permutation slots (a uniform subset of the
non-remainder arms).  Every query appends the play's top-off arms.  Record
slots always come first within a query, so marked winners are attributed by
slot position.

``permute_pool`` orders each play's pool by its uniform keys.  A key from
``Generator.random`` is j * 2**-53 for an integer j < 2**53, and the key and
the arm pack into one uint64 code, ((j >> s) << b) | arm with b the bit
length of the largest arm and s = max(0, b - 11) the key bits dropped to make
room for it (none while every arm is below 2**11).  While every arm is below
2**10, j << b is below 2**63 and one multiply by 2**(53 + b) packs the key;
otherwise the truncated key is shifted.  One in-place sort of the codes
orders the arms by key (keys that agree in their top 53 - s bits by arm,
which is pool order), and masking the codes down to their low b bits leaves
the permuted arms where the codes were.  A stage's top-off arms are
the leading arms of its top-off pool in this order (the ``argmin``'s, for one).

``play_arms`` writes the layout into one (plays, queries, k1 + k2) arm
buffer: pool blocks, then the padded remainder block, then the top-off arms
broadcast into every query (or the order itself, when k1 divides m and
there is no top-off).  The caller draws reward bits for exactly those arms,
and ``record_plays`` credits wins through the permuted pool order: position
i is recorded at slot i % k1 of query i // k1 and nowhere else.  Under
bandit feedback one ``np.bincount`` over the order, weighted by each
position's query OR (gathered through i // k1), counts the wins; semi
credits are sparse, so semi counts the order positions whose slot reads 1.
The bits come row-major from product and planted draws and slot-major (each
slot's column contiguous) from the gathering coverage and joint-table draws.
Bandit and marked read them column by column either way; semi reads
row-major bits as bool through one reshape and copies slot-major bits slot
by slot into a row-major bool table, as a reshape would copy across the
slots.
A marked query credits at most one slot, the winner numbered
tgt = floor(u * wins) from 0 in slot order: with a running count of wins
over the k1 pool slots, it credits slot c = #{s < k1 : count_s <= tgt}
when the count after slot k1 - 1 exceeds tgt, which is order position
query * k1 + c unless that is past m (the remainder block's padding).  One
``np.bincount`` counts those positions' arms; no per-slot hit table is
built.

``stage_play`` passes the codes and the arm buffer as ``out``: views of
buffers held for the life of the process (``measures.held_buffer``), as are
the chunk's permutation keys, the product draw's uniforms and gathered
means, and the planted draw's doubles and its gathered cells, thresholds
and gates.  Freed, these multi-megabyte chunk arrays are trimmed off the heap by glibc and
page-faulted in again by the next chunk; held, each grows to the largest
chunk asked of it, at most ``DRAW_ELEMENTS`` pool or query slots plus the
remainder block's padding.  They are filled with ``out=``
arguments; ``np.take`` gets ``mode="clip"`` (its indices are in range),
because in its default raise mode it fills a fresh copy of ``out``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .game import check_model
from .measures import fold_columns, held_buffer

__all__ = [
    "PACKED_ARM_BITS",
    "active_backend",
    "permute_pool",
    "play_arms",
    "record_plays",
    "queries_per_play",
]


def active_backend() -> str:
    """Name of the recording implementation; numpy is the only one."""
    return "numpy"


def queries_per_play(m: int, k1: int) -> int:
    """ceil(m / k1): block count including the padded remainder block."""
    return -(-m // k1)


# Generator.random keys carry 53 bits, which leaves 11 bits of a uint64 for the arm
PACKED_ARM_BITS = 64 - 53


def permute_pool(keys: np.ndarray, pool: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Order each play's pool by its keys.

    keys  float64 (B, m): uniforms from ``Generator.random``, one per pool arm
    pool  int64 (m,): the pool's arms, ascending
    out   int64 (B, m): the buffer to write into; every element is overwritten

    Returns ``out``, row i holding ``pool`` in the order of a stable argsort
    of ``keys[i]`` cut to their top 53 - s bits, s being the bits the
    largest arm needs beyond ``PACKED_ARM_BITS`` (0 for arms below 2**11):
    keys that agree in those bits keep pool order.  Below 2**10 one multiply
    packs each code; from there on the key is shifted after its multiply.
    """
    arm_bits = int(pool[-1]).bit_length()
    codes = out.view(np.uint64)
    if arm_bits < PACKED_ARM_BITS:
        # every arm is below 2**10: keys * 2**(53 + b) is j << b, exact in float64
        # and below 2**63, so one multiply into int64 packs the key
        np.multiply(keys, 2.0 ** (53 + arm_bits), out=out, casting="unsafe")
    else:
        # keys * 2**(53 - s) truncates to j >> s, exact in float64 and in int64; numpy
        # casts a float of 2**63 or more to uint64 several times slower, so shift after
        np.multiply(keys, 2.0 ** (53 + PACKED_ARM_BITS - arm_bits), out=out, casting="unsafe")
        codes <<= arm_bits
    codes |= pool.view(np.uint64)
    codes.sort(axis=1)
    codes &= np.uint64((1 << arm_bits) - 1)
    return out


def play_arms(order: np.ndarray, topoff: np.ndarray, k1: int, out: np.ndarray) -> np.ndarray:
    """Lay out a batch of plays as queries.

    order   int64 (B, m): each play's sampling pool in permuted order
    topoff  int64 (B, k2): per-play top-off arms (k2 may be 0)
    out     int64 (B, q, k1 + k2): the buffer to write the layout into; every
            element is overwritten

    Returns int64 (B, q, k1 + k2), the arms of every query: ``out``, or a
    view of ``order`` when k1 divides m and k2 is 0.
    """
    n_plays, m = order.shape
    k2 = topoff.shape[1]
    full, rem = divmod(m, k1)
    if not (rem or k2):
        return order.reshape(n_plays, full, k1)
    out[:, :full, :k1] = order[:, : full * k1].reshape(n_plays, full, k1)
    if rem:
        # the remainder block is padded by the first k1 - rem arms of the order
        out[:, full, :rem] = order[:, full * k1 :]
        out[:, full, rem:k1] = order[:, : k1 - rem]
    out[:, :, k1:] = topoff[:, None, :]
    return out


def record_plays(
    bits: np.ndarray,
    order: np.ndarray,
    k1: int,
    model: str,
    y_out: np.ndarray,
    mark_u: np.ndarray | None = None,
) -> np.ndarray:
    """Record a batch of plays into ``y_out`` (int64, length n, in place).

    bits    uint8 (B, q, w): the reward bit of every query slot of the layout
            ``play_arms`` builds from ``order`` with k1 pool slots a query,
            row-major or slot-major (``bits.strides`` tell which)
    order   int64 (B, m): each play's sampling pool in permuted order
    k1      the pool slots of a query, with 1 <= k1 <= w and q = ceil(m / k1)
    mark_u  float64 (B, q): winner-choice uniforms, needed under marked
            feedback only

    Order position i is recorded at slot i % k1 of query i // k1.  bandit
    credits every recorded slot of a winning query, semi every recorded slot
    that reads 1, marked the uniformly chosen winner if its slot is
    recorded: the winner numbered floor(u * wins) from 0 in slot order,
    found by its slot index from a running count of wins over the query's
    k1 pool slots.
    """
    check_model(model)
    if model == "marked" and mark_u is None:
        raise DomainError("marked feedback needs the winner-choice uniforms mark_u")
    n_plays, q, w = bits.shape
    m = order.shape[1]
    if not (1 <= k1 <= w and queries_per_play(m, k1) == q):
        raise DomainError(f"k1={k1} does not lay {m} pool arms out as {q} queries of {w} slots")
    if model == "bandit":
        # weight every order position by its query's OR, gathered straight into
        # float64 so that bincount makes no weight copy of its own; the buffer is
        # the permutation keys', which are spent once ``order`` is drawn
        won = np.take(fold_columns(bits, np.maximum, dtype=np.float64), np.arange(m) // k1,
                      axis=1, mode="clip", out=held_buffer("stage.keys", order.shape, np.float64))
        wins = np.bincount(order.ravel(), weights=won.ravel(), minlength=len(y_out))
        # whole counts below 2**53, exact in float64
        return np.add(y_out, wins, out=y_out, casting="unsafe")
    if model == "semi":
        if bits.strides[2] > bits.strides[1]:
            # slot-major bits: copy them slot by slot into a row-major table, each
            # slot one pass along the rows (a reshape would copy across the slots);
            # the 0/1 bytes read as bool
            hit = np.empty((n_plays, q, k1), dtype=bool)
            for s in range(k1):
                hit[:, :, s] = bits[:, :, s].view(bool)
            hit = hit.reshape(n_plays, q * k1)[:, :m]
        else:
            # row-major bits: the 0/1 bytes read as bool through one reshape
            hit = bits[:, :, :k1].view(bool).reshape(n_plays, q * k1)[:, :m]
        y_out += np.bincount(order.ravel()[np.flatnonzero(hit)], minlength=len(y_out))
        return y_out
    # marked: query (p, j) names the winner numbered tgt = floor(u * wins) from
    # 0 in slot order.  With count_s the wins in slots 0..s, that winner sits in
    # slot c = #{s < k1 : count_s <= tgt}, and c == k1 when it sits in no pool
    # slot (no winner, or one in a top-off slot).  Pool slot c records order
    # position j * k1 + c unless that is past m.  Every count fits the
    # narrowest unsigned dtype that holds w.
    pad = q * k1 - m  # the padding slots of the remainder block
    dtype = np.min_scalar_type(w)
    counts = np.empty((k1, n_plays, q), dtype=dtype)
    counts[0] = bits[:, :, 0]
    for s in range(1, k1):
        np.add(counts[s - 1], bits[:, :, s], out=counts[s])
    wins = counts[-1] if k1 == w else counts[-1] + fold_columns(bits[:, :, k1:], np.add, dtype)
    tgt = np.multiply(mark_u, wins, out=np.empty(wins.shape, dtype), casting="unsafe")
    slot = np.less_equal(counts, tgt).sum(axis=0, dtype=dtype)
    credited = slot < k1
    if pad:
        credited[:, -1] &= slot[:, -1] < k1 - pad
    # query i = p * q + j credits order position p * m + j * k1 + c = i * k1 - p * pad + c
    hit = np.flatnonzero(credited)
    pos = hit * k1
    if pad:
        pos -= hit // q * pad
    pos += slot.ravel()[hit]
    y_out += np.bincount(order.ravel().take(pos), minlength=len(y_out))
    return y_out
