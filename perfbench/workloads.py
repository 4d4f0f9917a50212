"""The named benchmark workloads.

Each workload turns one workload seed into a ``bestofk run`` config document
(the seed is also the config's ``base_seed``) and knows the optimal subset of
the instance it builds, so the benchmark can check every returned subset
without trusting the program's own ``optimal_subset``.

``replicates`` is the size of one round: one ``bestofk run`` invocation.  A
benchmark run repeats identical rounds until its time is up, so the results
file of every round must hash the same.  Each round is sized to 1-2 s at the
nominal host speed at the commit that defined the benchmark, so a run holds
many rounds; each instance is built so that the work of a round hardly
depends on the seed.

Why each workload is in the set is recorded in ``BENCHMARK.json`` beside its
name; the short version sits next to each definition below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: int
    config: Callable[[int], dict]
    truth: tuple[int, ...]

    def config_doc(self, seed: int, replicates: int | None = None) -> dict:
        doc = self.config(seed)
        doc["base_seed"] = seed
        doc["replicates"] = replicates or self.replicates
        return doc


def _semi_product_n256(seed: int) -> dict:
    # Few huge sample_matrix calls; <=3% of the drawn bits are observed, so
    # drawing dominates and the recorder barely shows.  The top 8 means are
    # 0.1 above the rest, which keeps a replicate near 0.1 s.
    return {
        "measure": {"type": "product", "n": 256,
                    "means": ([0.9 - 0.1 * i / 7 for i in range(8)]
                              + [0.7 - 0.6 * i / 247 for i in range(248)])},
        "model": "semi", "k": 8, "delta": 0.1,
    }


def _bandit_product_n12(seed: int) -> dict:
    # Millisecond replicates with balancing and exact-k top-off active:
    # per-stage Python overhead, the bandit recorder and the harness loop.
    return {
        "measure": {"type": "product", "n": 12,
                    "means": [0.8, 0.7, 0.6] + [0.3] * 9},
        "model": "bandit", "k": 3, "delta": 0.1,
    }


COVERAGE_M = 256
COVERAGE_N = 64
COVERAGE_BLOCK = 48


def coverage_sets(seed: int) -> list[list[int]]:
    """Arms 0-2 cover three disjoint 48-element blocks; the other 61 arms are
    random sets of the 112 elements outside the blocks, with sizes spread
    evenly over 8-32.  Any other 3-subset covers at most 2*48 + 32 = 128 < 144
    elements, so {0, 1, 2} is the unique optimum.  Only the elements of the
    random arms change with the seed, not how close they come to the optimum,
    so the work per replicate hardly depends on the seed."""
    rng = random.Random(seed)
    sets = [list(range(b * COVERAGE_BLOCK, (b + 1) * COVERAGE_BLOCK)) for b in range(3)]
    outside = range(3 * COVERAGE_BLOCK, COVERAGE_M)
    others = COVERAGE_N - 3
    for j in range(others):
        sets.append(sorted(rng.sample(outside, 8 + 24 * j // (others - 1))))
    return sets


def _marked_coverage_n64(seed: int) -> dict:
    # Marked recorder, coverage sampler, C(64,3) enumeration in setup, and
    # stage-trace serialization (trace=True).
    return {
        "measure": {"type": "coverage", "n": COVERAGE_N, "m": COVERAGE_M,
                    "sets": coverage_sets(seed)},
        "model": "marked", "k": 3, "delta": 0.1, "trace": True,
    }


def _subset_planted_n8(seed: int) -> dict:
    # The only user of the planted sampler and of baselines: ~76k tiny
    # sample_matrix calls per replicate, so per-call overhead shows.
    return {
        "measure": {"type": "planted", "n": 8, "k": 2, "mu": 0.5, "p": 1.0},
        "model": "bandit", "k": 2, "delta": 0.1, "algorithm": "subset_arm",
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("semi-product-n256", 16, _semi_product_n256, tuple(range(8))),
        Workload("bandit-product-n12", 200, _bandit_product_n12, (0, 1, 2)),
        Workload("marked-coverage-n64", 40, _marked_coverage_n64, (0, 1, 2)),
        Workload("subset-planted-n8", 100, _subset_planted_n8, (0, 1)),
    )
}
