"""Layer tracing of bestofk from outside the package.

``Tracer.install`` replaces each traced public function with a timing wrapper
in every ``bestofk`` module namespace that holds it, so a name copied by
``from .measures import sample_matrix`` into ``elimination`` or ``baselines``
is wrapped where it is looked up, not only where it is defined.
``uninstall`` puts every original back.

Spans nest: a layer's self time is its span minus the spans of the traced
calls made inside it, so the self times of one run add up to the spans of its
outermost calls.  Counts are taken from call arguments and return shapes at
the same boundaries.

This module must not import bestofk: it patches whatever is already loaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# (defining module, function); the layer is called "<module>.<function>"
TARGETS = (
    ("bestofk.measures", "sample_matrix"),
    ("bestofk.measures", "optimal_subset"),
    ("bestofk.kernels", "record_plays"),
    ("bestofk.elimination", "stage_play"),
    ("bestofk.elimination", "confidence_radius"),
    ("bestofk.elimination", "elimination_step"),
    ("bestofk.elimination", "balance"),
    ("bestofk.elimination", "run_identification"),
    ("bestofk.baselines", "subset_arm_identify"),
    ("bestofk.harness", "run_experiment"),
    ("bestofk.harness", "summarize"),
    ("bestofk.harness", "write_results"),
)

# layers whose arguments a counter (or a nested sample_matrix call) reads
_BIND_ARGS = {
    "elimination.stage_play",
    "baselines.subset_arm_identify",
    "kernels.record_plays",
    "harness.write_results",
}

COUNTERS = (
    "measures.sample_matrix.bits_drawn",
    "kernels.record_plays.plays",
    "kernels.record_plays.queries",
    "elimination.stage_play.plays",
    "elimination.run_identification.stages",
    "harness.results_bytes",
)

ORIGINAL_ATTR = "_perfbench_original"


def layer_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def bestofk_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bestofk" or name.startswith("bestofk."))]


def patch_everywhere(original, wrapper) -> list[tuple[object, str, object]]:
    """Bind ``wrapper`` to every bestofk module name that refers to ``original``.

    Returns (module, attribute, original) triples for ``restore``.
    """
    setattr(wrapper, ORIGINAL_ATTR, original)
    patched = []
    for mod in bestofk_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, original))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)
    patched.clear()


def patched_names() -> list[str]:
    """Every bestofk module attribute that still holds a perfbench wrapper."""
    return sorted(
        f"{mod.__name__}.{attr}"
        for mod in bestofk_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, ORIGINAL_ATTR)
    )


class Tracer:
    """Span and counter recorder for the functions named in ``TARGETS``."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans, innermost last: [layer, child span seconds, bound args]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module, func in TARGETS:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(layer_name(module, func), original)
            self._patched += patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        restore(self._patched)

    def _wrap(self, layer: str, original):
        signature = inspect.signature(original) if layer in _BIND_ARGS else None
        counter = getattr(self, "_count_" + layer.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
            frame = [layer, 0.0, bound]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += span
                self.calls[layer] += 1
                self.self_s[layer] += span - frame[1]
            if counter is not None:
                counter(bound, result)
            return result

        return wrapper

    # -- counters, one per layer that has something to count ---------------

    def _count_measures_sample_matrix(self, bound, bits) -> None:
        rows, n = bits.shape
        self.counts["measures.sample_matrix.bits_drawn"] += rows * n
        self.counts["measures.sample_matrix.bits_useful"] += rows * self._observed_width(n)

    def _observed_width(self, n: int) -> int:
        """Coordinates one drawn row is read at, from the innermost caller we know."""
        for layer, _, args in reversed(self._stack):
            if layer == "elimination.stage_play":
                return args["k1"] + args["k2"]
            if layer == "baselines.subset_arm_identify":
                return args["k"]
        return n

    def _count_kernels_record_plays(self, bound, result) -> None:
        plays, queries = bound["bits"].shape[:2]
        self.counts["kernels.record_plays.plays"] += plays
        self.counts["kernels.record_plays.queries"] += plays * queries

    def _count_elimination_stage_play(self, bound, result) -> None:
        self.counts["elimination.stage_play.plays"] += bound["plays"]

    def _count_elimination_run_identification(self, bound, record) -> None:
        self.counts["elimination.run_identification.stages"] += record.stages

    def _count_harness_write_results(self, bound, result) -> None:
        self.counts["harness.results_bytes"] += Path(bound["path"]).stat().st_size

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s of every traced layer, plus every counter."""
        out: dict[str, float] = {}
        for module, func in TARGETS:
            layer = layer_name(module, func)
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTERS:
            out[name] = self.counts[name]
        drawn = self.counts["measures.sample_matrix.bits_drawn"]
        useful = self.counts["measures.sample_matrix.bits_useful"]
        out["measures.sample_matrix.useful_ratio"] = useful / drawn if drawn else 0.0
        return out

    def self_time_total(self) -> float:
        return sum(self.self_s.values())
