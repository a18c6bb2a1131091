"""Traced-run mode: spans around calls into covcat's public functions.

Spans are recorded from outside the library. ``Tracer.install`` wraps each
function in ``SPANNED`` and rebinds every ``covcat.*`` module attribute and
class attribute that refers to it (``refframe`` and ``cli`` import names
directly, so patching the defining module alone would miss their calls);
``uninstall`` puts the originals back. A span is (id, parent id, name, start,
end), kept in memory and written out by the caller when the run ends.

Self time is a span's duration minus its direct children's durations, so
summed over all spans plus the time outside any span it gives the pass wall
time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute path) of every spanned callable; classes are spanned at
# ``__init__``. The first path component names the layer.
SPANNED = (
    ("channels", "is_covariant"), ("channels", "Channel.apply"),
    ("channels", "Channel.choi"), ("channels", "env_channel"),
    ("channels", "induced_channel"), ("channels", "hs_dual"),
    ("diamond", "diamond_distance"),
    ("symmetry", "FiniteGroup"), ("symmetry", "FiniteGroupRep"),
    ("symmetry", "left_regular_representation"), ("symmetry", "tensor_rep"),
    ("words", "wiegmann_equivalent"), ("words", "find_simultaneous_unitary"),
    ("catalysis", "verify_scenario"), ("catalysis", "reduce_to_tuples"),
    ("catalysis", "correlation_balance"), ("catalysis", "find_intertwiner"),
    ("catalysis", "regular_rep_channel"), ("catalysis", "state_swap_channel"),
    ("catalysis", "rank_condition_counterexample"),
    ("refframe", "FrameScenario"), ("refframe", "catalytic_channel"),
    ("refframe", "recovery_channel"), ("refframe", "implementation_error"),
    ("refframe", "degradation_sweep"), ("refframe", "phase_reference_scenario"),
    ("linalg", "partial_trace"), ("linalg", "trace_distance"), ("linalg", "fidelity"),
    ("serialize", "matrix_from_json"), ("serialize", "load_json"),
    ("serialize", "write_json_atomic"), ("serialize", "dump_json"),
    ("cli", "main"),
)
# peak traced allocation is taken around these only, the two layers whose
# memory grows with d^4
ALLOC_TRACED = {"channels.is_covariant", "diamond.diamond_distance"}


def _count_diamond(counts, result):
    counts["diamond.diamond_distance.iterations"] += getattr(result, "iterations", 0)
    counts["diamond.diamond_distance.uncertified"] += getattr(result, "status", "") != "converged"


def _count_wiegmann(counts, result):
    counts["words.wiegmann_equivalent.words_checked"] += getattr(result, "words_checked", 0)


def _count_unitary(counts, result):
    counts["words.find_simultaneous_unitary.restarts_used"] += getattr(result, "restarts_used", 0)
    counts["words.find_simultaneous_unitary.successes"] += bool(getattr(result, "success", False))


# counts the program already returns, read from the returned objects
RESULT_COUNTS = {
    "diamond.diamond_distance": _count_diamond,
    "words.wiegmann_equivalent": _count_wiegmann,
    "words.find_simultaneous_unitary": _count_unitary,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict = defaultdict(float)
        self.peak_alloc: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, name, start, time.perf_counter())
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return spanned

    def _alloc(self, name: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_alloc[name] = max(self.peak_alloc[name], peak)

        return measured

    def install(self, alloc: bool = False) -> None:
        """Wrap every spanned callable and rebind all references to it.

        With ``alloc`` only ``ALLOC_TRACED`` are wrapped, to record their
        peak traced allocation instead of spans: tracemalloc slows every
        allocation, so it must not run in the passes that give self times.
        """
        covcat_modules = [m for n, m in sys.modules.items()
                          if n == "covcat" or n.startswith("covcat.")]
        for module_name, path in SPANNED:
            name = f"{module_name}.{path}"
            if alloc and name not in ALLOC_TRACED:
                continue
            wrap = self._alloc if alloc else self._span
            owner = sys.modules[f"covcat.{module_name}"]
            obj = getattr(owner, path.split(".")[0])
            if isinstance(obj, type):
                attr = path.split(".")[1] if "." in path else "__init__"
                self._bind(obj, attr, wrap(name, obj.__dict__[attr]))
                continue
            wrapper = wrap(name, obj)
            for module in covcat_modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        self._bind(module, attr, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()


def self_times(spans) -> tuple[dict, dict, float]:
    """Per-name call counts and self seconds, and the spanned root time."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls, self_s = defaultdict(int), defaultdict(float)
    root_time = 0.0
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        if parent is None:
            root_time += end - start
    return calls, self_s, root_time


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """The benchmark's per-layer metrics, per traced pass.

    ``traced_wall`` and ``untraced_wall`` are mean pass times with tracing on
    and off; their difference is the tracing overhead.
    """
    calls, self_s, root_time = self_times(tracer.spans)
    per = 1.0 / passes
    layer = defaultdict(float)
    for name, secs in self_s.items():
        layer[name.split(".")[0]] += secs
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{lay}.self_s": layer[lay] * per for lay in
         ("channels", "diamond", "symmetry", "words", "catalysis", "refframe",
          "linalg", "serialize")}
    for name in ("channels.is_covariant", "channels.Channel.apply",
                 "diamond.diamond_distance", "words.wiegmann_equivalent",
                 "words.find_simultaneous_unitary", "linalg.partial_trace",
                 "serialize.matrix_from_json", "cli.main"):
        m[f"{name}.calls"] = calls[name] * per
    for name in ("channels.is_covariant", "channels.Channel.apply", "channels.Channel.choi",
                 "channels.env_channel", "symmetry.FiniteGroup", "symmetry.FiniteGroupRep",
                 "words.wiegmann_equivalent", "words.find_simultaneous_unitary",
                 "catalysis.verify_scenario", "catalysis.reduce_to_tuples",
                 "catalysis.correlation_balance", "refframe.FrameScenario",
                 "refframe.catalytic_channel", "refframe.recovery_channel",
                 "linalg.partial_trace", "linalg.trace_distance", "linalg.fidelity",
                 "serialize.load_json", "serialize.write_json_atomic", "cli.main"):
        m[f"{name}.self_s"] = self_s[name] * per
    iters = counts["diamond.diamond_distance.iterations"]
    m["diamond.diamond_distance.iterations"] = iters * per
    m["diamond.diamond_distance.s_per_iter"] = ratio(self_s["diamond.diamond_distance"], iters)
    m["diamond.diamond_distance.uncertified_ratio"] = ratio(
        counts["diamond.diamond_distance.uncertified"], calls["diamond.diamond_distance"])
    for name in ALLOC_TRACED:
        m[f"{name}.peak_alloc_mb"] = tracer.peak_alloc[name]
    words = counts["words.wiegmann_equivalent.words_checked"]
    m["words.wiegmann_equivalent.words_checked"] = words * per
    m["words.wiegmann_equivalent.words_per_s"] = ratio(words, self_s["words.wiegmann_equivalent"])
    m["words.find_simultaneous_unitary.restarts_used"] = \
        counts["words.find_simultaneous_unitary.restarts_used"] * per
    m["words.find_simultaneous_unitary.success_ratio"] = ratio(
        counts["words.find_simultaneous_unitary.successes"],
        calls["words.find_simultaneous_unitary"])
    m["trace.wall_s"] = traced_wall
    m["trace.unspanned_s"] = traced_wall - root_time * per
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
