"""Per-layer tracing of chaoskit from outside the package.

`Tracer.patch()` wraps public functions of each chaoskit module, plus
`Basis.linearize`, `Basis.eval_all` and `SpectralFn.__post_init__`, and puts
the originals back on exit.  A wrapped function is replaced at every import
site (for example both `spectral.multiply` and `moments.multiply`), because
chaoskit modules import names from each other.

Spans are aggregated as they close instead of being stored: one joint-heavy
round makes about 1.5e4 wrapped calls.  Each thread keeps its own stack and
totals, so the hot path takes no lock; `experiments._grid_map` runs grid
points on pool threads.  A span's self time is its duration minus its child
spans on the same thread.  A root span on a pool thread is a child of the
client's `experiments.run` span, which therefore excludes the union of those
intervals.  With two pool threads sharing the interpreter lock their spans
overlap in wall time; `trace.thread_overlap_s` is that overlap, so

    trace.wall_s == sum of every self_s - trace.thread_overlap_s + trace.remainder_s

where the remainder is client time outside any span (config generation and
report verification by the benchmark).  Counts come from arguments and
results only, never from chaoskit's private state, so they repeat exactly
between runs of one seed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Coefficients at or below this share of a product's norm are quadrature
# residue (about 1e-15 at Hermite parity zeros), not real terms.
JUNK_REL = 1e-12

# (layer, attribute) pairs wrapped as spans; the layer is the module name.
FUNCTIONS = (
    ("basis", "make_basis"),
    ("spectral", "multiply"),
    ("spectral", "gamma"),
    ("spectral", "inner"),
    ("spectral", "is_chaotic"),
    ("spectral", "is_jointly_chaotic"),
    ("moments", "joint_report"),
    ("moments", "fmt_report"),
    ("moments", "mixed22"),
    ("moments", "var_gamma"),
    ("moments", "remainder_r"),
    ("moments", "prop31_bound"),
    ("moments", "thm33_sides"),
    ("wiener", "product_formula_check"),
    ("wiener", "multiple_integral"),
    ("wiener", "contract"),
    ("sequences", "spread"),
    ("sequences", "pair_mixed"),
    ("montecarlo", "sample"),
    ("montecarlo", "evaluate"),
    ("montecarlo", "cf_gap"),
    ("experiments", "run"),
)
# span name -> (module, class, method)
METHODS = {
    "basis.linearize": ("basis", "Basis", "linearize"),
    "basis.eval_all": ("basis", "Basis", "eval_all"),
    "spectral.SpectralFn": ("spectral", "SpectralFn", "__post_init__"),
}
BOOKKEEPING = "trace.bookkeeping"
SPANS = tuple(f"{m}.{a}" for m, a in FUNCTIONS) + tuple(METHODS)

# Extra per-layer counts: name -> unit.
COUNTS = {
    "spectral.multiply.pairs": "count",
    "spectral.multiply.out_terms": "count",
    "spectral.multiply.junk_terms": "count",
    "basis.eval_all.values": "count",
    "montecarlo.sample.draws": "count",
    "experiments.report_bytes": "B",
}
# Spans whose calls are keyed by input (see the hooks) to count repeats.
REPEAT_KEYS = ("basis.linearize", "montecarlo.evaluate")


def _space_key(space) -> tuple:
    return tuple((b.kind, b.max_degree) for b in space.coords)


def _count_multiply(tracer, counts, args, result) -> None:
    f, g = args
    counts["spectral.multiply.pairs"] += len(f.coeffs) * len(g.coeffs)
    values = np.fromiter(result.coeffs.values(), dtype=float, count=len(result.coeffs))
    counts["spectral.multiply.out_terms"] += values.size
    if values.size:
        limit = JUNK_REL * float(np.sqrt(values @ values))
        counts["spectral.multiply.junk_terms"] += int((np.abs(values) <= limit).sum())


def _count_linearize(tracer, counts, args, result) -> None:
    basis, m, n = args
    tracer.seen["basis.linearize"].add((basis.kind, basis.max_degree, min(m, n), max(m, n)))


def _count_eval_all(tracer, counts, args, result) -> None:
    counts["basis.eval_all.values"] += result.size


def _count_sample(tracer, counts, args, result) -> None:
    counts["montecarlo.sample.draws"] += result.points.size


def _count_evaluate(tracer, counts, args, result) -> None:
    f, batch = args
    tracer.seen["montecarlo.evaluate"].add(
        (batch.seed, batch.n_samples, _space_key(f.space), tuple(f.items_sorted()))
    )


def _count_run(tracer, counts, args, result) -> None:
    counts["experiments.report_bytes"] += (
        result.report_json.stat().st_size + result.report_csv.stat().st_size
    )


HOOKS = {
    "spectral.multiply": _count_multiply,
    "basis.linearize": _count_linearize,
    "basis.eval_all": _count_eval_all,
    "montecarlo.sample": _count_sample,
    "montecarlo.evaluate": _count_evaluate,
    "experiments.run": _count_run,
}


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open span
        self.spans = {name: [0, 0.0] for name in SPANS + (BOOKKEEPING,)}
        self.counts = dict.fromkeys(COUNTS, 0)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Span aggregator; create one per traced pass, then `with tracer.patch():`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._pool_intervals: list[tuple[float, float]] = []
        self.client = threading.get_ident()
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.client_root_s = 0.0  # client time inside root spans and their bookkeeping
        self.thread_overlap_s = 0.0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _close_root(self, t0: float, t1: float, self_s: float) -> float:
        """Account a span or bookkeeping with no parent on its thread; returns
        the self time after cross-thread children are taken out."""
        if threading.get_ident() != self.client:
            with self._lock:
                self._pool_intervals.append((t0, t1))
            return self_s
        with self._lock:
            inside = [(a, b) for a, b in self._pool_intervals if a >= t0 and b <= t1]
            self._pool_intervals = [iv for iv in self._pool_intervals if iv not in inside]
        covered = _union_length(inside)
        self.thread_overlap_s += sum(b - a for a, b in inside) - covered
        self.client_root_s += t1 - t0
        return self_s - covered

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self_s = t1 - t0 - stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                else:
                    self_s = tracer._close_root(t0, t1, self_s)
                agg = state.spans[name]
                agg[0] += 1
                agg[1] += self_s
            if hook is not None:
                hook(tracer, state.counts, args, result)
                t2 = perf_counter()
                agg = state.spans[BOOKKEEPING]
                agg[0] += 1
                agg[1] += t2 - t1
                if stack:
                    stack[-1] += t2 - t1
                else:
                    tracer._close_root(t1, t2, 0.0)
            return result

        return traced

    @contextmanager
    def patch(self):
        """Install the wrappers in every loaded chaoskit module; undo on exit."""
        for layer, _ in FUNCTIONS:
            importlib.import_module(f"chaoskit.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "chaoskit" or n.startswith("chaoskit."))]
        undo: list[tuple[object, str, object]] = []
        try:
            for layer, attr in FUNCTIONS:
                orig = getattr(sys.modules[f"chaoskit.{layer}"], attr)
                wrapped = self._wrap(f"{layer}.{attr}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            for name, (layer, cls_name, attr) in METHODS.items():
                cls = getattr(sys.modules[f"chaoskit.{layer}"], cls_name)
                orig = cls.__dict__[attr]
                undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(span name -> [calls, self_s], count name -> value) over all threads."""
        spans = {name: [0, 0.0] for name in SPANS + (BOOKKEEPING,)}
        counts = dict.fromkeys(COUNTS, 0)
        for state in self._states:
            for name, (calls, self_s) in state.spans.items():
                spans[name][0] += calls
                spans[name][1] += self_s
            for name, value in state.counts.items():
                counts[name] += value
        return spans, counts

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced pass."""
        spans, counts = self.totals()
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            calls, self_s = spans[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, unit in COUNTS.items():
            if name != "spectral.multiply.junk_terms":
                out[name] = (counts[name], unit)
        out_terms = counts["spectral.multiply.out_terms"]
        out["spectral.multiply.junk_ratio"] = (
            counts["spectral.multiply.junk_terms"] / out_terms if out_terms else 0.0, "ratio")
        for name in REPEAT_KEYS:
            calls = spans[name][0]
            out[f"{name}.repeat_ratio"] = (
                1.0 - len(self.seen[name]) / calls if calls else 0.0, "ratio")
        return out

    def accounting(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """The terms of the accounting identity for a pass of `wall_s` on the client."""
        spans, _ = self.totals()
        return {
            "trace.bookkeeping_s": (spans[BOOKKEEPING][1], "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.thread_overlap_s": (self.thread_overlap_s, "s"),
            "trace.remainder_s": (wall_s - self.client_root_s, "s"),
        }

    def accounting_problems(self, wall_s: float) -> list[str]:
        """Problems with wall = sum of self times - overlap + remainder, which
        holds to rounding when every pool span fell inside a client span."""
        spans, _ = self.totals()
        self_sum = sum(s for _, s in spans.values())
        remainder = wall_s - self.client_root_s
        err = abs(wall_s - (self_sum - self.thread_overlap_s + remainder))
        if err <= 1e-6 * wall_s:
            return []
        return [f"self times + remainder miss the traced wall time by {err:.3g} s"]
