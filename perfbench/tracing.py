"""Span tracer that wraps convexlab's public functions from outside the package.

`Tracer.install()` replaces every public module-level function of every
loaded `convexlab.*` module, at every binding that refers to it (including
by-name imports such as `audit.energy` or `cli.audit_theorem`), plus
`RadicalSum.__mul__`/`__rmul__`/`__pow__`/`bounds`, with a wrapper that
records one span per call: (id, name, start, end, parent id, item id).
`Tracer.uninstall()` restores the original objects, so the untraced runs
execute the program exactly as shipped.

The wrapper's own bookkeeping (counting pairs, lattice widths, result sizes)
runs outside the timed part of the span and is subtracted from the parent
span as well, so self times measure the program, not the tracer.  A span's
self time is its duration minus the full cost of its direct children.
Spans opened in a pool thread take the main thread's innermost open span as
parent but are not subtracted from it: that parent's self time therefore
includes the time it waited for the pool, and span times in pool threads
include waiting for the interpreter lock.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from math import lcm
from time import perf_counter

RADICAL_METHODS = ("__mul__", "__rmul__", "__pow__", "bounds")
SET_PAIR_OPS = {"sets.sumset": "+", "sets.difference_set": "-", "sets.product_set": "*"}

# Functions whose outermost spans give an inclusive per-layer time.
GROUPS = {
    "comparison.compare_radical": "compare",
    "comparison.decimal_of": "render",
    "comparison.decimal_of_ratio": "render",
    "comparison.decimal_round_up": "render",
    "comparison.fraction_to_decimal": "render",
    "incidence.count_incidences": "count",
    "incidence.lemma_st1_ratio": "levels",
    "incidence.lemma_st2_ratio": "levels",
    "search.objective_core": "objective",
    "families.generate": "generate",
}
ENERGY_COUNTERS = (
    "energy.energy",
    "energy.energy_third",
    "energy.energy_threehalves",
    "energy.rep_function",
    "energy.energy_report",
    "energy.energy_cross_moment",
)
FIRST_RUNG_BITS = 128


def lattice_bits(a, b, op: str = "+") -> int:
    """Bit width of A op B on the common integer lattice of two sets of Fractions.

    For + and - it is the width of max|x| + max|y|, for * of max|x| * max|y|,
    with x, y the elements scaled by the lcm of all denominators.
    """
    if not len(a) or not len(b):
        return 0
    den = lcm(*(q.denominator for q in a), *(q.denominator for q in b))
    ma = max(abs(q.numerator) * (den // q.denominator) for q in a)
    mb = max(abs(q.numerator) * (den // q.denominator) for q in b)
    return (ma * mb if op == "*" else ma + mb).bit_length()


class PassStats:
    """Per-layer totals of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.group_s: dict[str, float] = {}
        self.spans = 0
        self.sets_pairs = self.sets_elements_out = self.sets_bits_max = 0
        self.energy_pairs = self.energy_counter_calls = self.energy_repeats = 0
        self.radical_terms_max = 0
        self.compare_calls = self.compare_first_rung = 0
        self.incidence_candidates = self.incidence_hits = 0
        self.audit_steps = 0
        self.search_steps = self.search_accepted = 0
        self.cli_bytes = 0

    def metrics(self) -> dict[str, float]:
        """Values of the per-layer metrics named in BENCHMARK.json."""
        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "sets.calls": self.calls.get("sets", 0),
            "sets.self_s": self.self_s.get("sets", 0.0),
            "sets.pairs": self.sets_pairs,
            "sets.elements_out": self.sets_elements_out,
            "sets.lattice_bits_max": self.sets_bits_max,
            "energy.calls": self.calls.get("energy", 0),
            "energy.self_s": self.self_s.get("energy", 0.0),
            "energy.pairs": self.energy_pairs,
            "energy.repeat_ratio": ratio(self.energy_repeats, self.energy_counter_calls),
            "functions.self_s": self.self_s.get("functions", 0.0),
            "radicals.self_s": self.self_s.get("radicals", 0.0),
            "radicals.terms_max": self.radical_terms_max,
            "comparison.compare_calls": self.compare_calls,
            "comparison.compare_s": self.group_s.get("compare", 0.0),
            "comparison.first_rung_ratio": ratio(self.compare_first_rung, self.compare_calls),
            "comparison.render_s": self.group_s.get("render", 0.0),
            "incidence.count_s": self.group_s.get("count", 0.0),
            "incidence.candidate_tests": self.incidence_candidates,
            "incidence.hit_ratio": ratio(self.incidence_hits, self.incidence_candidates),
            "incidence.levels_s": self.group_s.get("levels", 0.0),
            "audit.self_s": self.self_s.get("audit", 0.0),
            "audit.steps": self.audit_steps,
            "search.steps": self.search_steps,
            "search.objective_s": self.group_s.get("objective", 0.0),
            "search.accept_ratio": ratio(self.search_accepted, self.search_steps),
            "families.generate_s": self.group_s.get("generate", 0.0),
            "cli.self_s": self.self_s.get("cli", 0.0),
            "cli.bytes_out": self.cli_bytes,
        }


class _Frame:
    __slots__ = ("id", "key", "parent_id", "child_outer", "desc_overhead", "max_prec", "note")

    def __init__(self, span_id: int, key: str, parent_id: int | None):
        self.id = span_id
        self.key = key
        self.parent_id = parent_id
        self.child_outer = 0.0      # full cost (incl. bookkeeping) of direct children
        self.desc_overhead = 0.0    # tracer bookkeeping inside this span's interval
        self.max_prec = 0           # highest value_bounds precision below a compare
        self.note = None


class Tracer:
    """Records spans around convexlab's public functions while installed and enabled."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = PassStats()
        self.item: str | None = None
        self.enabled = True
        self._built: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self._signatures: dict[str, inspect.Signature] = {}

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of the loaded convexlab modules and RadicalSum's methods."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "convexlab" or name.startswith("convexlab."))]
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    key = f"{layer}.{name}"
                    self._signatures[key] = inspect.signature(obj)
                    wrappers[id(obj)] = (obj, self._wrap(obj, key, layer))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        radicals = sys.modules["convexlab.radicals"].RadicalSum
        for name in RADICAL_METHODS:
            original = radicals.__dict__[name]
            self._restore.append((radicals, name, original))
            setattr(radicals, name, self._wrap(original, f"radicals.RadicalSum.{name}", "radicals"))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def begin_item(self, item: str) -> None:
        self.item = item
        self._built = set()

    def _wrap(self, fn, key: str, layer: str):
        group = GROUPS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(fn, key, layer, group, args, kwargs)

        return traced

    # -- one traced call --------------------------------------------------
    def _call(self, fn, key, layer, group, args, kwargs):
        t0 = perf_counter()
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = (self._main_stack if threading.current_thread()
                                   is threading.main_thread() else [])
            local.depth = {}
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            parent_id = self._main_stack[-1].id
        else:
            parent_id = parent.id if parent is not None else None
        frame = _Frame(next(self._ids), key, parent_id)
        self._before(key, frame, stack, args, kwargs)
        outermost = False
        if group is not None:
            depth = local.depth.get(group, 0)
            outermost = depth == 0
            local.depth[group] = depth + 1
        stack.append(frame)
        t1 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t2 = perf_counter()
            self._end(frame, stack, parent, layer, group, outermost, t0, t1, t2, None, False)
            raise
        t2 = perf_counter()
        self._end(frame, stack, parent, layer, group, outermost, t0, t1, t2, result, True)
        return result

    def _end(self, frame, stack, parent, layer, group, outermost, t0, t1, t2, result, ok):
        stack.pop()
        if group is not None:
            self._local.depth[group] -= 1
        stats = self.stats
        duration = t2 - t1
        with self._lock:
            stats.spans += 1
            stats.calls[layer] = stats.calls.get(layer, 0) + 1
            stats.self_s[layer] = stats.self_s.get(layer, 0.0) + duration - frame.child_outer
            if outermost:
                stats.group_s[group] = stats.group_s.get(group, 0.0) + duration - frame.desc_overhead
            if frame.key == "comparison.compare_radical":
                stats.compare_calls += 1
                stats.compare_first_rung += frame.max_prec <= FIRST_RUNG_BITS
            if ok:
                self._after(frame, result, stats)
        self.spans.append((frame.id, frame.key, t1, t2, frame.parent_id, self.item))
        t3 = perf_counter()
        if parent is not None:
            parent.child_outer += t3 - t0
            parent.desc_overhead += (t1 - t0) + (t3 - t2) + frame.desc_overhead

    # -- layer counters ---------------------------------------------------
    def _bind(self, key, args, kwargs):
        bound = self._signatures[key].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _before(self, key, frame, stack, args, kwargs):
        if key in SET_PAIR_OPS:
            a, b = args[0], args[1]
            frame.note = (len(a) * len(b), lattice_bits(a, b, SET_PAIR_OPS[key]))
        elif key in ENERGY_COUNTERS:
            frame.note = self._counter_keys(key, self._bind(key, args, kwargs))
        elif key == "comparison.value_bounds":
            prec = self._bind(key, args, kwargs)["prec"]
            for outer in reversed(stack):
                if outer.key == "comparison.compare_radical":
                    outer.max_prec = max(outer.max_prec, prec)
                    break
        elif key == "radicals.RadicalSum.bounds":
            self.stats.radical_terms_max = max(self.stats.radical_terms_max, len(args[0].terms))
        elif key == "incidence.count_incidences":
            arg = self._bind(key, args, kwargs)
            frame.note = len(arg["family"]) * len(arg["grid"].xs)
        elif key.startswith("audit."):
            frame.note = not any(f.key.startswith("audit.") for f in stack)

    @staticmethod
    def _counter_keys(key, arg):
        """The (A, B, mode) pair counters a call builds, by value."""
        diff = "difference"
        if key == "energy.energy":
            return [(arg["a"].elements, arg["b"].elements, arg["via"])]
        if key == "energy.rep_function":
            return [(arg["a"].elements, arg["b"].elements, arg["mode"])]
        if key == "energy.energy_cross_moment":
            return [(arg["a"].elements, arg["a"].elements, diff),
                    (arg["b"].elements, arg["b"].elements, diff)]
        return [(arg["a"].elements, arg["a"].elements, diff)]

    def _after(self, frame, result, stats):
        key = frame.key
        if key in SET_PAIR_OPS:
            pairs, bits = frame.note
            stats.sets_pairs += pairs
            stats.sets_bits_max = max(stats.sets_bits_max, bits)
            stats.sets_elements_out += len(result)
        elif key in ENERGY_COUNTERS:
            keys = frame.note
            stats.energy_counter_calls += 1
            stats.energy_pairs += sum(len(a) * len(b) for a, b, _ in keys)
            stats.energy_repeats += all(k in self._built for k in keys)
            self._built.update(keys)
        elif key in ("radicals.RadicalSum.__mul__", "radicals.RadicalSum.__rmul__",
                     "radicals.RadicalSum.__pow__"):
            stats.radical_terms_max = max(stats.radical_terms_max, len(result.terms))
        elif key == "incidence.count_incidences":
            stats.incidence_candidates += frame.note
            stats.incidence_hits += result.incidences
        elif key == "search.extremal_search":
            stats.search_steps += len(result.traces)
            stats.search_accepted += sum(1 for t in result.traces if t["accepted"])
        elif key.startswith("audit.") and frame.note:
            stats.audit_steps += _count_reports(result)

    # -- output -----------------------------------------------------------
    def write_spans(self, path, origin: float) -> None:
        """Write every recorded span as one JSON line, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, key, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": span_id, "name": key, "start": start - origin,
                                     "end": end - origin, "parent": parent, "item": item}))
                fh.write("\n")


def _count_reports(result) -> int:
    """Audit reports produced by an outermost audit call (a chain, a tuple or one report)."""
    if hasattr(result, "steps"):
        return len(result.steps)
    if isinstance(result, (list, tuple)):
        return sum(1 for r in result if hasattr(r, "verdict"))
    return 1 if hasattr(result, "verdict") else 0
