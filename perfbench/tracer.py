"""Spans and counters around k4graph's public functions, installed from outside.

``Tracer.install`` wraps each traced function and rebinds the wrapper under
every name that refers to the original in every loaded ``k4graph`` module
(``verification.signature``, ``cli.build_catalog``, ...) and in the
``verification.SUITES`` table, so calls made from inside the package are
caught as well as calls made by the benchmark.  No program file changes.

Each call records one span: function, parent span, start and end.  Self
time is a span's duration minus the durations of its direct child spans.
Gram-taking kernels also count the distinct Gram matrices they were given in
this process.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

# (module, function) pairs that get a span; the metric prefix is
# "<module>.<function>".
TRACED: Tuple[Tuple[str, str], ...] = (
    ("lattice", "inertia"),
    ("lattice", "orthogonal_sublattice"),
    ("lattice", "twist"),
    ("finite_forms", "smith_normal_form"),
    ("finite_forms", "discriminant_group"),
    ("finite_forms", "discriminant_quadratic"),
    ("finite_forms", "brown_invariant"),
    ("finite_forms", "lattices_equivalent"),
    ("catalog", "build_catalog"),
    ("elements", "search_witness"),
    ("elements", "enumerate_vectors"),
    ("elements", "classify_element"),
    ("elements", "construct_witness"),
    ("graphs", "find_flip_triple"),
    ("graphs", "verify_flip_cycle"),
    ("graphs", "structural_checks"),
    ("graphs", "synthesize_k4_plus"),
    ("graphs", "basic_cycles_regular"),
    ("graphs", "build_k4_graph"),
    ("verification", "suite_lattice"),
    ("verification", "suite_forms"),
    ("verification", "suite_catalog"),
    ("verification", "suite_predicates"),
    ("verification", "suite_graphs"),
    ("verification", "suite_synthesis"),
)


def _lattice_gram(lattice):
    return lattice.gram


def _matrix(rows):
    return tuple(tuple(row) for row in rows)


# Functions whose first positional argument is a Gram matrix (or a lattice
# holding one): the tracer counts the distinct matrices each one sees.
GRAM_KEYS: Dict[str, Callable] = {
    "lattice.inertia": _lattice_gram,
    "finite_forms.smith_normal_form": _matrix,
    "finite_forms.discriminant_group": _lattice_gram,
    "finite_forms.discriminant_quadratic": _lattice_gram,
}

# Searches whose useful outcome is a non-None result.
HIT_COUNTED = ("elements.search_witness", "graphs.find_flip_triple")


class Tracer:
    """Span recorder for one process; create it after ``import k4graph.cli``.

    Spans are recorded only inside ``with tracer:``.
    """

    def __init__(self) -> None:
        self.enabled = False
        # one span: (name, parent index or -1, start ns, end ns)
        self.spans: List[Tuple[str, int, int, int]] = []
        self.grams: Dict[str, set] = {name: set() for name in GRAM_KEYS}
        self.hits: Dict[str, int] = {name: 0 for name in HIT_COUNTED}
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        key_of = GRAM_KEYS.get(name)
        count_hit = name in self.hits
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if key_of is not None:
                self.grams[name].add(key_of(args[0]))
            idx = len(spans)
            spans.append((name, stack[-1] if stack else -1, 0, 0))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, spans[idx][1], start, end)
            if count_hit and result is not None:
                self.hits[name] += 1
            return result

        return functools.wraps(fn)(traced)

    def __enter__(self) -> "Tracer":
        self.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        self.enabled = False

    def install(self) -> None:
        """Rebind every traced function in every loaded k4graph namespace."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "k4graph" or name.startswith("k4graph."))
        }
        for modname, fname in TRACED:
            original = getattr(modules[f"k4graph.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            suites = modules["k4graph.verification"].SUITES
            for key, value in list(suites.items()):
                if value is original:
                    suites[key] = wrapper

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, distinct Grams, hits."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {f"{m}.{f}": {"calls": 0, "total_s": 0.0, "self_s": 0.0} for m, f in TRACED}
        for (name, parent, start, end), inner in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - inner) / 1e9
        for name, seen in self.grams.items():
            out[name]["distinct"] = len(seen)
        for name, hits in self.hits.items():
            out[name]["hits"] = hits
        return {"functions": out, "spans": len(self.spans)}


def aggregate(summaries: List[dict]) -> Dict[str, dict]:
    """Sum per-process summaries; distinct Grams are counted per process."""
    total: Dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary["functions"].items():
            acc = total.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    return total


def gram_repeat_share(functions: Dict[str, dict]) -> float:
    """Share of Gram-keyed kernel calls that repeat a Gram the kernel already saw."""
    calls = sum(functions.get(n, {}).get("calls", 0) for n in GRAM_KEYS)
    distinct = sum(functions.get(n, {}).get("distinct", 0) for n in GRAM_KEYS)
    return (calls - distinct) / calls if calls else 0.0
