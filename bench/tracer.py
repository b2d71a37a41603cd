"""Per-layer tracing from outside the package.

``Tracer`` replaces the traced functions of the kum3check modules with
timing wrappers in every ``kum3check.*`` namespace that bound them (``from
.linalg import rank`` gives ``suites`` its own binding) and restores the
originals on exit.  Spans live in memory until ``write_spans`` writes them out.

Engine stages are timed without touching their descriptors: a probe
subclass records the order in which stage attributes first return, which is
a dependency order, and a fresh engine then forces the stages in that order
so each measured time is the stage's own work.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

# module -> traced attributes; "Class.method" patches the class attribute.
NAMED = {
    "config": ("parse_config",),
    "linalg": ("rank", "kernel_basis", "solve_linear", "Matrix.mat_vec"),
    "quadspace": ("sym2_pair", "sym2_product"),
    "wgeometry": (
        "build_gram19",
        "restrict_qbar",
        "restrict_w_other",
        "s_prime_vectors",
        "restrict_w_self",
        "d_self_pairings",
    ),
    "kummer": (
        "d_gram_certificate",
        "deg4_independence_certificate",
        "qbar_injectivity_certificate",
    ),
    "suites": ("run_suite",),
    "report": ("emit_json",),
}
# Modules measured as one aggregate over all their public functions.
AGGREGATED = ("fujiki", "bookkeeping")


def _cells(m, *_rest) -> int:
    return m.rows * m.cols


def _terms(x, y) -> int:
    return len(x.coeffs) * len(y.coeffs)


# Span name -> work measured from the call's arguments.
WORK: dict[str, Callable[..., object]] = {
    "linalg.rank": _cells,
    "linalg.kernel_basis": _cells,
    "linalg.solve_linear": _cells,
    "quadspace.sym2_pair": _terms,
    "suites.run_suite": lambda _engine, suite: suite,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    doc: str
    work: object
    error: str | None


class Tracer:
    """Context manager that wraps the traced functions and records spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.doc = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # traced names the package no longer has

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attrs in NAMED.items():
                module = importlib.import_module(f"kum3check.{module_name}")
                for attr in attrs:
                    self._install(module, module_name, attr)
            for module_name in AGGREGATED:
                module = importlib.import_module(f"kum3check.{module_name}")
                for attr, value in vars(module).copy().items():
                    if (
                        inspect.isfunction(value)
                        and value.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        self._install(module, module_name, attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, module, module_name: str, attr: str) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            if owner is None or method not in vars(owner):
                self.missing.add(f"{module_name}.{attr}")
                return
            self._patch(owner, method, self._wrap(f"{module_name}.{method}", vars(owner)[method]))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module_name}.{attr}")
            return
        wrapper = self._wrap(f"{module_name}.{attr}", original)
        for name, mod in list(sys.modules.items()):
            if name != "kum3check" and not name.startswith("kum3check."):
                continue
            for key, value in vars(mod).copy().items():
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, fn):
        measure = WORK.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            work = measure(*args, **kwargs) if measure else None
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.doc, work, error)
            if name == "report.emit_json":
                spans[index] = spans[index]._replace(work=len(result))
            return result

        traced.__wrapped__ = fn
        return traced


def write_spans(spans: list[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times (ms) of one traced pass.

    Function times are self times: the span's duration minus the duration
    of its direct child spans.  Suite times include their children.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        duration = span.end - span.start
        self_ms = (duration - child[i]) * 1000
        module = span.name.split(".")[0]
        if module in AGGREGATED:
            out[f"{module}.ms"] += self_ms
            out[f"{module}.calls"] += 1
            continue
        if span.name == "suites.run_suite":
            out[f"suites.{span.work}.ms"] += duration * 1000
            continue
        out[f"{span.name}.ms"] += self_ms
        out[f"{span.name}.calls"] += 1
        if span.name.startswith("linalg.") and span.work is not None:
            out["linalg.elim_cells"] += span.work
        elif span.name == "quadspace.sym2_pair":
            out["quadspace.sym2_pair.terms"] += span.work
        elif span.name == "report.emit_json":
            out["report.bytes"] += span.work
        elif span.name == "config.parse_config" and span.error == "ConfigError":
            out["config.rejected"] += 1
    return out


def stage_names(engine_cls) -> list[str]:
    """Public stage attributes of the engine class, in definition order."""
    return [
        name
        for name, value in vars(engine_cls).items()
        if not name.startswith("_")
        and not inspect.isfunction(value)
        and hasattr(value, "__get__")
    ]


def stage_order(engine_cls, doc, suite: str, run_suite) -> list[str]:
    """Stages ``suite`` uses, each listed after every stage it reads."""
    stages = set(stage_names(engine_cls))
    order: list[str] = []

    class Probe(engine_cls):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            if name in stages and name not in order:
                order.append(name)
            return value

    run_suite(Probe(doc), suite)
    return order


def stage_times(engine_cls, doc, order: list[str]) -> dict[str, float]:
    """Seconds per stage when forced in ``order`` on a fresh engine."""
    engine = engine_cls(doc)
    out = {}
    for name in order:
        start = perf_counter()
        try:
            getattr(engine, name)
        except Exception:
            pass  # a failing stage is retried by every stage that reads it
        out[name] = perf_counter() - start
    return out
