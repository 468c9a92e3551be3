"""In-memory span tracer that wraps the package's public functions from outside.

`Tracer.install()` replaces every public function defined in a layer module,
and every public method of a public class defined there, with a wrapper that
records a span: (id, name, start, end, parent id, thread id, attrs). The
replacement is made in every namespace that binds the same object, so a name
imported into another module (``experiment.split`` is ``ingest.split``) is
traced too. `uninstall()` puts every original object back.

Each thread keeps its own parent stack. Thread pools in the package are
patched as well, so a task run on a worker thread gets the span that
submitted it as its parent. Spans stay in memory until `dump()` writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

PACKAGE = "multippi"
LAYERS = ("cli", "ingest", "textpred", "mlogit", "ppi", "experiment", "simulate")
# The CLI layer is traced at its entry point only: its self time is then
# argument handling plus artifact serialization and writes.
ONLY = {"cli": ("main",)}


def _newton_observer(fn, args, kwargs):
    """Count objective and Hessian evaluations made by one Newton solve."""
    counts = {"evals": 0, "hess": 0}

    def counted(key, inner):
        def call(theta):
            counts[key] += 1
            return inner(theta)
        return call

    args = (counted("evals", args[0]), counted("hess", args[1])) + tuple(args[2:])
    theta, diag = fn(*args, **kwargs)
    return (theta, diag), {"iterations": diag.iterations, **counts,
                           "backtracks": counts["evals"] - 1 - counts["hess"]}


def _kernel_observer(extra_per_row):
    """Rows and float64 bytes per mlogit kernel call.

    Bytes count the per-row arrays the kernel's definition produces: the
    x row (d), the class probabilities (K-1), plus ``extra_per_row(d, K-1)``.
    """
    def observe(fn, args, kwargs):
        result = fn(*args, **kwargs)
        theta, x = args[0], args[1]
        n, d = (1, len(x)) if x.ndim == 1 else x.shape
        km1 = len(theta) // d
        return result, {"rows": n, "bytes": 8 * n * (d + km1 + extra_per_row(d, km1))}
    return observe


def _attr_observer(**extract):
    def observe(fn, args, kwargs):
        result = fn(*args, **kwargs)
        return result, {key: get(result) for key, get in extract.items()}
    return observe


OBSERVERS = {
    "ingest.load_records": _attr_observer(rows=lambda r: r.n_rows_read),
    "textpred.tokenize": _attr_observer(tokens=len),
    "mlogit.nll": _kernel_observer(lambda d, k: 0),
    "mlogit.nll_grad": _kernel_observer(lambda d, k: 0),
    "mlogit.per_row_grads": _kernel_observer(lambda d, k: d * k),
    "mlogit.nll_hess": _kernel_observer(lambda d, k: d * d * k * k),
    "mlogit.newton_minimize": _newton_observer,
    "ppi.fit_classical": _attr_observer(status=lambda r: r.diagnostics.status),
    "ppi.fit_naive": _attr_observer(status=lambda r: r.diagnostics.status),
    "ppi.fit_multippi_report": _attr_observer(status=lambda r: r.diagnostics.status),
    "experiment.run_loso": _attr_observer(errors=lambda r: sum(len(s.errors) for s in r)),
}


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), None


class Tracer:
    """Wraps the package's public callables and records one span per call."""

    def __init__(self):
        self.modules = {}
        self.absent_layers = []
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent_layers.append(layer)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.targets: list[str] = []

    # -- discovery ---------------------------------------------------------

    def _discover(self) -> dict[str, object]:
        """Qualified name -> original callable for every traced target."""
        found = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer in ONLY and name not in ONLY[layer]:
                    continue
                if inspect.isfunction(obj):
                    found[f"{layer}.{name}"] = obj
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            found[f"{layer}.{name}.{meth}"] = (obj, meth, fn)
        return found

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        found = self._discover()
        wrappers = {}
        for qual, target in found.items():
            if inspect.isfunction(target):
                wrappers[id(target)] = (target, self._wrap(qual, target))
            else:
                cls, meth, fn = target
                self._patch(cls, meth, self._wrap(qual, fn))
        pool = self._traced_pool()
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if value is original:
                    self._patch(module, attr, wrapper)
                elif value is ThreadPoolExecutor:
                    self._patch(module, attr, pool)
        self.targets = sorted(found)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Innermost open span on this thread, else the one that submitted its task."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name, _plain)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            stack = tracer._stack()
            span_id = next(tracer._ids)
            stack.append(span_id)
            attrs = None
            start = perf_counter()
            try:
                result, attrs = observe(fn, args, kwargs)
                return result
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident(), attrs))

        return traced

    def _traced_pool(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            """Runs each task with the submitting span as its parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        return TracedThreadPoolExecutor

    def dump(self, path: str | Path) -> None:
        """Write spans as JSON: a name table plus one compact row per span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = {}
        rows = []
        for sid, name, start, end, parent, thread, attrs in self.spans:
            rows.append([sid, index[name], start, end, parent,
                         threads.setdefault(thread, len(threads)), attrs])
        Path(path).write_text(json.dumps({"names": names, "spans": rows}), encoding="utf-8")


def load_spans(path: str | Path) -> list[tuple]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    names = data["names"]
    return [(sid, names[n], start, end, parent, thread, attrs)
            for sid, n, start, end, parent, thread, attrs in data["spans"]]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children may overlap (tasks on a thread pool); the covered part is the
    length of the union of the children's intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out
