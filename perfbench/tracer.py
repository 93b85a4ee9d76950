"""Outside-in layer tracer for qsteiner.

The tracer wraps the public functions of the layer modules (plus the method
``SchemeInstance.adjacency_matrix``) from outside the package, so nothing
under ``src/`` changes.  ``cli`` and ``steiner`` import names directly
(``from .linalg import rank_exact``), so wrapping one module attribute is not
enough: every ``qsteiner`` module namespace, and every module-level dict such
as ``cli._RUNNERS``, that holds the original function object is rebound to
the wrapper, and ``uninstall`` restores each of those bindings.

Generator functions (``iter_subspaces``) are not wrapped: a wrapper would
time only the creation of the generator, so their iteration time stays in
the self time of whichever traced function consumes them.

Each call records one span: name, start, end and parent span.  Spans stay in
memory in flat arrays until ``summary`` folds them into per-layer calls,
self time and total time.  Self time is a span's duration minus the
durations of its child spans; total time counts only the outermost span of
a name, so recursion is not double counted.  The self times of all spans
plus the time no span covers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "qsteiner"
LAYER_MODULES = ("exactq", "identities", "gfspaces", "grassmann", "linalg",
                 "steiner", "cli")
TRACED_METHODS = (("grassmann", "SchemeInstance", "adjacency_matrix"),)


def _mat_mul_work(counts, args, kwargs, result):
    a, b = args
    counts["linalg.mat_mul.mults"] += a.rows * a.cols * b.cols


def _rank_exact_work(counts, args, kwargs, result):
    m = args[0]
    counts["linalg.rank_exact.cells"] += m.rows * m.cols


def _sample_work(counts, args, kwargs, result):
    counts["steiner.sample.attempts"] += result.attempts
    counts["steiner.sample.distinct"] += len(result.designs)


def _sweep_work(counts, args, kwargs, result):
    counts["identities.checked"] += result.checked
    counts["identities.skipped"] += result.skipped


# Work counts computed from argument shapes or return values; they repeat
# exactly from run to run.
WORK_COUNTS = {
    "linalg.mat_mul": _mat_mul_work,
    "linalg.rank_exact": _rank_exact_work,
    "steiner.sample_steiner": _sample_work,
    "identities.run_identity_sweep": _sweep_work,
}
WORK_COUNT_NAMES = ("linalg.mat_mul.mults", "linalg.rank_exact.cells",
                    "steiner.sample.attempts", "steiner.sample.distinct",
                    "identities.checked", "identities.skipped")


def traced_targets() -> list[tuple[str, object, object, str]]:
    """(layer name, original callable, owner, attribute) for every target.

    The owner is the module or class whose attribute defines the target.
    """
    targets = []
    for mod in LAYER_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        for attr, obj in vars(module).items():
            if (
                attr.startswith("_")
                or inspect.isclass(obj)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            targets.append((f"{mod}.{attr}", obj, module, attr))
    for mod, cls_name, attr in TRACED_METHODS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
        targets.append((f"{mod}.{cls_name}.{attr}", vars(cls)[attr], cls, attr))
    return targets


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records a span per call of every traced qsteiner function.

    Use as a context manager: entering rebinds the targets, leaving
    restores the originals.  ``summary`` is read after leaving.
    """

    def __init__(self):
        self.names: list[str] = []
        self.counts = {name: 0 for name in WORK_COUNT_NAMES}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = bytearray()  # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, name_id: int, fn, work):
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        stack, counts = self._stack, self.counts
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            outer.append(depth[0] == 0)
            ends.append(0.0)
            stack.append(sid)
            depth[0] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                depth[0] -= 1
                stack.pop()
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self.names:
            raise RuntimeError("a Tracer is installed only once")
        # Keyed by id(original); each wrapper's __wrapped__ keeps its
        # original alive, so the ids stay unique while installed.
        wrappers = {}
        methods = []
        for name, fn, owner, attr in traced_targets():
            self.names.append(name)
            wrapper = self._wrap(len(self.names) - 1, fn, WORK_COUNTS.get(name))
            if inspect.isclass(owner):
                methods.append((owner, attr, wrapper))
            else:
                wrappers[id(fn)] = wrapper
        for module in _package_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._bind(namespace, attr, wrappers[id(value)], is_dict=True)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._bind(value, key, wrappers[id(item)], is_dict=True)
        for cls, attr, wrapper in methods:
            self._bind(cls, attr, wrapper, is_dict=False)

    def _bind(self, owner, key, wrapper, is_dict: bool) -> None:
        if is_dict:
            self._restore.append((owner, key, owner[key], True))
            owner[key] = wrapper
        else:
            self._restore.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original, is_dict = self._restore.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- folding spans ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self and total time, plus the caller graph.

        ``covered_s`` is the time under root spans; the self times of all
        spans sum to it.
        """
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        child = array("d", bytes(8 * n))
        dur = array("d", bytes(8 * n))
        for i in range(n):
            d = ends[i] - starts[i]
            dur[i] = d
            p = parents[i]
            if p >= 0:
                child[p] += d
        width = len(self.names)
        calls = [0] * width
        self_s = [0.0] * width
        total_s = [0.0] * width
        edges: dict[tuple[int, int], list] = {}
        covered = 0.0
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            if outer[i]:
                total_s[k] += dur[i]
            p = parents[i]
            caller = names[p] if p >= 0 else -1
            if p < 0:
                covered += dur[i]
            edge = edges.get((caller, k))
            if edge is None:
                edges[(caller, k)] = [1, dur[i]]
            else:
                edge[0] += 1
                edge[1] += dur[i]
        layers = {
            name: {"calls": calls[k], "self_s": self_s[k], "total_s": total_s[k]}
            for k, name in enumerate(self.names)
        }
        graph = [
            {"caller": self.names[c] if c >= 0 else None, "callee": self.names[k],
             "calls": v[0], "total_s": v[1]}
            for (c, k), v in sorted(edges.items())
        ]
        return {"spans": n, "covered_s": covered, "layers": layers,
                "counts": dict(self.counts), "graph": graph}
