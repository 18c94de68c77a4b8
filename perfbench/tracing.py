"""Span tracing of survcontrast from outside the package.

The tracer replaces each public function of the package's modules with a
wrapper that records a span (name, start, end, parent span) and puts the
original back when it is uninstalled. A function is wrapped at every name
its callers look it up by: the module attribute, every ``from .x import f``
binding in the other modules, and dict entries such as ``model.ACTIVATIONS``.
Methods are wrapped on their class. Nothing under ``src/`` is edited.

Spans stay in memory until the run ends. A layer's self time is a span's
duration minus the durations of its child spans, given in seconds and as a
share of the operation's wall time; counts (tape nodes, pairs, bytes) are
taken from return values at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

AUTODIFF_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "div", "scale", "exp", "log", "sqrt",
    "sigmoid", "relu", "reduce_sum", "reduce_mean", "logsumexp", "backward", "zero_grads",
)

# (module, attribute path) of every wrapped function; span name = module.path
TARGETS = (
    [("autodiff", op) for op in AUTODIFF_OPS]
    + [
        ("model", "init_model"),
        ("model", "HazardModel.save"),
        ("model", "HazardModel.load"),
        ("model", "HazardModel.hazard_curve"),
        ("model", "survival_from_hazard"),
        ("model", "risk_from_hazard"),
        ("losses", "build_pair_weights"),
        ("losses", "uniform_pair_weights"),
        ("losses", "snce_loss"),
        ("losses", "nll_loss"),
        ("losses", "ranking_loss"),
        ("data", "prepare"),
        ("data", "corrupt"),
        ("data", "iterate_batches"),
        ("trainer", "train"),
        ("trainer", "train_variant"),
        ("trainer", "contrastive_step"),
        ("trainer", "ranking_step"),
        ("trainer", "likelihood_step"),
        ("trainer", "Adam.step"),
        ("metrics", "evaluate_hazards"),
        ("metrics", "c_index_integrated"),
        ("metrics", "c_index_td"),
        ("metrics", "ibs"),
        ("metrics", "brier_score"),
        ("metrics", "kaplan_meier"),
        ("metrics", "censoring_km"),
        ("metrics", "d_calibration"),
        ("metrics", "ddc"),
        ("synth", "generate_paired_exponential"),
        ("synth", "generate_discrete_oracle"),
        ("cli", "main"),
    ]
)
PACKAGE = "survcontrast"
LAYERS = ("autodiff", "model", "losses", "data", "trainer", "metrics", "synth", "cli")
BOOKKEEPING = "trace.bookkeeping"

# metrics that must repeat exactly from one traced operation to the next
EXACT_SUFFIXES = (".calls", ".nodes_per_call", ".comparable_pairs", ".anchors_used_frac", ".checkpoint_bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._patches: list[tuple] = []
        for module, path in TARGETS:
            self._intern(f"{module}.{path}")
        self._intern(BOOKKEEPING)

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, after=None):
        nid = self._ids[name]
        book = self._ids[BOOKKEEPING]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per batch request: the time the consumer waits for it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                bidx = tracer._open(book)
                try:
                    after(tracer, result, args)
                finally:
                    tracer._close(bidx)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module_name, path in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{path}"
            after = AFTER_HOOKS.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, after))
                else:
                    patched = self._wrap(name, raw, after)
                self._patches.append((setattr, cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, after)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((setattr, mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patches.append((dict.__setitem__, value, dkey, original))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._patches):
            setter(owner, key, original)
        self._patches = []

    # -- summaries -------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a new phase."""
        self.counters = {}
        return len(self.start)

    def self_times(self, first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-name (self seconds, inclusive seconds, calls) of spans since ``first``."""
        nid = np.asarray(self.name_id[first:], dtype=np.int64)
        dur = np.asarray(self.end[first:]) - np.asarray(self.start[first:])
        parent = np.asarray(self.parent[first:], dtype=np.int64) - first
        if self._stack != [-1] or np.any(dur < 0):
            raise RuntimeError("spans still open")
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        n = len(self.names)
        return (
            np.bincount(nid, weights=dur - child, minlength=n),
            np.bincount(nid, weights=dur, minlength=n),
            np.bincount(nid, minlength=n),
        )

    def op_table(self, first: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced operation (spans since ``first``)."""
        self_s, incl_s, calls = self.self_times(first)
        table: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            if name == BOOKKEEPING:
                continue
            table[f"{name}.self_s"] = float(self_s[i])
            table[f"{name}.total_s"] = float(incl_s[i])
            table[f"{name}.calls"] = int(calls[i])
            layer_self[name.split(".")[0]] += float(self_s[i])
        for layer, value in layer_self.items():
            table[f"{layer}.self_s"] = value
        table["data.iterate_batches.wait_s"] = float(incl_s[self._ids["data.iterate_batches"]])
        backward_calls = int(calls[self._ids["autodiff.backward"]])
        table["autodiff.backward.nodes_per_call"] = self.counters.get("nodes", 0) / max(backward_calls, 1)
        table["losses.build_pair_weights.comparable_pairs"] = int(self.counters.get("pairs", 0))
        table["losses.build_pair_weights.anchors_used_frac"] = (
            self.counters.get("anchors_used", 0) / max(self.counters.get("anchors", 0), 1)
        )
        table["model.checkpoint_bytes"] = int(self.counters.get("checkpoint_bytes", 0))
        # every time also as a share of the operation's wall time
        for key in [k for k in table if k.endswith("_s")]:
            table[key.removesuffix("_s") + "_frac"] = table[key] / wall
        table["trace.bookkeeping_s"] = float(self_s[self._ids[BOOKKEEPING]])
        table["trace.wall_s"] = wall
        table["trace.coverage_frac"] = sum(layer_self.values()) / wall
        return table

    @staticmethod
    def combine(tables: list[dict]) -> tuple[dict, list[str]]:
        """Median of each timing over the traced operations; counts must repeat exactly."""
        combined, errors = {}, []
        for key in tables[0] if tables else ():
            values = [t[key] for t in tables]
            if key.endswith(EXACT_SUFFIXES):
                if any(v != values[0] for v in values[1:]):
                    errors.append(f"{key} differs between traced operations: {values}")
                combined[key] = values[0]
            else:
                combined[key] = float(np.median(values))
        return combined, errors

    def dump(self, path) -> None:
        """Write every recorded span: name index, start, end, parent span index."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
        )


def _after_backward(tracer: Tracer, tape, args) -> None:
    tracer.count("nodes", len(tape))


def _after_pair_weights(tracer: Tracer, pw, args) -> None:
    tracer.count("pairs", int(np.count_nonzero(pw.indicators)))
    tracer.count("anchors", pw.weights.shape[0])
    tracer.count("anchors_used", int(np.count_nonzero(pw.weights.sum(axis=1) > 0)))


def _after_save(tracer: Tracer, result, args) -> None:
    tracer.count("checkpoint_bytes", os.path.getsize(args[1]))


AFTER_HOOKS = {
    "autodiff.backward": _after_backward,
    "losses.build_pair_weights": _after_pair_weights,
    "model.HazardModel.save": _after_save,
}
