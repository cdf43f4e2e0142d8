"""Spans and counters recorded around the package's public functions, from outside.

Every wrapped function is replaced wherever it is looked up: in its own module,
in every module that imported it with ``from ... import`` and, for methods, on
the class. The package itself is not edited.
"""
from __future__ import annotations

import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "selcontrast"

# The wrapped functions by module; "Class.method" wraps a method on its class.
# Metric names are "<module>.<function>".
LAYERS = {
    "data": ["augment"],
    "network": ["forward", "backward", "sgd_step"],
    "losses": ["compute_loss_bundle", "mixup_contrastive", "masked_contrastive",
               "similarity_loss", "classification_loss", "unsup_contrastive"],
    "neighbors": ["aggregate_pseudo_labels", "EmbeddingBank.similarity_matrix"],
    "selection": ["run_selection", "select_confident_examples",
                  "build_pairs_from_confident", "select_confident_pairs", "union_pairs",
                  "SelectionState.pair_matrix"],
    "evaluation": ["weighted_knn_eval", "selection_precision"],
    "training": ["warmup", "pretrain_epoch", "finetune"],
}

SPAN_NAMES = [f"{module}.{attr.split('.')[-1]}"
              for module, attrs in LAYERS.items() for attr in attrs]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def replace_everywhere(module_name: str, attr: str, make) -> bool:
    """Swap `module.attr` for make(original) at every place it is looked up.

    Returns False when the module has no such attribute (the function is gone).
    """
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or method not in vars(cls):
            return False
        setattr(cls, method, make(vars(cls)[method]))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    replacement = make(original)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
    stale = [mod.__name__ for mod in _package_modules() if original in vars(mod).values()]
    if stale:
        raise RuntimeError(f"{module_name}.{attr} still unwrapped in {stale}")
    return True


class SelectionCapture:
    """Keeps the inputs and result of the latest run_selection call."""

    def __init__(self):
        self.last = None

    def wrap(self, fn):
        def capturing(bank, noisy_labels, pseudo, alpha, beta, *args, **kwargs):
            state = fn(bank, noisy_labels, pseudo, alpha, beta, *args, **kwargs)
            self.last = (bank, noisy_labels, pseudo, alpha, beta, state)
            return state
        return capturing

    def install(self) -> None:
        replace_everywhere("selection", "run_selection", self.wrap)


class Tracer:
    """In-memory spans (name, start, end, parent index) plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._end = math.inf
        self._end_counters = self.counters  # live until mark_end() takes a copy

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result
        return traced

    def install(self, capture: SelectionCapture | None = None) -> None:
        """Wrap every function in LAYERS; run_selection also feeds `capture`."""
        hooks = {
            "network.forward": dict(after=self._count_rows),
            "neighbors.similarity_matrix": dict(before=self._count_cache_hit),
            "selection.run_selection": dict(after=self._count_pairs),
        }
        for module, attrs in LAYERS.items():
            for attr in attrs:
                name = f"{module}.{attr.split('.')[-1]}"
                make = (lambda fn, name=name: self.wrap(name, fn, **hooks.get(name, {})))
                if name == "selection.run_selection" and capture is not None:
                    make = (lambda fn, inner=make: inner(capture.wrap(fn)))
                if not replace_everywhere(module, attr, make):
                    self.absent.append(name)

    def _count_rows(self, cache) -> None:
        self.counters["network.forward.rows"] += len(cache.x)

    def _count_cache_hit(self, args) -> None:
        bank = args[0]
        self.counters["neighbors.similarity_matrix.lookups"] += 1
        if getattr(bank, "_sims", None) is not None:
            self.counters["neighbors.similarity_matrix.hits"] += 1

    def _count_pairs(self, state) -> None:
        self.counters["selection.pairs_built"] += (len(state.pairs_confident)
                                                   + len(state.pairs_similar))
        self.counters["selection.pairs_kept"] += len(state.pairs)
        self.counters["selection.empty_fallbacks"] += (int(state.confident.size == 0)
                                                       + int(math.isinf(state.sim_threshold)))

    def mark_end(self) -> None:
        """Leave out of the summary whatever runs after this call."""
        self._end = perf_counter()
        self._end_counters = Counter(self.counters)

    def summary(self) -> dict:
        """Calls and self time per span name, the counters, and the duration of
        every training.pretrain_epoch span, all up to mark_end()."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        epoch_s = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            if start >= self._end:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
            if name == "training.pretrain_epoch":
                epoch_s.append(end - start)
        return {"calls": {name: calls[name] for name in SPAN_NAMES},
                "self_s": {name: self_s[name] for name in SPAN_NAMES},
                "counters": dict(self._end_counters),
                "epoch_s": epoch_s,
                "absent": self.absent}
