"""Span tracer that wraps glasso_prune functions from outside the package.

Modules import functions by name (``from .network import forward_batch``),
so wrapping only the defining module would miss most calls. ``install``
therefore replaces every binding of the original function object in every
loaded ``glasso_prune`` module, plus class attributes such as
``ExperimentConfig.load_splits``. ``restore`` puts every original back.

Spans live in memory as ``Span`` records; ``write_spans`` dumps them as
JSON lines when the benchmark ends. Counts are derived from argument and
result shapes, never from timing, so they repeat exactly between runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

PACKAGE = "glasso_prune"
WRAPPED_MARK = "__perfbench_wrapped__"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    iteration: int


def _glnn_bytes(net) -> int:
    # magic + version + layer count, then per layer rows, cols, weights, biases
    return 12 + sum(8 + 8 * (p.n_out * p.n_in + p.n_out) for p in net.layers)


def _count_sigmoid(counts, args, result):
    counts["linalg.sigmoid_elems"] += int(result.size)


def _count_forward(counts, args, result):
    net, xs = args[0], args[1]
    n = len(xs)
    for l, p in enumerate(net.layers, start=1):
        counts[f"network.fwd_flops.W{l}"] += 2 * n * p.n_in * p.n_out


def _count_save(counts, args, result):
    counts["model_io.bytes"] += _glnn_bytes(args[0])


def _count_load(counts, args, result):
    counts["model_io.bytes"] += _glnn_bytes(result)


def _count_curve(counts, args, result):
    counts["pruning.curve_points"] += len(result)


# (defining module, attribute path, span name, extra counter or None).
# Span names use the layer names of the per-layer metrics.
TARGETS = [
    ("linalg", "sigmoid", "linalg.sigmoid", _count_sigmoid),
    ("network", "forward_batch", "network.forward_batch", _count_forward),
    ("regularization", "regularizer_gradient", "regularization.gradient", None),
    ("regularization", "regularizer_value", "regularization.value", None),
    ("regularization", "group_norms", "regularization.group_norms", None),
    ("trainer", "train", "trainer.train", None),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("trainer", "mean_loss", "trainer.mean_loss", None),
    ("trainer", "disposable_counts", "trainer.disposable_counts", None),
    ("pruning", "apply_mask", "pruning.apply_mask", None),
    ("pruning", "forced_removal_curve", "pruning.curve", _count_curve),
    ("model_io", "save_model", "model_io.save", _count_save),
    ("model_io", "load_model", "model_io.load", _count_load),
    ("analysis", "norm_histogram", "analysis.norm_histogram", None),
    ("analysis", "write_bundle", "analysis.write_bundle", None),
    ("config", "ExperimentConfig.load_splits", "datasets.load_splits", None),
]


class Tracer:
    """Records nested spans and shape-derived counts while installed."""

    def __init__(self, workload: str = "", iteration: int = 0):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.workload = workload
        self.iteration = iteration
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span, under the current span, around the with-block."""
        span_id = self._open(name)
        try:
            yield
        finally:
            self._close(span_id)

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(span_id, name, time.perf_counter(), 0.0, parent,
                 self.workload, self.iteration)
        )
        self._stack.append(span_id)
        self.counts[name + ".calls"] += 1
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span_id)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every place it is bound in the package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, counter in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counter)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put back every original function, in reverse order of patching."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def write_spans(spans: list[Span], path) -> None:
    """Write spans as JSON lines, one span per line."""
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(asdict(s)) + "\n")


def _package_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]


def installed_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper anywhere in the package."""
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{key}.{meth}")
    return found


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        start, end = max(c.start, span.start), min(c.end, span.end)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (span.end - span.start) - covered


EPOCH_EVAL = ("trainer.evaluate", "trainer.mean_loss", "regularization.value",
              "trainer.disposable_counts")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("_frac"):
        return "frac"
    return "s" if metric.endswith("_s") or "_s." in metric else "count"


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer seconds and counts from one iteration's spans and counts.

    Seconds are summed inclusive span time, except trainer.self_s, which
    is the train span minus its children (backward pass, softmax and the
    momentum update). The forward pass is split by the span that called
    it: under train it is a minibatch step, under evaluate or mean_loss
    it is evaluation.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def matching(name, parents=None):
        return [
            s for s in spans
            if s.name == name and (
                parents is None
                or (s.parent is not None and by_id[s.parent].name in parents)
            )
        ]

    def total(name, parents=None):
        return sum((s.end - s.start for s in matching(name, parents)), 0.0)

    train_self = sum(
        (self_time(s, children.get(s.id, [])) for s in spans if s.name == "trainer.train"),
        0.0,
    )
    out = {
        "cmd.train_s": total("cmd.train"),
        "cmd.prune_s": total("cmd.prune"),
        "cmd.analyze_s": total("cmd.analyze"),
        "linalg.sigmoid_s": total("linalg.sigmoid"),
        "linalg.sigmoid_elems": counts["linalg.sigmoid_elems"],
        "network.forward_batch_s": total("network.forward_batch"),
        "network.forward_batch_s.step": total("network.forward_batch", ("trainer.train",)),
        "network.forward_batch_s.eval": total(
            "network.forward_batch", ("trainer.evaluate", "trainer.mean_loss")
        ),
        "network.forward_batch_calls": counts["network.forward_batch.calls"],
    }
    # W1..W4 are the reference network's layers; deeper networks add more
    for l in range(1, 5):
        out[f"network.fwd_flops.W{l}"] = 0
    out.update((k, v) for k, v in counts.items() if k.startswith("network.fwd_flops."))
    out.update({
        "trainer.epoch_eval_s": sum(total(n, ("trainer.train",)) for n in EPOCH_EVAL),
        "trainer.self_s": train_self,
        "trainer.steps": len(matching("network.forward_batch", ("trainer.train",))),
        "trainer.evaluate_s": total("trainer.evaluate"),
        "trainer.evaluate_calls": counts["trainer.evaluate.calls"],
        "regularization.gradient_s": total("regularization.gradient"),
        "regularization.group_norms_s": total("regularization.group_norms"),
        "pruning.curve_s": total("pruning.curve"),
        "pruning.curve_points": counts["pruning.curve_points"],
        "pruning.apply_mask_s": total("pruning.apply_mask"),
        "pruning.apply_mask_calls": counts["pruning.apply_mask.calls"],
        "datasets.load_splits_s": total("datasets.load_splits"),
        "datasets.load_splits_calls": counts["datasets.load_splits.calls"],
        "model_io.load_s": total("model_io.load"),
        "model_io.save_s": total("model_io.save"),
        "model_io.bytes": counts["model_io.bytes"],
        "analysis.norm_histogram_s": total("analysis.norm_histogram"),
        "analysis.write_bundle_s": total("analysis.write_bundle"),
    })
    return out
