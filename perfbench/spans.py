"""Spans around trfnet's public functions, recorded from outside the package.

instrument() wraps each function in TRACED and rebinds every module-level
name inside the trfnet package that refers to it (Adam.step is rebound on
its class).  The package looks names up in the caller's own module globals
at call time -- builder imports train_dae and build_masks by name, tree
imports mi_matrix, receptive_field imports hop_distances, baselines imports
finetune -- so rebinding each of those names is what makes internal calls
visible.  The program itself is not changed.

A span records its name, start, end and parent.  Spans stay in memory and
are written out once, when the pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass

# span name, defining module, attribute, whether to probe the call's tracemalloc peak
TRACED = (
    ("data.load_sparse_bow", "trfnet.data", "load_sparse_bow", True),
    ("data.discretize", "trfnet.data", "discretize", False),
    ("stats.mi_matrix", "trfnet.stats", "mi_matrix", True),
    ("tree.max_spanning_tree", "trfnet.tree", "max_spanning_tree", False),
    ("receptive_field.build_masks", "trfnet.receptive_field", "build_masks", False),
    ("receptive_field.hop_distances", "trfnet.tree", "hop_distances", False),
    ("dae.train_dae", "trfnet.dae", "train_dae", False),
    ("dae.corrupt", "trfnet.dae", "corrupt", False),
    ("dae.project", "trfnet.dae", "project", False),
    ("nn.dae_gradients", "trfnet.nn", "dae_gradients", False),
    ("nn.Adam.step", "trfnet.nn", "Adam.step", False),
    ("nn.stack_forward", "trfnet.nn", "stack_forward", False),
    ("nn.stack_backward", "trfnet.nn", "stack_backward", False),
    ("builder.build_trf_net", "trfnet.builder", "build_trf_net", False),
    ("builder.finetune", "trfnet.builder", "finetune", False),
    ("builder.evaluate", "trfnet.builder", "evaluate", False),
    ("builder.save", "trfnet.builder", "save", False),
    ("builder.load", "trfnet.builder", "load", False),
    ("baselines.train_dense", "trfnet.baselines", "train_dense", False),
    ("baselines.prune_and_retrain", "trfnet.baselines", "prune_and_retrain", False),
    ("baselines.train_l1", "trfnet.baselines", "train_l1", False),
    ("interpret.interpretability_score", "trfnet.interpret", "interpretability_score", False),
    ("interpret.unit_activations", "trfnet.interpret", "unit_activations", False),
)

# nn.Adam.step time is split by the nearest of these enclosing spans
ADAM_OWNERS = {"dae.train_dae": "nn.Adam.step.dae_s", "builder.finetune": "nn.Adam.step.finetune_s"}

# per-layer metric, unit, and the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("stats.mi_matrix.s", "s", "total_s, peak_rss_mb on wide-v4000"),
    ("stats.mi_matrix.peak_mb", "MB", "peak_rss_mb on wide-v4000"),
    ("tree.max_spanning_tree.s", "s", "total_s on wide-v4000"),
    ("receptive_field.build_masks.s", "s", "total_s on wide-v4000 and news-d2"),
    ("receptive_field.hop_distances.calls", "count", "total_s on wide-v4000 and news-d2"),
    ("receptive_field.hop_distances.s", "s", "total_s on wide-v4000 and news-d2"),
    ("data.load_sparse_bow.s", "s", "total_s on wide-v4000"),
    ("data.load_sparse_bow.peak_mb", "MB", "peak_rss_mb on wide-v4000"),
    ("data.discretize.s", "s", "total_s on wide-v4000"),
    ("builder.build_trf_net.s", "s", "total_s on news-d2 and wide-v4000"),
    ("dae.train_dae.s", "s", "total_s on news-d2"),
    ("dae.train_dae.epoch_s", "s", "total_s on news-d2"),
    ("dae.corrupt.s", "s", "total_s on news-d2"),
    ("dae.project.s", "s", "total_s on news-d2"),
    ("nn.dae_gradients.s", "s", "total_s on news-d2"),
    ("nn.Adam.step.dae_s", "s", "total_s on news-d2"),
    ("nn.Adam.step.finetune_s", "s", "finetune_s on news-d2 and baselines-dense256"),
    ("nn.Adam.step.calls", "count", "finetune_s on news-d2 and baselines-dense256"),
    ("nn.stack_forward.s", "s", "finetune_s on news-d2 and baselines-dense256"),
    ("nn.stack_backward.s", "s", "finetune_s on news-d2 and baselines-dense256"),
    ("builder.finetune.epoch_s", "s", "finetune_s on news-d2 and baselines-dense256"),
    ("builder.evaluate.s", "s", "total_s on baselines-dense256"),
    ("builder.save.s", "s", "total_s on baselines-dense256"),
    ("builder.save.bytes", "bytes", "total_s on baselines-dense256"),
    ("builder.load.s", "s", "total_s on baselines-dense256"),
    ("baselines.train_dense.s", "s", "finetune_s on baselines-dense256"),
    ("baselines.prune_and_retrain.s", "s", "finetune_s on baselines-dense256"),
    ("baselines.train_l1.s", "s", "finetune_s on baselines-dense256"),
    ("interpret.interpretability_score.s", "s", "total_s on news-d2"),
    ("interpret.unit_activations.calls", "count", "total_s on news-d2"),
    ("interpret.unit_activations.s", "s", "total_s on news-d2"),
    ("receptive_field.centers.l0", "count", "structure count; repeats exactly per seed"),
    ("receptive_field.centers.l1", "count", "structure count; repeats exactly per seed"),
    ("receptive_field.nnz.l0", "count", "structure count; repeats exactly per seed"),
    ("receptive_field.nnz.l1", "count", "structure count; repeats exactly per seed"),
    ("trace.total_s", "s", "total_s of the traced pass"),
    ("trace.overhead_s", "s", "traced minus untraced total_s of the same run"),
)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    start: float = 0.0
    end: float = 0.0
    peak_bytes: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._probes: list[tuple] = []

    def wrap(self, name: str, fn, probe_memory: bool):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            if probe_memory:
                self._probes.append((span, fn, args, kwargs))
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        traced.__wrapped__ = fn
        return traced

    def probe_memory(self) -> None:
        """Repeat each memory-probed call under tracemalloc; store its peak on the span.

        tracemalloc slows every allocation, so it runs here, after the pass,
        and never inside a timed span.
        """
        for span, fn, args, kwargs in self._probes:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self._probes.clear()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def instrument(tracer: Tracer) -> None:
    """Route every call of a TRACED function through tracer."""
    import trfnet  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "trfnet" or n.startswith("trfnet.")]
    for name, module, attr, probe_memory in TRACED:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(name, original, probe_memory)
        setattr(owner, leaf, wrapper)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; no traced function calls itself, so sums do not double count.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time[i]
        if s.peak_bytes is not None:
            row["peak_mb"] = max(row["peak_mb"], s.peak_bytes / 2**20)
    return out


def _adam_split(spans: list[Span]) -> dict[str, float]:
    out = dict.fromkeys(ADAM_OWNERS.values(), 0.0)
    for s in spans:
        if s.name != "nn.Adam.step":
            continue
        up = s.parent
        while up >= 0 and spans[up].name not in ADAM_OWNERS:
            up = spans[up].parent
        if up >= 0:
            out[ADAM_OWNERS[spans[up].name]] += s.end - s.start
    return out


def layer_metrics(spans: list[Span], facts: dict, traced_total: float, untraced_total: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced pass and its pass facts.

    A function the workload never calls reads 0 calls and 0 seconds.
    """
    rows = summarize(spans)

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_mb": 0.0})

    values: dict[str, float] = {}
    for name, *_ in TRACED:
        values[f"{name}.s"] = row(name)["s"]
        values[f"{name}.calls"] = row(name)["calls"]
        values[f"{name}.peak_mb"] = row(name)["peak_mb"]
    values.update(_adam_split(spans))
    dae_epochs, ft_epochs = facts["dae_epochs"], facts["finetune_epochs"]
    values["dae.train_dae.epoch_s"] = row("dae.train_dae")["s"] / dae_epochs if dae_epochs else 0.0
    values["builder.finetune.epoch_s"] = row("builder.finetune")["s"] / ft_epochs if ft_epochs else 0.0
    values["builder.save.bytes"] = facts["model_bytes"]
    for key in ("centers", "nnz"):
        for layer in (0, 1):
            counts = facts[key]
            values[f"receptive_field.{key}.l{layer}"] = counts[layer] if layer < len(counts) else 0
    values["trace.total_s"] = traced_total
    values["trace.overhead_s"] = traced_total - untraced_total
    return {name: values[name] for name, _, _ in LAYER_METRICS}


def table(spans: list[Span]) -> str:
    """Aligned calls / inclusive / self seconds per span name, costliest first."""
    rows = summarize(spans)
    lines = [f"{'span':<34} {'calls':>7} {'s':>10} {'self_s':>10}"]
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["s"]):
        lines.append(f"{name:<34} {r['calls']:>7} {r['s']:>10.4f} {r['self_s']:>10.4f}")
    return "\n".join(lines)
