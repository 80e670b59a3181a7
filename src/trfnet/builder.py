"""End-to-end construction, fine-tuning, evaluation, and model persistence.

Layers are built one at a time: learn a dependency tree on the current
(binary view of the) data, carve it into receptive fields, train the sparse
layer as a denoising autoencoder, then project the data through it - the
binary projection feeds the next tree, the probability projection feeds the
next autoencoder.  The stacked network gets a dense classifier head and is
fine-tuned with backpropagation over the existing connections only.

Per-layer seeds are master_seed + layer_index; the head uses
master_seed + depth.
"""

from __future__ import annotations

import base64
import binascii
import copy
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import nn
from .dae import CorruptionConfig, DaeHyper, train_dae, project
from .data import FIXED, Dataset, DiscretizationPolicy, discretize
from .errors import EmptyStructureError, ModelFormatError, check_integers
from .receptive_field import ReceptiveFieldPlan, build_masks
from .tree import chow_liu

SOFTMAX = "softmax"
MULTITASK = "multitask"

MODEL_MAGIC = "trfnet-model v2"
MODEL_MAGIC_V1 = "trfnet-model v1"  # read, no longer written
REPORT_MAGIC = "trfnet-report v1"


def _per_layer(value, depth: int, what: str) -> tuple[int, ...]:
    out = (value,) * depth if np.ndim(value) == 0 else tuple(value)
    check_integers(**{what: out})
    if len(out) != depth:
        raise ValueError(f"{what} needs {depth} per-layer values, got {len(out)}")
    return tuple(int(x) for x in out)


@dataclass(frozen=True)
class BuildConfig:
    """Structure and training knobs for one stacked build.

    radius and stride may be single ints (reused at every layer) or
    per-layer sequences of length depth.
    """

    radius: int | tuple[int, ...] = 2
    stride: int | tuple[int, ...] = 2
    depth: int = 1
    global_fraction: float = 0.1
    policy: DiscretizationPolicy = field(default_factory=DiscretizationPolicy.median)
    dae: DaeHyper = field(default_factory=DaeHyper)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)
    seed: int = 0

    def __post_init__(self):
        check_integers(depth=self.depth, seed=self.seed)
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        object.__setattr__(self, "radius", _per_layer(self.radius, self.depth, "radius"))
        object.__setattr__(self, "stride", _per_layer(self.stride, self.depth, "stride"))
        if min(self.radius) < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if min(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not 0.0 <= self.global_fraction <= 1.0:
            raise ValueError(f"global_fraction must be in [0, 1], got {self.global_fraction}")


def _finite(*arrays: np.ndarray) -> bool:  # min and max carry a NaN or an infinity, with no full-size temporary
    return all(a.size == 0 or (np.isfinite(a.min()) and np.isfinite(a.max())) for a in arrays)


@dataclass
class TrfNetwork:
    """A stack of sparse layers with an optional dense classifier head."""

    layers: list[nn.MaskedLayer]
    plans: list[ReceptiveFieldPlan | None]
    head: nn.DenseLayer | None = None
    head_mode: str = SOFTMAX
    config: BuildConfig | None = None
    training_logs: list[list[float]] = field(default_factory=list)

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ValueError naming the layer or the head for a rule below that the network breaks.
        It runs when the network is made and first thing in attach_head, finetune, evaluate and save."""
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if len(self.plans) != len(self.layers):
            raise ValueError("need one plan slot per layer")
        width = self.input_width
        for k, (layer, plan) in enumerate(zip(self.layers, self.plans)):
            if layer.visible_count != width:
                raise ValueError(f"layer {k} expects width {layer.visible_count} but gets {width}")
            width = layer.hidden_count
            with _naming(f"layer {k}", ValueError):  # plan.index names a feature outside [0, V)
                if not _finite(layer.values, layer.bias_hidden, layer.bias_visible):
                    raise ValueError("non-finite weight or bias")
                if plan is not None:
                    if plan.hidden_count != width:
                        raise ValueError(f"plan has {plan.hidden_count} units, layer has {width}")
                    index = plan.index(layer.visible_count)  # a built or loaded layer holds this array
                    positions = np.arange(layer.values.size) if layer.index is None else layer.index
                    if positions is not index and not np.array_equal(index, positions):
                        raise ValueError("connections disagree with the plan (field rows, then all-ones global rows)")
        if self.head_mode not in (SOFTMAX, MULTITASK):
            raise ValueError(f"head: unknown head mode {self.head_mode!r}")
        if self.head is not None:
            if self.head.in_count != width:
                raise ValueError(f"head width {self.head.in_count} does not match the top layer's {width}")
            if not _finite(self.head.weights, self.head.bias):
                raise ValueError("head: non-finite weight or bias")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_width(self) -> int:
        return self.layers[0].visible_count

    @property
    def top_width(self) -> int:
        return self.layers[-1].hidden_count

    def mask_violation(self) -> float:
        """Largest |weight| outside the intended connectivity; must be exactly 0.

        A layer with a plan is held to the plan's fields and global rows: its
        values at positions the plan does not list count, every position for
        a full layer.  A layer without one holds only its own connections, so
        it scores 0.0.  A checked network (see check) scores 0.0; this scores
        one whose layers or plans were set since, and the benchmark reads it.
        """
        worst = 0.0
        for layer, plan in zip(self.layers, self.plans):
            if plan is not None:
                positions = np.arange(layer.values.size) if layer.index is None else layer.index
                outside = ~np.isin(positions, plan.index(layer.visible_count))
                worst = max(worst, float(np.abs(layer.values[outside]).max(initial=0.0)))
        return worst

    def hidden_sparsity(self) -> float:
        """Existing hidden connections over the fully connected count."""
        nnz = sum(l.values.size for l in self.layers)
        dense = sum(l.hidden_count * l.visible_count for l in self.layers)
        return nnz / dense

    def parameter_count(self) -> int:
        """Hidden connections plus hidden biases plus the head, if any."""
        count = sum(l.values.size + l.hidden_count for l in self.layers)
        if self.head is not None:
            count += self.head.weights.size + self.head.bias.size
        return count


@dataclass(frozen=True)
class EvalReport:
    """Classification quality plus size metrics for one model.

    In multi-task mode auc_per_task holds one entry per task, with -1.0
    marking tasks whose test labels contained only one class; auc_mean is
    derived from it, never stored.  A non-empty sequence of numbers given as
    auc_per_task is held as a tuple of floats.  It checks every range when
    made, and is fixed after.
    """

    parameter_count: int
    sparsity: float
    accuracy: float | None = None
    auc_per_task: tuple[float, ...] | None = None
    effective_sparsity: float | None = None

    def __post_init__(self):
        check_integers(parameter_count=self.parameter_count)
        if self.parameter_count < 0:
            raise ValueError(f"parameter_count {self.parameter_count} is negative")
        if not -1e-12 <= self.sparsity <= 1.0 + 1e-12:
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")
        for key in ("accuracy", "effective_sparsity"):
            x = getattr(self, key)
            if x is not None and not 0.0 <= x <= 1.0:
                raise ValueError(f"{key} {x!r} is not in [0, 1]")
        if self.auc_per_task is not None:
            aucs = tuple(float(x) for x in self.auc_per_task)
            if not aucs:
                raise ValueError("auc_per_task must hold at least one task")
            for x in aucs:
                if x != -1.0 and not 0.0 <= x <= 1.0:
                    raise ValueError(f"auc_per_task entry {x!r} is neither in [0, 1] nor -1.0 (unscored)")
            object.__setattr__(self, "auc_per_task", aucs)

    @property
    def auc_mean(self) -> float | None:
        """The mean of the scored auc_per_task entries (those other than -1.0); None when there is none."""
        scored = [a for a in self.auc_per_task or () if a != -1.0]
        return float(np.mean(scored)) if scored else None

    @property
    def score(self) -> float | None:
        """The headline score: the accuracy, else the AUC mean, else None (nothing scored)."""
        return self.accuracy if self.accuracy is not None else self.auc_mean


def build_trf_net(d: Dataset, cfg: BuildConfig) -> TrfNetwork:
    """Run the layer-wise structure learning and pretraining loop."""
    layers: list[nn.MaskedLayer] = []
    plans: list[ReceptiveFieldPlan | None] = []
    logs: list[list[float]] = []
    current = d
    binary = discretize(d, cfg.policy)
    for k in range(cfg.depth):
        seed_k = cfg.seed + k
        tree = chow_liu(binary)
        plan = build_masks(tree, cfg.radius[k], cfg.stride[k], cfg.global_fraction, seed_k)
        v = current.n_features
        layer, log = train_dae(
            plan.index(v), (plan.hidden_count, v), current, cfg.corruption, replace(cfg.dae, seed=seed_k)
        )
        layers.append(layer)
        plans.append(plan)
        logs.append(log)
        if k + 1 < cfg.depth:
            if layer.hidden_count < 2:
                raise EmptyStructureError(f"layer {k} narrowed to {layer.hidden_count} unit(s); cannot stack")
            current, binary = project(layer, current)
    return TrfNetwork(layers=layers, plans=plans, config=cfg, training_logs=logs)


def n_classes(d: Dataset) -> int:
    """Head width for d's labels: one output per task column, or per class index."""
    if d.labels is None:
        raise ValueError("labeled data required")
    return d.labels.shape[1] if d.labels.ndim == 2 else int(d.labels.max()) + 1


def attach_head(net: TrfNetwork, classes: int, mode: str = SOFTMAX, seed: int | None = None) -> TrfNetwork:
    """Put a fresh dense classifier on top, in place; replaces any existing head.

    softmax mode wants classes >= 2 mutually exclusive labels; multitask
    mode wants classes >= 1 independent binary tasks.  A network or mode
    that TrfNetwork.check rejects raises ValueError and leaves net as it was.
    """
    TrfNetwork(net.layers, net.plans, head_mode=mode)  # checks the layers, plans and mode; the head is replaced
    minimum = 2 if mode == SOFTMAX else 1
    if classes < minimum:
        raise ValueError(f"need at least {minimum} outputs for {mode}, got {classes}")
    if seed is None:
        seed = (net.config.seed + net.depth) if net.config is not None else net.depth
    net.head = nn.init_dense_layer(classes, net.top_width, np.random.default_rng(seed))
    net.head_mode = mode
    return net


@dataclass(frozen=True)
class FinetuneHyper:
    epochs: int = 100
    batch_size: int = 128
    step_size: float = 1e-3
    dropout_rate: float = 0.5
    patience: int = 5
    activation: str = "relu"
    reinit: bool = False
    seed: int = 0

    def __post_init__(self):
        check_integers(epochs=self.epochs, batch_size=self.batch_size, patience=self.patience, seed=self.seed)
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.activation not in nn.ACTIVATIONS:
            raise ValueError(f"activation must be one of {', '.join(nn.ACTIVATIONS)}, got {self.activation!r}")


def _check_labels(d: Dataset, head: nn.DenseLayer, mode: str, what: str):
    """Labels must fit the head of a checked network: class indices below
    its width, or one 0/1/-1 (missing) column per task."""
    if d.labels is None:
        raise ValueError(f"{what}: labeled data required")
    width = head.out_count
    if mode == SOFTMAX:
        if d.labels.ndim != 1:
            raise ValueError(f"{what}: softmax head needs a 1-D label vector")
        bad = (d.labels < 0) | (d.labels >= width)
        if bad.any():
            raise ValueError(f"{what}: label {int(d.labels[bad][0])} is outside the {width} classes of the head")
    else:
        if d.labels.ndim != 2:
            raise ValueError(f"{what}: multitask head needs an N x C label matrix")
        if d.labels.shape[1] != width:
            raise ValueError(f"{what}: {d.labels.shape[1]} label columns for a {width}-task multitask head")
        bad = ~np.isin(d.labels, (-1, 0, 1))
        if bad.any():
            raise ValueError(f"{what}: multitask label {int(d.labels[bad][0])} is not 0, 1 or -1 (missing)")


def _batch_loss_grads(net: TrfNetwork, bufs, x, y, hyper, rng, grads: list[np.ndarray]) -> float:
    """One batch's loss; its gradients go into grads, and its forward caches die on return."""
    logits, caches = nn.stack_forward(net.layers, net.head, x, bufs, dropout_rate=hyper.dropout_rate, rng=rng)
    if net.head_mode == SOFTMAX:
        loss, dlogits = nn.softmax_cross_entropy(logits, y)
    else:
        loss, dlogits = nn.multitask_sigmoid_loss(logits, y)
    nn.stack_backward(net.layers, net.head, caches, dlogits, bufs, grads)
    return loss


def finetune(
    net: TrfNetwork,
    train: Dataset,
    valid: Dataset | None,
    hyper: FinetuneHyper,
    penalty_grads=None,
):
    """Backpropagation training of the whole stack over its fixed connections.

    Hidden layers are switched to hyper.activation by new layers over the
    same arrays (hyper.reinit draws fresh ones), dropout applies to hidden layers
    during training, and early stopping, with the given patience, tracks
    each epoch's validation EvalReport.score (0.0 when it is None).
    The validation set (the training set when valid is None) is scored once
    per epoch, and no other pass scores it: the network returned holds the
    best-scoring epoch's parameters, and the report returned is that epoch's,
    so it == evaluate(net, gate).  Training and validation scoring share what
    nn.buffers gives each layer (a dense buffer pair if it is sparse).  The
    best state is copied, into arrays allocated once, only when a later epoch
    is about to train over it, and copied back only when the last epoch run
    did not score best.  Each step writes its gradients into adam.grads.

    penalty_grads, when given, is called before each step as
    penalty_grads(weights, grads), with params[::2] of nn.stack_params and
    their gradients, and adds its terms into grads in place; the L1 baseline
    hooks in through it.  TrfNetwork.check runs before any step.
    """
    net.check()
    if net.head is None:
        raise ValueError("attach a head before finetuning")
    _check_labels(train, net.head, net.head_mode, "train")
    if valid is not None:
        _check_labels(valid, net.head, net.head_mode, "valid")
    gate = valid if valid is not None else train
    rng = np.random.default_rng(hyper.seed)
    act = hyper.activation
    if hyper.reinit:
        net.layers = [nn.init_masked_layer(l.index, (l.hidden_count, l.visible_count), rng, act) for l in net.layers]
    else:  # a layer already at act is kept, so its index is not checked again
        net.layers = [l if l.activation == act else replace(l, activation=act) for l in net.layers]
    params = nn.stack_params(net.layers, net.head)
    bufs = [nn.buffers(layer) for layer in net.layers]
    adam = nn.Adam(params, hyper.step_size)
    n = train.n_samples
    # each gate score is in [0, 1] (0.0 when no task is scored), so the first epoch sets best
    best_score, best, since_best = -np.inf, None, 0
    snapshot, holds_best = None, False
    for _ in range(hyper.epochs):
        if holds_best:
            if snapshot is None:
                snapshot = [np.empty_like(p) for p in params]
            for kept, p in zip(snapshot, params):
                np.copyto(kept, p)
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            _batch_loss_grads(net, bufs, train.rows(idx), train.labels[idx], hyper, rng, adam.grads)
            if penalty_grads is not None:
                penalty_grads(params[::2], adam.grads[::2])
            adam.step()
        report = _evaluate(net, gate, bufs)
        score = 0.0 if report.score is None else report.score
        holds_best = score > best_score
        if holds_best:
            best_score, best, since_best = score, report, 0
        else:
            since_best += 1
            if since_best >= hyper.patience:
                break
    if not holds_best:
        for p, kept in zip(params, snapshot):
            np.copyto(p, kept)
    return net, best


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    # unique groups values as == does (-0.0 ties 0.0, each nan stands alone);
    # the group at sorted positions first .. first + count - 1 shares their
    # mean 1-based rank, first + (count + 1) / 2
    _, first, count = np.unique(x[order], return_index=True, return_counts=True, equal_nan=False)
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(first + (count + 1) / 2, count)
    return ranks


def binary_auc(scores: np.ndarray, targets: np.ndarray) -> float:
    """Area under the ROC curve by the rank-sum statistic, ties averaged."""
    targets = np.asarray(targets)
    n_pos = int((targets == 1).sum())
    n_neg = int((targets == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _average_ranks(np.asarray(scores, dtype=np.float64))
    pos_rank_sum = float(ranks[targets == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _evaluate(net: TrfNetwork, d: Dataset, bufs) -> EvalReport:
    """The report of net over d from one eval forward.

    A softmax head gets an accuracy only.  A multitask head gets an AUC per
    task, -1.0 for a task whose observed labels hold one class only; the
    report derives their mean.  d's dense matrix is a temporary the forward
    frees after layer 0's product.
    """
    logits = nn.hidden_representation(net.layers, d.dense(), bufs) @ net.head.weights.T
    logits += net.head.bias
    accuracy = aucs = None
    if net.head_mode == SOFTMAX:
        accuracy = float((logits.argmax(axis=1) == d.labels).mean())
    else:
        aucs = []
        for task in range(d.labels.shape[1]):
            observed = d.labels[:, task] >= 0
            y = d.labels[observed, task]
            aucs.append(binary_auc(logits[observed, task], y) if (y == 1).any() and (y == 0).any() else -1.0)
    return EvalReport(net.parameter_count(), net.hidden_sparsity(), accuracy, aucs)


def evaluate(net: TrfNetwork, test: Dataset) -> EvalReport:
    """Accuracy (softmax) or per-task AUCs (multitask) plus size metrics, once
    TrfNetwork.check passes."""
    net.check()
    if net.head is None:
        raise ValueError("attach a head before evaluating")
    _check_labels(test, net.head, net.head_mode, "test")
    return _evaluate(net, test, [nn.buffers(layer) for layer in net.layers])


# ---------------------------------------------------------------------------
# report files: line oriented "key value", no timings so reruns are identical
# ---------------------------------------------------------------------------


def check_report_name(name: str) -> None:
    """ValueError for a name report_from_text would split: one holding a line break of str.splitlines."""
    if "".join(name.splitlines()) != name:
        raise ValueError(f"name {name!r} holds a line break; a report name is one line")


def report_to_text(r: EvalReport, name: str = "model") -> str:
    check_report_name(name)
    lines = [REPORT_MAGIC, f"name {name}"]
    if r.accuracy is not None:
        lines.append(f"accuracy {float(r.accuracy)!r}")
    if r.auc_mean is not None:
        lines.append(f"auc_mean {r.auc_mean!r}")
    if r.auc_per_task is not None:
        lines.append("auc_per_task " + ",".join(repr(float(a)) for a in r.auc_per_task))
    lines.append(f"parameter_count {r.parameter_count}")
    lines.append(f"sparsity {float(r.sparsity)!r}")
    if r.effective_sparsity is not None:
        lines.append(f"effective_sparsity {float(r.effective_sparsity)!r}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str):
    """The name and report in text, read in the order report_to_text writes them (see _Reader).
    An auc_mean line is there exactly when the report derives an auc_mean, and holds it."""
    rd = _Reader(text.splitlines())
    if not rd.take(REPORT_MAGIC):
        raise ModelFormatError("not a report file")
    name = rd.rest("name")
    accuracy = rd.optional("accuracy", float)
    auc_mean = rd.optional("auc_mean", float)
    auc_per_task = rd.optional("auc_per_task", _commas(float))
    (parameter_count,) = rd.fields("parameter_count", int)
    (sparsity,) = rd.fields("sparsity", float)
    effective_sparsity = rd.optional("effective_sparsity", float)
    rd.end()
    with _naming("corrupted report"):  # EvalReport checks every range
        report = EvalReport(parameter_count, sparsity, accuracy, auc_per_task, effective_sparsity)
        if auc_mean != report.auc_mean:
            raise ValueError(f"auc_mean {auc_mean!r} is not {report.auc_mean!r}, the mean of the scored tasks")
    return name, report


def save_report(r: EvalReport, path, name: str = "model") -> None:
    text = report_to_text(r, name)  # a name that is not one line raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_report(path):
    """The name and report in the file at path; an error names the file first ("path: ")."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"{path}: report is not UTF-8 text ({e.reason} at byte {e.start})") from None
    with _naming(str(path)):
        return report_from_text(text)


# ---------------------------------------------------------------------------
# model files: a line-oriented text header; in v2 each array is one base64
# line of its little-endian bytes and a SHA-256 line seals the file
# ---------------------------------------------------------------------------

_F8, _I8 = np.dtype("<f8"), np.dtype("<i8")
_SEAL = "end trfnet-model sha256 "


def _b64(a: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode("ascii")


# characters _unb64 decodes at a time: a multiple of 4, so each chunk starts a
# quad and decodes on its own
_B64_CHUNK = 1 << 16


def _unb64(line: str, dtype: np.dtype, start: int) -> np.ndarray:
    """Inverse of _b64 on line[start:], as a fresh writable array; text that
    _b64 does not write for whole items raises ValueError.

    The text is decoded _B64_CHUNK characters at a time, each chunk read at
    its offset into line and written straight into the array, so neither the
    text nor its bytes are held whole a second time.  Each chunk must encode
    back to its own text, which only canonical base64 does: digits alone,
    padding only where needed and zero pad bits.  Only the last chunk, which
    holds at least one character, may be padded: each chunk before it must
    decode to _B64_CHUNK // 4 * 3 bytes.
    """

    def decoded(text: str) -> bytes:
        raw = binascii.a2b_base64(text)
        if binascii.b2a_base64(raw, newline=False) != text.encode("ascii"):
            raise ValueError("not canonical base64")
        return raw

    full = max(len(line) - start - 1, 0) // _B64_CHUNK
    tail = decoded(line[start + full * _B64_CHUNK :])
    step = _B64_CHUNK // 4 * 3
    size = full * step + len(tail)
    if size % dtype.itemsize:
        raise ValueError(f"{size} bytes are not whole {dtype.itemsize}-byte items")
    out = np.empty(size // dtype.itemsize, dtype=dtype)
    raw = out.view(np.uint8)
    for k in range(full):
        lo = start + k * _B64_CHUNK
        chunk = decoded(line[lo : lo + _B64_CHUNK])
        if len(chunk) != step:
            raise ValueError("padding before the end of the text")
        raw[k * step : (k + 1) * step] = np.frombuffer(chunk, np.uint8)
    raw[full * step :] = np.frombuffer(tail, np.uint8)
    return out.astype(dtype.newbyteorder("="), copy=False)


def _config_lines(cfg: BuildConfig) -> list[str]:
    pol = cfg.policy
    pol_s = pol.kind if pol.threshold is None else f"{pol.kind} {float(pol.threshold)!r}"
    d = cfg.dae
    return [
        "config begin",
        "radius " + ",".join(str(r) for r in cfg.radius),
        "stride " + ",".join(str(s) for s in cfg.stride),
        f"depth {cfg.depth}",
        f"global_fraction {float(cfg.global_fraction)!r}",
        f"policy {pol_s}",
        f"dae {d.epochs} {d.batch_size} {float(d.step_size)!r} {nn.Adam.beta1!r} {nn.Adam.beta2!r} {nn.Adam.eps!r} "
        f"{d.loss_family} {d.seed}",
        f"corruption {cfg.corruption.kind} {float(cfg.corruption.rate)!r} {cfg.corruption.seed}",
        f"seed {cfg.seed}",
        "config end",
    ]


def _read_config(rd: _Reader) -> BuildConfig | None:
    """The config section, in the order _config_lines writes it; None for "config none"."""
    if rd.take("config none"):
        return None
    rd.line("config begin")
    (radius,) = rd.fields("radius", _commas(int))
    (stride,) = rd.fields("stride", _commas(int))
    (depth,) = rd.fields("depth", int)
    (global_fraction,) = rd.fields("global_fraction", float)
    fixed = rd.optional(f"policy {FIXED}", float)  # a threshold follows the fixed kind only
    policy = DiscretizationPolicy(*rd.fields("policy", str)) if fixed is None else DiscretizationPolicy(FIXED, fixed)
    epochs, batch, step, *adam, family, dae_seed = rd.fields("dae", int, int, float, float, float, float, str, int)
    if adam != [nn.Adam.beta1, nn.Adam.beta2, nn.Adam.eps]:
        raise rd.error(f"dae: Adam's beta1, beta2 and eps must be 0.9 0.999 1e-08, got {' '.join(map(repr, adam))}")
    dae = DaeHyper(epochs, batch, step, family, dae_seed)
    corruption = CorruptionConfig(*rd.fields("corruption", str, float, int))
    (seed,) = rd.fields("seed", int)
    rd.line("config end")
    return BuildConfig(radius, stride, depth, global_fraction, policy, dae, corruption, seed)


def _model_lines(net: TrfNetwork) -> Iterator[str]:
    """The lines of net's v2 file before its checksum line, one at a time."""
    yield MODEL_MAGIC
    yield f"head_mode {net.head_mode}"
    if net.config is not None:
        yield from _config_lines(net.config)
    else:
        yield "config none"
    yield f"layers {net.depth}"
    for k, layer in enumerate(net.layers):
        h, v = layer.hidden_count, layer.visible_count
        yield f"layer {k} {h} {v} {layer.activation}"
        plan = net.plans[k]
        if plan is None:
            yield "plan none"
            yield "index dense" if layer.index is None else "index " + _b64(layer.index, _I8)
        else:
            yield f"plan {plan.radius} {plan.stride} {plan.global_count}"
            yield "centers " + " ".join(str(c) for c in plan.centers)
            for i, members in enumerate(plan.fields):
                yield f"field {i} " + " ".join(str(m) for m in members)
        yield "values " + _b64(layer.values, _F8)
        yield "bh " + _b64(layer.bias_hidden, _F8)
        yield "bv " + _b64(layer.bias_visible, _F8)
    if net.head is None:
        yield "head none"
    else:
        o, i = net.head.weights.shape
        yield f"head {o} {i} {net.head.activation}"
        yield "hw " + _b64(net.head.weights, _F8)
        yield "hb " + _b64(net.head.bias, _F8)


def save(net: TrfNetwork, path) -> None:
    """Write the canonical v2 serialization; see load for the inverse.

    A layer with a plan stores the plan alone as its connectivity; a layer
    without one stores its index, or "index dense" if it is full and has
    none.  Every array is one base64 line, so the
    same network always produces the same bytes and reloads bit for bit.
    Each line goes to the file and to the checksum in turn, so the whole
    body is never held at once.  A network TrfNetwork.check rejects raises
    ValueError before the file is opened.
    """
    net.check()
    seal = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in _model_lines(net):
            data = f"{line}\n".encode("utf-8")
            seal.update(data)
            fh.write(data)
        fh.write(f"{_SEAL}{seal.hexdigest()}\n".encode("ascii"))


@contextmanager
def _naming(what: str, error: type[ValueError] = ModelFormatError):
    """Re-raise a ValueError as error, its message prefixed with what."""
    try:
        yield
    except ValueError as e:
        raise error(f"{what}: {e}") from None


def _field(kind, text: str):
    """kind(text); an int or a float must be its repr, as save writes it, so "1_0", "+1", "0.50",
    a non-ASCII digit or a trailing tab raise ValueError."""
    x = kind(text)
    if kind in (int, float) and repr(x) != text:
        raise ValueError(f"{text!r} is not written as {x!r}")
    return x


def _commas(kind):
    """A field converter: comma-separated values of kind, as a tuple."""
    return lambda text: tuple(_field(kind, x) for x in text.split(","))


class _Reader:
    """The lines of a model file or report, read in the order save and
    report_to_text write them.  Each read names its line: the whole text, or
    a key and the fields after "key ".  Another line, a missing or left-over
    line, a wrong field count, or a field _field refuses raises ModelFormatError naming
    the line by its number, so a report or v2 model file that loads saves back to its bytes."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0  # lines read: the number of the last one read

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"line {self.pos}: {message}")

    def _following(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def _read(self, wanted: str, fits) -> str:
        ln = self._following()
        self.pos += 1
        if ln is None or not fits(ln):
            raise self.error(f"expected {wanted}, found {'the end of the file' if ln is None else repr(ln[:40])}")
        return ln

    def line(self, text: str) -> None:
        """Read the next line, which must be text."""
        self._read(repr(text), text.__eq__)

    def take(self, text: str) -> bool:
        """Whether the next line is text; it is read if so."""
        found = self._following() == text
        self.pos += found
        return found

    def next(self, key: str) -> str:
        """The next line, which must start with "key "."""
        return self._read(repr(key), lambda ln: ln.startswith(key + " "))

    def rest(self, key: str) -> str:
        """The text after "key " on the next line."""
        return self.next(key)[len(key) + 1 :]

    def items(self, key: str, kind) -> list:
        """Each space-separated field after "key " on the next line, converted by kind; none if it is empty."""
        text = self.rest(key)
        with _naming(f"line {self.pos}: {key}"):
            return [_field(kind, x) for x in text.split(" ")] if text else []

    def fields(self, key: str, *kinds) -> list:
        """The fields after "key " on the next line: exactly one per kind, each converted by it."""
        found = self.items(key, str)
        if len(found) != len(kinds):
            raise self.error(f"{key!r} takes {len(kinds)} field(s), found {len(found)}")
        with _naming(f"line {self.pos}: {key}"):
            return [_field(kind, x) for kind, x in zip(kinds, found)]

    def optional(self, key: str, kind):
        """The one field after "key " on the next line, converted by kind, if the line has that key; else None."""
        return self.fields(key, kind)[0] if (self._following() or "").startswith(key + " ") else None

    def end(self) -> None:
        """Raise unless every line has been read."""
        if self.pos < len(self.lines):
            self._read("the end of the file", lambda ln: False)


def _unseal(data: bytes) -> list[str]:
    """The lines before a v2 file's checksum line, once the checksum matches.

    The body is hashed through a memoryview and each line is decoded from it
    in turn, so the file is never copied as bytes and its text is held only
    as the lines, never as one string beside them.
    """
    view = memoryview(data)
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    seal = view[start:]
    if not (seal[: len(_SEAL)] == _SEAL.encode() and seal[-1:] == b"\n"):
        raise ModelFormatError("file truncated: no checksum line")
    if seal[len(_SEAL) : -1] != hashlib.sha256(view[:start]).hexdigest().encode():
        raise ModelFormatError("checksum mismatch: the file is damaged")
    lines, pos, end = [], 0, start - 1
    while (stop := data.find(b"\n", pos, end)) >= 0:
        lines.append(str(view[pos:stop], "utf-8"))
        pos = stop + 1
    lines.append(str(view[pos:end], "utf-8"))
    return lines


def _read_plan(rd: _Reader) -> ReceptiveFieldPlan | None:
    if rd.take("plan none"):
        return None
    radius, stride, global_count = rd.fields("plan", int, int, int)
    centers = tuple(rd.items("centers", int))
    fields_ = tuple(tuple(rd.items(f"field {i}", int)) for i in range(len(centers)))
    return ReceptiveFieldPlan(radius=radius, stride=stride, centers=centers, fields=fields_, global_count=global_count)


def _check_declared(k: int, h: int, v: int, n_values: int, plan: ReceptiveFieldPlan | None, dense: bool):
    """The sizes a v2 layer declares through h and v alone, against its plan and decoded values.

    A plan must have h units, or its index would run past h * v.  A dense index holds h * v
    positions and a plan's global rows v each, so the file must hold that many values before they
    are built; field rows and a stored index are as long as the file allows, checked once built.
    """
    if plan is not None:
        if plan.hidden_count != h:
            raise ModelFormatError(f"layer {k}: plan has {plan.hidden_count} units, layer has {h}")
        declared = plan.global_count * v
        count = sum(len(members) for members in plan.fields) + declared
    elif dense:
        declared = count = h * v
    else:
        return
    if declared > n_values:
        raise ModelFormatError(f"layer {k}: {n_values} weights for {count} connections")


def _v1_rows(rd: _Reader, k: int, h: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """A v1 layer body: per unit, its mask columns and then their weights."""
    index, values = [], []
    for i in range(h):
        if rd.take(f"maskrow {i} dense"):
            cols = None
        else:
            cols = np.array(rd.items(f"maskrow {i} sparse", int), dtype=np.int64)
            if cols.size and (cols[0] < 0 or cols[-1] >= v or (np.diff(cols) <= 0).any()):
                raise ModelFormatError(f"layer {k} row {i}: mask columns must rise inside [0, {v})")
        wvals = np.array(rd.items(f"w {i}", float), dtype=np.float64)
        if wvals.size != (v if cols is None else cols.size):  # checked before a dense row's v columns are built
            raise ModelFormatError(f"layer {k} row {i}: weight count mismatch")
        index.append(i * v + (np.arange(v, dtype=np.int64) if cols is None else cols))
        values.append(wvals)
    return np.concatenate(index), np.concatenate(values)


def _parse_model(lines: list[str], v2: bool) -> TrfNetwork:
    """The network in a model file's lines, read in the order save writes
    them (see _Reader); v2 arrays are base64, v1 decimal."""
    rd = _Reader(lines)

    def floats(key: str) -> np.ndarray:
        if v2:
            return _unb64(rd.next(key), _F8, len(key) + 1)
        return np.array(rd.items(key, float), dtype=np.float64)

    rd.line(MODEL_MAGIC if v2 else MODEL_MAGIC_V1)
    (head_mode,) = rd.fields("head_mode", str)
    config = _read_config(rd)
    (n_layers,) = rd.fields("layers", int)
    layers, plans = [], []
    for k in range(n_layers):
        h, v, activation = rd.fields(f"layer {k}", int, int, str)
        if h < 1 or v < 1:
            raise ModelFormatError(f"layer {k}: a {h} x {v} layer has no connections")
        if h * v >= 2**63:  # its flat positions must fit int64
            raise ModelFormatError(f"layer {k}: a {h} x {v} layer has more positions than int64 holds")
        plan = _read_plan(rd)
        if not v2:
            index, values = _v1_rows(rd, k, h, v)
        else:
            dense = plan is None and rd.take("index dense")
            stored = None if plan is not None or dense else rd.next("index")
            values = floats("values")
            _check_declared(k, h, v, values.size, plan, dense)
            index = None if stored is None else _unb64(stored, _I8, len("index "))
        bh, bv = floats("bh"), floats("bv")
        if bh.size != h or bv.size != v:
            raise ModelFormatError(f"layer {k}: bias length mismatch")
        with _naming(f"layer {k}"):  # plan.index checks its feature range, MaskedLayer the rest
            if v2 and plan is not None:  # a v2 layer's index is its plan's
                index = plan.index(v)
            layers.append(nn.MaskedLayer(index, values, bh, bv, activation))
        plans.append(plan)
    head = None
    if not rd.take("head none"):
        o, i_w, act = rd.fields("head", int, int, str)
        if act != "identity":
            raise ModelFormatError(f"head activation must be identity, got {act!r}")
        if v2:
            hw = floats("hw")
            if hw.size != o * i_w:
                raise ModelFormatError(f"head: {hw.size} weights for {o} x {i_w}")
            hw = hw.reshape(o, i_w)
        else:
            hw = np.zeros((o, i_w), dtype=np.float64)
            for r in range(o):
                vals = floats(f"hw {r}")
                if vals.size != i_w:
                    raise ModelFormatError(f"head row {r}: weight count mismatch")
                hw[r] = vals
        hb = floats("hb")
        with _naming("head"):  # the head checks its bias length
            head = nn.DenseLayer(weights=hw, bias=hb)
    if not v2:
        rd.line("end trfnet-model")
    rd.end()
    # TrfNetwork.check raises ValueError here, which load turns into ModelFormatError
    return TrfNetwork(layers=layers, plans=plans, head=head, head_mode=head_mode, config=config)


def load(path) -> TrfNetwork:
    """Parse a model file written by save, or a v1 file written before it.

    A v2 file's checksum is verified before anything is parsed, and every
    line is read in the order save writes it (see _Reader).  Damage of any
    kind, undecodable bytes included, raises ModelFormatError, which names
    the file ("path: "), then the line, or the layer or head that its checks
    or TrfNetwork.check reject.  A layer stored as "index dense", or whose
    connections are all H * V positions, loads as a full layer with no index
    (see nn.MaskedLayer).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if data.startswith(MODEL_MAGIC.encode()):
            lines, v2 = _unseal(data), True
        elif data.startswith(MODEL_MAGIC_V1.encode()):
            lines, v2 = data.decode("utf-8").splitlines(), False
        else:
            raise ModelFormatError("not a model file, or unsupported version")
        del data  # the lines hold the file from here on
        return _parse_model(lines, v2)
    except (ValueError, OverflowError) as e:  # OverflowError: an integer too large for int64
        what = "" if isinstance(e, ModelFormatError) else "corrupted model file: "
        raise ModelFormatError(f"{path}: {what}{e}") from None


def clone(net: TrfNetwork) -> TrfNetwork:
    """Deep copy; training one copy never touches the other."""
    return copy.deepcopy(net)
