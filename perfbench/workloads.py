"""The benchmark's workloads: seeded inputs and one pass through trfnet's public API.

Every workload starts from bag-of-words files written during set-up from the
run's seed; the same seed also drives every split, initialisation, corruption
and training loop.  Training runs a fixed number of epochs (fine-tuning sets
patience equal to epochs), so early stopping never changes how much work a
pass does.

The pass calls trfnet through module attributes (``builder.build_trf_net``,
not a name bound at import), so the wrappers of ``spans.instrument`` see the
benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = 4
CONFUSION = 0.025
TRAIN_FRAC, VALID_FRAC = 0.7, 0.15
SPLITS = ("train", "valid", "test")
RADIUS = STRIDE = 3
GLOBAL_FRACTION = 0.1
CORRUPTION_RATE = 0.2
KEEP_FRACTION = 0.1
L1_STRENGTH = 1e-5
TOP_K = 10
EMBEDDING_DIM = 16

TRF = "trf"
BASELINES = "baselines"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one size.

    kind TRF builds a structure-learned network (depth layers, dae_epochs of
    pretraining each), attaches a head and fine-tunes it; kind BASELINES
    trains the dense, pruned and L1 baselines with dense_width hidden units.
    accuracy_floor is the lowest test accuracy the pass accepts.
    """

    name: str
    kind: str
    docs: int
    vocab: int
    block_size: int
    finetune_epochs: int
    accuracy_floor: float
    depth: int = 0
    dae_epochs: int = 0
    dense_width: int = 0
    interpret: bool = False


WORKLOADS = {
    "full": {
        w.name: w
        for w in (
            # the paper's desk configuration; layers 541x2000 and 139x541 at seed 0
            Workload("news-d2", TRF, docs=2000, vocab=2000, block_size=16, finetune_epochs=10,
                     accuracy_floor=0.95, depth=2, dae_epochs=12, interpret=True),
            # twice the width, one cheap DAE epoch: MI, tree and masks dominate
            Workload("wide-v4000", TRF, docs=2000, vocab=4000, block_size=16, finetune_epochs=1,
                     accuracy_floor=0.95, depth=1, dae_epochs=1),
            # the fine-tuning path with all-ones masks; no structure learning
            Workload("baselines-dense256", BASELINES, docs=2000, vocab=2000, block_size=16,
                     finetune_epochs=8, accuracy_floor=0.95, dense_width=256),
        )
    },
    # the same three paths at a size that runs in seconds; used by smoke.py
    "tiny": {
        w.name: w
        for w in (
            Workload("news-d2", TRF, docs=300, vocab=120, block_size=8, finetune_epochs=2,
                     accuracy_floor=0.0, depth=2, dae_epochs=2, interpret=True),
            Workload("wide-v4000", TRF, docs=300, vocab=240, block_size=8, finetune_epochs=1,
                     accuracy_floor=0.0, depth=1, dae_epochs=1),
            Workload("baselines-dense256", BASELINES, docs=300, vocab=120, block_size=8,
                     finetune_epochs=2, accuracy_floor=0.0, dense_width=16),
        )
    },
}


def input_files(w: Workload) -> list[str]:
    names = [f"{s}.txt" for s in SPLITS] + ["vocab.txt"]
    return names + (["embeddings.txt"] if w.interpret else [])


def write_inputs(w: Workload, seed: int, work: Path) -> None:
    """Generate the seeded corpus and write its splits (and embeddings) to work."""
    from trfnet import data, synth

    corpus = synth.news_corpus(
        n_docs=w.docs, vocab_size=w.vocab, n_classes=CLASSES,
        block_size=w.block_size, confusion=CONFUSION, seed=seed,
    )
    pieces = data.split(corpus, TRAIN_FRAC, VALID_FRAC, seed=seed)
    for name, piece in zip(SPLITS, pieces):
        data.save_sparse_bow(piece, work / f"{name}.txt", work / "vocab.txt")
    if w.interpret:
        rng = np.random.default_rng(seed)
        with open(work / "embeddings.txt", "w", encoding="utf-8") as fh:
            fh.write(f"{corpus.n_features} {EMBEDDING_DIM}\n")
            for token in corpus.feature_names:
                fh.write(token + " " + " ".join(f"{x:.5f}" for x in rng.normal(size=EMBEDDING_DIM)) + "\n")


def input_digest(w: Workload, work: Path) -> str:
    h = hashlib.sha256()
    for name in input_files(w):
        h.update(name.encode())
        h.update((work / name).read_bytes())
    return h.hexdigest()


def _bits(x: np.ndarray) -> bytes:
    # + 0.0 folds -0.0 into 0.0: off-mask weights are zeroed by multiplying with
    # the mask, which keeps the sign, and the model file stores no off-mask entries
    return repr((x.dtype.str, x.shape)).encode() + (x + 0.0).tobytes()


def same_network(a, b) -> bool:
    """True when two networks hold bit-identical arrays, plans, head and config."""
    if (a.head_mode, a.plans, a.config, a.depth) != (b.head_mode, b.plans, b.config, b.depth):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.activation != lb.activation:
            return False
        for f in ("mask", "weights", "bias_hidden", "bias_visible"):
            if _bits(getattr(la, f)) != _bits(getattr(lb, f)):
                return False
    if (a.head is None) != (b.head is None):
        return False
    return a.head is None or (
        a.head.activation == b.head.activation
        and _bits(a.head.weights) == _bits(b.head.weights)
        and _bits(a.head.bias) == _bits(b.head.bias)
    )


def _build_config(w: Workload, seed: int):
    from trfnet.builder import BuildConfig
    from trfnet.dae import CorruptionConfig, DaeHyper
    from trfnet.data import DiscretizationPolicy

    return BuildConfig(
        radius=RADIUS,
        stride=STRIDE,
        depth=w.depth,
        global_fraction=GLOBAL_FRACTION,
        policy=DiscretizationPolicy.fixed(0.0),
        dae=DaeHyper(epochs=w.dae_epochs, seed=seed),
        corruption=CorruptionConfig("masking", CORRUPTION_RATE, seed=seed),
        seed=seed,
    )


class _Pass:
    """Times stage calls into trfnet and collects failed checks."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, stage: str, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - t0
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def run_pass(w: Workload, work: Path, seed: int) -> dict:
    """One pass of the workload's pipeline over the inputs in work.

    Returns the end-to-end metrics (except setup_s), the number of
    stage calls attempted, the failed checks, a fingerprint that must repeat
    for the same seed, and the facts the trace metrics need.
    """
    from trfnet import baselines, builder, data, interpret

    p = _Pass()
    start = time.perf_counter()
    train, valid, test = (
        p.call("load", data.load_sparse_bow, work / f"{s}.txt", work / "vocab.txt") for s in SPLITS
    )
    if w.kind == TRF:
        net = p.call("build", builder.build_trf_net, train, _build_config(w, seed))
        builder.attach_head(net, CLASSES)
        hyper = builder.FinetuneHyper(epochs=w.finetune_epochs, patience=w.finetune_epochs, seed=seed)
        net, _ = p.call("finetune", builder.finetune, net, train, valid, hyper)
        report = p.call("evaluate", builder.evaluate, net, test)
        scored, saved, trained = net, net, [net]
        finetune_calls = 1
    else:
        cfg = baselines.DenseNetConfig(
            hidden_widths=(w.dense_width,), epochs=w.finetune_epochs,
            patience=w.finetune_epochs, seed=seed,
        )
        dense, _ = p.call("finetune", baselines.train_dense, train, cfg, valid)
        p.call("evaluate", builder.evaluate, dense, test)
        hyper = baselines.hyper_from_config(cfg)
        pruned, _ = p.call("finetune", baselines.prune_and_retrain, dense, KEEP_FRACTION, train, hyper, valid)
        report = p.call("evaluate", builder.evaluate, pruned, test)
        l1, _ = p.call("finetune", baselines.train_l1, train, cfg, L1_STRENGTH, valid)
        p.call("evaluate", builder.evaluate, l1, test)
        scored, saved, trained = pruned, dense, [dense, pruned, l1]
        finetune_calls = 3

    p.call("save", builder.save, saved, work / "model.trf")
    loaded = p.call("load_model", builder.load, work / "model.trf")

    score = None
    if w.interpret:
        emb = p.call("load_embeddings", interpret.load_embeddings, work / "embeddings.txt")
        score = p.call("inspect", interpret.interpretability_score, scored, test, emb, TOP_K)
    total = time.perf_counter() - start

    for net_ in trained:
        p.check(net_.mask_violation() == 0.0, f"mask violation {net_.mask_violation()!r}")
    p.check(report.accuracy >= w.accuracy_floor,
            f"test accuracy {report.accuracy!r} below the floor {w.accuracy_floor}")
    model_bytes = (work / "model.trf").read_bytes()
    p.check(same_network(saved, loaded), "load(save(net)) differs from net")
    builder.save(loaded, work / "resaved.trf")
    p.check((work / "resaved.trf").read_bytes() == model_bytes, "saving the loaded model changed its bytes")
    if w.interpret:
        p.check(score is not None and math.isfinite(score), f"interpretability score {score!r}")

    fp = hashlib.sha256()
    for plan, layer in zip(scored.plans, scored.layers):
        fp.update(repr(plan).encode())
        fp.update(_bits(layer.mask))
    fp.update(repr((report.accuracy, report.sparsity)).encode())
    fp.update(hashlib.sha256(model_bytes).digest())

    trf_plans, trf_layers = (scored.plans, scored.layers) if w.kind == TRF else ([], [])
    return {
        "metrics": {
            "total_s": total,
            "finetune_s": p.seconds["finetune"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": report.accuracy,
            "hidden_density": report.sparsity,
        },
        "attempted": p.attempted,
        "failures": p.failures,
        "fingerprint": fp.hexdigest(),
        "facts": {
            "dae_epochs": w.depth * w.dae_epochs,
            "finetune_epochs": finetune_calls * w.finetune_epochs,
            "model_bytes": len(model_bytes),
            "centers": [len(plan.centers) for plan in trf_plans],
            "nnz": [int(layer.mask.sum()) for layer in trf_layers],
        },
    }
