"""Command-line front end.

Subcommands mirror the pipeline: tree, build, finetune, eval, baseline,
inspect, compare.  Each command returns a Run: the files it read, the files
it wrote (the primary output first), its seeds and the stage timings the
library reported.  main is the one manifest writer.  It times the command
and writes <primary output>.manifest.json with the flags, seeds, input
digests, output paths, BLAS build and thread settings (the bytes of a model
depend on both) and timings: `total` plus the library's stage timings.
compare printing to stdout writes neither a file nor a manifest.  Exit codes:
0 success, 1 runtime failure, 2 usage error.

Set TRFNET_THREADS to cap the BLAS thread count for a run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import baselines, builder
from .dae import CorruptionConfig, DaeHyper
from .data import (
    DiscretizationPolicy,
    check_split_fractions,
    discretize,
    load_dense_csv,
    load_sparse_bow,
    split,
)
from .errors import DomainError
from .interpret import describe_units, load_embeddings, model_interpretability
from .tree import chow_liu, to_dot


class CliError(Exception):
    """Usage error with a user-facing message (exit code 2)."""


class Run(NamedTuple):
    """What one command read and wrote; main records it in the manifest."""

    inputs: list
    outputs: list  # the primary output first: the manifest goes next to it
    seeds: dict = {}
    timings: dict = {}  # the library's stage timings; main adds "total"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _blas_environment() -> dict:
    """numpy's BLAS build, the thread variables BLAS reads, and the CPUs it may use (its default thread count)."""
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = ("TRFNET_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    threads = {name: os.environ.get(name) for name in names}
    threads["cpu_affinity"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"blas": build, "threads": threads}


def _write_manifest(args, run: Run, total: float) -> None:
    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seeds": run.seeds,
        "inputs": {str(p): f"sha256:{_sha256(p)}" for p in run.inputs},
        "outputs": [str(p) for p in run.outputs],
        **_blas_environment(),
        "timings": {"total": total, **run.timings},
    }
    with open(f"{run.outputs[0]}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", help="dense CSV input")
    p.add_argument("--labels", action="store_true", help="dense CSV has a label column")
    p.add_argument("--bow", help="sparse bag-of-words document file")
    p.add_argument("--vocab", help="vocabulary file for --bow")


def _load_data(args, need_labels=False):
    if args.bow is not None:
        if args.vocab is None:
            raise CliError("--bow requires --vocab")
        d = load_sparse_bow(args.bow, args.vocab)
        inputs = [args.bow, args.vocab]
    elif args.data is not None:
        d = load_dense_csv(args.data, has_labels=args.labels or need_labels)
        inputs = [args.data]
    else:
        raise CliError("no input: pass --data FILE or --bow FILE --vocab FILE")
    if need_labels and d.labels is None:
        raise CliError("this command needs labeled data")
    return d, inputs


def _parse_policy(spec: str | None):
    """The policy --policy names, or None when the flag is absent; the
    data-dependent default is filled in after loading (_default_policy)."""
    if spec is None:
        return None
    if spec == "median":
        return DiscretizationPolicy.median()
    if spec == "binary":
        return DiscretizationPolicy.already_binary()
    if spec.startswith("fixed:"):
        try:
            return DiscretizationPolicy.fixed(float(spec.split(":", 1)[1]))
        except ValueError as e:
            raise CliError(f"--policy: {e}") from None
    raise CliError(f"--policy: expected median, binary, or fixed:T, got {spec!r}")


def _default_policy(args, d):
    # presence/absence for bag-of-words counts; dense data keeps {0,1}
    # matrices as-is and median-splits anything real-valued
    if args.bow is not None:
        return DiscretizationPolicy.fixed(0.0)
    if d.is_binary():
        return DiscretizationPolicy.already_binary()
    return DiscretizationPolicy.median()


def _parse_corruption(spec: str, seed: int):
    kind, _, rate = spec.partition(":")
    if kind not in ("masking", "gaussian"):
        raise CliError(f"--corruption: expected masking:RATE or gaussian:STD, got {spec!r}")
    kind = "masking" if kind == "masking" else "gaussian-additive"
    try:
        return CorruptionConfig(kind=kind, rate=float(rate), seed=seed)
    except ValueError as e:
        raise CliError(f"--corruption: {e}") from None


def _parse_int_list(spec: str, flag: str):
    """One int, or a tuple of them for a comma-separated list."""
    try:
        values = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated ints, got {spec!r}") from None
    return values[0] if len(values) == 1 else values


def _require_counts(args, *names):
    """Usage error for a count flag below 1, raised before any input is read."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise CliError(f"--{name}: expected a count >= 1, got {value}")


# the flag that sets each library field whose range a config or check enforces
_FIELD_FLAGS = {
    "radius": "--radius",
    "stride": "--stride",
    "global_fraction": "--globals",
    "loss_family": "--family",
    "step_size": "--step",
    "dropout_rate": "--dropout",
    "activation": "--activation",
    "hidden_widths": "--widths",
    "keep_fraction": "--keep",
    "strength": "--strength",
    "train_frac": "--train-frac",
    "valid_frac": "--valid-frac",
    "name": "--name",
}


@contextlib.contextmanager
def _flag_errors():
    """Report a range check's ValueError as a usage error naming the flag.

    The library's messages begin with the field they reject; configs are
    built inside this before any input is read.
    """
    try:
        yield
    except ValueError as e:
        field = str(e).split(" ", 1)[0]
        raise CliError(f"{_FIELD_FLAGS.get(field, field)}: {e}") from None


def _split_labeled(d, args):
    train, valid, test = split(d, args.train_frac, args.valid_frac, args.split_seed)
    if train is None:
        raise CliError("--train-frac: training split is empty")
    return train, valid, test


def _add_fit_flags(p):
    """The split and training flags that finetune and baseline share; the training defaults are FinetuneHyper's."""
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--valid-frac", type=float, default=0.15)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=builder.FinetuneHyper.epochs)
    p.add_argument("--batch", type=int, default=builder.FinetuneHyper.batch_size)
    p.add_argument("--step", type=float, default=builder.FinetuneHyper.step_size)
    p.add_argument("--dropout", type=float, default=builder.FinetuneHyper.dropout_rate)
    p.add_argument("--patience", type=int, default=builder.FinetuneHyper.patience)
    p.add_argument("--seed", type=int, default=builder.FinetuneHyper.seed)
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--report", help="report path (default: OUT.report)")


def _fit_settings(args) -> dict:
    """The FinetuneHyper fields the fit flags set; a count below 1 is a usage error."""
    _require_counts(args, "epochs", "batch", "patience")
    return dict(epochs=args.epochs, batch_size=args.batch, step_size=args.step,
                dropout_rate=args.dropout, patience=args.patience, seed=args.seed)


# ---------------------------------------------------------------- commands


def cmd_tree(args) -> Run:
    if args.top_edges < 0:
        raise CliError(f"--top-edges: expected a count >= 0, got {args.top_edges}")
    policy = _parse_policy(args.policy)
    d, inputs = _load_data(args)
    if policy is None:
        policy = _default_policy(args, d)
    names = d.feature_names or tuple(str(i) for i in range(d.n_features))
    binary = discretize(d, policy)
    del d  # the float values are not needed for the tree
    tree = chow_liu(binary)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(to_dot(tree, names))
    edges_path = args.out + ".edges.txt"
    ranked = sorted(tree.edges, key=lambda e: (-e[2], e[0], e[1]))[: args.top_edges]
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write("rank\tmi\tnode_u\tnode_v\n")
        for rank, (u, v, w) in enumerate(ranked, start=1):
            fh.write(f"{rank}\t{w:.6f}\t{names[u]}\t{names[v]}\n")
    return Run(inputs, [args.out, edges_path])


def cmd_build(args) -> Run:
    _require_counts(args, "epochs", "depth", "batch")
    with _flag_errors():
        cfg = builder.BuildConfig(
            radius=_parse_int_list(args.radius, "--radius"),
            stride=_parse_int_list(args.stride, "--stride"),
            depth=args.depth,
            global_fraction=args.globals_fraction,
            dae=DaeHyper(
                epochs=args.epochs,
                batch_size=args.batch,
                step_size=args.step,
                loss_family=args.family,
                seed=args.seed,
            ),
            corruption=_parse_corruption(args.corruption, args.seed),
            seed=args.seed,
        )
    policy = _parse_policy(args.policy)
    d, inputs = _load_data(args)
    cfg = replace(cfg, policy=_default_policy(args, d) if policy is None else policy)
    try:
        net = builder.build_trf_net(d, cfg)
    except DomainError as e:
        raise CliError(f"--family: {e}") from None
    builder.save(net, args.out)
    log_path = args.out + ".train_log.csv"
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("layer,epoch,mean_loss\n")
        for k, log in enumerate(net.training_logs):
            for epoch, loss in enumerate(log, start=1):
                fh.write(f"{k},{epoch},{loss!r}\n")
    return Run(inputs, [args.out, log_path], {"seed": args.seed})


def _ensure_head(net, d) -> None:
    """Attach a fresh softmax head sized from d's class labels (the loaders' only kind) to a network without one."""
    if net.head is None:
        builder.attach_head(net, builder.n_classes(d))


def cmd_finetune(args) -> Run:
    with _flag_errors():
        hyper = builder.FinetuneHyper(**_fit_settings(args), activation=args.activation, reinit=args.reinit)
        check_split_fractions(args.train_frac, args.valid_frac)
        builder.check_report_name(args.name)
    d, inputs = _load_data(args, need_labels=True)
    inputs = [args.model] + inputs
    net = builder.load(args.model)
    train, valid, _ = _split_labeled(d, args)
    _ensure_head(net, d)
    net, report = builder.finetune(net, train, valid, hyper)
    builder.save(net, args.out)
    report_path = args.report or (args.out + ".report")
    builder.save_report(report, report_path, name=args.name)
    seeds = {"seed": args.seed, "split_seed": args.split_seed}
    return Run(inputs, [args.out, report_path], seeds, report.wall_clock)


def cmd_eval(args) -> Run:
    with _flag_errors():
        builder.check_report_name(args.name)
    d, inputs = _load_data(args, need_labels=True)
    inputs = [args.model] + inputs
    net = builder.load(args.model)
    report = builder.evaluate(net, d)
    builder.save_report(report, args.report, name=args.name)
    return Run(inputs, [args.report], timings=report.wall_clock)


def cmd_baseline(args) -> Run:
    with _flag_errors():
        cfg = baselines.DenseNetConfig(
            **_fit_settings(args), hidden_widths=np.atleast_1d(_parse_int_list(args.widths, "--widths"))
        )
        check_split_fractions(args.train_frac, args.valid_frac)
        baselines.check_keep_fraction(args.keep)
        baselines.check_l1_strength(args.strength)
        builder.check_report_name(args.name or args.kind)
    d, inputs = _load_data(args, need_labels=True)
    train, valid, test = _split_labeled(d, args)
    effective, timings = None, {}
    if args.kind == "dense":
        net, report = baselines.train_dense(train, cfg, valid)
    elif args.kind == "l1":
        net, report = baselines.train_l1(train, cfg, args.strength, valid)
        effective = report.effective_sparsity
    else:
        if args.model is not None:
            base = builder.load(args.model)
            inputs.append(args.model)
            _ensure_head(base, d)
        else:
            base, base_report = baselines.train_dense(train, cfg, valid)
            timings["base_finetune"] = base_report.wall_clock["finetune"]
        net, report = baselines.prune_and_retrain(base, args.keep, train, cfg, valid)
    timings.update(report.wall_clock)
    if test is not None:
        report = replace(builder.evaluate(net, test), effective_sparsity=effective)
        timings.update(report.wall_clock)
    builder.save(net, args.out)
    report_path = args.report or (args.out + ".report")
    builder.save_report(report, report_path, name=args.name or args.kind)
    seeds = {"seed": args.seed, "split_seed": args.split_seed}
    return Run(inputs, [args.out, report_path], seeds, timings)


def cmd_inspect(args) -> Run:
    _require_counts(args, "top")
    d, inputs = _load_data(args)
    inputs = [args.model] + inputs
    net = builder.load(args.model)
    emb = None
    if args.embeddings:
        emb = load_embeddings(args.embeddings)
        inputs.append(args.embeddings)
    names = d.feature_names or tuple(str(j) for j in range(d.n_features))
    units = describe_units(net, d, args.top, emb)
    lines = []
    for unit, (top, score) in enumerate(units):
        shown = " ".join(f"{names[j]}({r:+.3f})" for j, r in top)
        line = f"unit {unit}\t{shown}"
        if emb is not None:
            line += f"\tscore {'-' if score is None else repr(score)}"
        lines.append(line)
    mean = model_interpretability([score for _, score in units])
    if mean is not None:
        lines.append(f"model_interpretability {mean!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return Run(inputs, [args.out])


def cmd_compare(args) -> Run | None:
    rows = []
    for path in args.reports:
        name, r = builder.load_report(path)
        rows.append(
            (
                name,
                "-" if r.score is None else f"{r.score:.4f}",
                str(r.parameter_count),
                f"{100 * r.sparsity:.2f}%",
                "-" if r.effective_sparsity is None else f"{100 * r.effective_sparsity:.2f}%",
            )
        )
    header = ("model", "accuracy/auc", "params", "sparsity", "eff.sparsity")
    widths = [max(len(header[c]), *(len(row[c]) for row in rows)) for c in range(5)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    table = "\n".join([fmt.format(*header)] + [fmt.format(*row) for row in rows]) + "\n"
    if not args.out:
        sys.stdout.write(table)
        return None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(table)
    return Run(list(args.reports), [args.out])


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trfnet",
        description="Learn sparse feedforward networks from feature dependency trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="learn a dependency tree and export it as DOT")
    _add_data_flags(p)
    p.add_argument("--policy", help="median | binary | fixed:T")
    p.add_argument("--out", required=True, help="DOT output path")
    p.add_argument("--top-edges", type=int, default=20)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("build", help="learn structure and pretrain a stacked network")
    _add_data_flags(p)
    p.add_argument("--radius", default="2", help="per-layer int or comma list")
    p.add_argument("--stride", default="2", help="per-layer int or comma list")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--globals", dest="globals_fraction", type=float, default=0.1)
    p.add_argument("--policy", help="median | binary | fixed:T")
    p.add_argument("--family", default="auto", help="auto | bernoulli | gaussian")
    p.add_argument("--corruption", default="masking:0.2", help="masking:RATE | gaussian:STD")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("finetune", help="attach a head and train with backpropagation")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    _add_fit_flags(p)
    p.add_argument("--activation", default=builder.FinetuneHyper.activation)
    p.add_argument("--reinit", action="store_true", help="discard pretrained weights")
    p.add_argument("--name", default="trf", help="row name used by compare")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a trained model on labeled data")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--report", required=True)
    p.add_argument("--name", default="model")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="train a comparison model")
    p.add_argument("kind", choices=("dense", "prune", "l1"))
    _add_data_flags(p)
    _add_fit_flags(p)
    widths = ",".join(map(str, baselines.DenseNetConfig.hidden_widths))
    p.add_argument("--widths", default=widths, help="hidden widths, comma separated")
    p.add_argument("--keep", type=float, default=0.1, help="prune: fraction of weights kept")
    p.add_argument("--strength", type=float, default=1e-5, help="l1: penalty strength")
    p.add_argument("--model", help="prune: existing dense model to start from")
    p.add_argument("--name", help="row name used by compare (default: the kind)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("inspect", help="describe top-layer units by correlated features")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--embeddings", help="embedding table for coherence scores")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("compare", help="align report files into one table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        run = args.func(args)
        if run is not None:
            _write_manifest(args, run, time.perf_counter() - t0)
        return 0
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e.filename}: file not found", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
