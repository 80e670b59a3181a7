#!/usr/bin/env python3
"""Stage-level benchmark of the trfnet pipeline.

    python3 perfbench/run.py --workload news-d2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Set-up
writes the workload's bag-of-words inputs from --seed, SETUP_REPS times
(setup_s is the median).  Each measured pass then runs in a fresh child
process with BLAS threads capped at the core count through TRFNET_THREADS.
With --trace 0 passes repeat until --seconds have gone by (at least
MIN_PASSES) and every end-to-end metric is the median over passes.  With --trace 1 the run
makes one untraced and one traced pass and reports the per-layer metrics of
the traced one; its spans are written to .perfbench/traces/.

Every pass checks its outputs (see workloads.run_pass).  Fingerprints of the
learned structure, accuracy, density and model bytes must agree between the
passes of a run and with any earlier run of the same seed and code, whose
fingerprint is kept in .perfbench/fingerprints/.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 5
# two passes at least, so every run checks determinism and no metric rests on one sample
MIN_PASSES = 2
# a run must end within 180 s; children get what is left of this
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "finetune_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "hidden_density": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same paths on small inputs (smoke.py)")
    ap.add_argument("--child-out", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_checkout_package() -> None:
    """Import trfnet from this checkout's src/ and cap BLAS threads; must run before numpy loads."""
    os.environ["TRFNET_THREADS"] = str(len(os.sched_getaffinity(0)))
    # trfnet copies TRFNET_THREADS only into BLAS variables that are unset
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    import trfnet

    if not Path(trfnet.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported trfnet from {trfnet.__file__}, not from {SRC}")


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.joinpath("trfnet").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_main(args) -> int:
    """One pass in this fresh process; writes its result as JSON to --child-out."""
    use_checkout_package()
    import spans
    import workloads

    w = workloads.WORKLOADS[args.size][args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    result = workloads.run_pass(w, Path(args.work), args.seed)
    if tracer is not None:
        tracer.probe_memory()
        result["spans"] = tracer.to_json()
    Path(args.child_out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_child(args, work: Path, n: int, traced: bool, deadline: float) -> dict:
    out = work / f"pass{n}.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0", "--size", args.size,
        "--work", str(work), "--child-out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {n} did not finish within the run's time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {n} failed with exit code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_fingerprint(args, fingerprint: str) -> list[str]:
    """Compare with an earlier run of the same workload, size, seed and code."""
    record = STATE / "fingerprints" / f"{args.workload}-{args.size}-seed{args.seed}-{code_digest()[:16]}.txt"
    if record.exists():
        if record.read_text(encoding="utf-8") != fingerprint:
            return [f"determinism: fingerprint differs from the earlier run recorded in {record.name}"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(fingerprint, encoding="utf-8")
    os.replace(tmp, record)
    return []


def measure(args, w, work: Path) -> tuple[dict, int, list[str]]:
    import spans
    import workloads

    deadline = time.monotonic() + RUN_BUDGET_S
    failures: list[str] = []
    setup_s, digests = [], set()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workloads.write_inputs(w, args.seed, work)
        setup_s.append(time.perf_counter() - t0)
        digests.add(workloads.input_digest(w, work))
    if len(digests) != 1:
        failures.append("set-up wrote different inputs for the same seed")
    print(f"inputs    sha256:{digests.pop()[:16]} ({w.docs} docs, V={w.vocab}, seed {args.seed})")

    passes = []
    if args.trace:
        passes = [run_child(args, work, 0, False, deadline), run_child(args, work, 1, True, deadline)]
    else:
        t0 = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - t0 < args.seconds:
            passes.append(run_child(args, work, len(passes), False, deadline))
    attempted = SETUP_REPS + sum(p["attempted"] for p in passes)
    for i, p in enumerate(passes):
        failures += [f"pass {i}: {f}" for f in p["failures"]]
    if len({p["fingerprint"] for p in passes}) != 1:
        failures.append("determinism: passes over the same inputs disagree")
    failures += check_fingerprint(args, passes[0]["fingerprint"])

    if args.trace:
        untraced, traced = passes
        span_list = [spans.Span(**s) for s in traced["spans"]]
        trace_file = STATE / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(traced["spans"]), encoding="utf-8")
        print(spans.table(span_list))
        print(f"spans     {trace_file.relative_to(ROOT)}")
        metrics = spans.layer_metrics(
            span_list, traced["facts"], traced["metrics"]["total_s"], untraced["metrics"]["total_s"]
        )
        units = {name: (unit, moves) for name, unit, moves in spans.LAYER_METRICS}
    else:
        metrics = {"setup_s": statistics.median(setup_s)}
        for name in END_TO_END_UNITS:
            if name != "setup_s":
                metrics[name] = statistics.median(p["metrics"][name] for p in passes)
        units = {name: (unit, "") for name, unit in END_TO_END_UNITS.items()}
    print(f"passes    {len(passes)} (fresh process each), TRFNET_THREADS={os.environ['TRFNET_THREADS']}")
    for name, value in metrics.items():
        unit, moves = units[name]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<38} {shown} {unit:<8} {moves}")
    result = {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()}
    return result, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child_out:
        return child_main(args)
    if not (SRC / "trfnet" / "__init__.py").is_file():
        print(f"perfbench: no trfnet package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        use_checkout_package()
        import workloads

        if args.workload not in workloads.WORKLOADS[args.size]:
            raise BenchError(f"unknown workload {args.workload!r}")
        w = workloads.WORKLOADS[args.size][args.workload]
        work = STATE / f"run-{args.workload}-{args.size}-seed{args.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            metrics, attempted, failures = measure(args, w, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"FAILED CHECK  {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
