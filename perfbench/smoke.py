#!/usr/bin/env python3
"""Tiny-size smoke run of every workload path of the benchmark.

    python3 perfbench/smoke.py

Runs run.py with --size tiny (a few hundred documents, V in the low hundreds)
for each workload in BENCHMARK.json, with two seeds and both trace modes.
Asserts that every run passes its checks and emits exactly the metrics
BENCHMARK.json names, each with its unit; that another seed changes the
inputs but not the metric names; and that a copy of the benchmark without
the package exits non-zero without printing a result.  Takes well under a
minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec, workload: str, seed: int, trace: int) -> tuple[str, list[str]]:
    proc = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--size", "tiny"], ROOT)
    where = f"{workload} seed {seed} trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{where}: checks failed\n{proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    expected = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected], f"{where}: metric names differ"
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']!r} != {m['unit']!r}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {m['name']} = {value!r}"
        if not trace:
            assert value > 0, f"{where}: end-to-end metric {m['name']} is {value!r}"
    inputs = next(ln for ln in lines if ln.startswith("inputs "))
    return inputs.split()[1], list(result["metrics"])


def check_bare_copy() -> None:
    """The benchmark alone, without src/, must fail without printing a result."""
    bare = ROOT / ".perfbench" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run([sys.executable, "perfbench/run.py", "--workload", "news-d2", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0, "bare copy exited 0"
        assert '"metrics"' not in proc.stdout, "bare copy printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            seen = {seed: check_run(spec, w["name"], seed, trace) for seed in SEEDS}
            runs += len(SEEDS)
            (in1, names1), (in2, names2) = seen[SEEDS[0]], seen[SEEDS[1]]
            assert in1 != in2, f"{w['name']}: seeds {SEEDS} wrote the same inputs"
            assert names1 == names2, f"{w['name']}: metric names depend on the seed"
    check_bare_copy()
    print(f"smoke: ok ({runs} tiny runs, {len(spec['workloads'])} workloads, bare copy refused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
