import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_SCRIPT = ROOT / "scripts" / "make_news_fixture.py"


def run_fixture_script(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(FIXTURE_SCRIPT), *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_fixture_script_rejects_a_vocabulary_too_small_for_its_blocks(tmp_path):
    out = tmp_path / "news"
    proc = run_fixture_script("--out-dir", str(out), "--docs", "300", "--vocab", "200")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = proc.stderr.strip().splitlines()[-1]
    assert error.startswith("make_news_fixture.py: error:")
    assert "--vocab 200" in error and "--block-size 16" in error
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--docs", "-1"), "--docs must be at least 1, got -1"),
    (("--docs", "0"), "--docs must be at least 1, got 0"),
    (("--docs", "2", "--block-size", "8"), "--docs 2 leaves a split without documents"),
    (("--block-size", "0"), "--block-size must be at least 1, got 0"),
    (("--classes", "0"), "--classes must be at least 1, got 0"),
    (("--seed", "-1"), "--seed must be at least 0, got -1"),
])
def test_fixture_script_rejects_other_bad_flags(tmp_path, args, message):
    out = tmp_path / "news"
    proc = run_fixture_script("--out-dir", str(out), "--vocab", "200", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = proc.stderr.strip().splitlines()[-1]
    assert error.startswith(f"make_news_fixture.py: error: {message}")
    assert not out.exists()


def test_fixture_script_writes_the_splits(tmp_path):
    out = tmp_path / "news"
    proc = run_fixture_script("--out-dir", str(out), "--docs", "300", "--vocab", "200", "--block-size", "8")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "embeddings.txt", "test.txt", "train.txt", "valid.txt", "vocab.txt",
    ]
