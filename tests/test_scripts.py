import os
import subprocess
import sys
from pathlib import Path

import pytest

from trfnet.data import save_sparse_bow, split
from trfnet.synth import news_corpus

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
    (("--confusion", "2"), "--confusion must lie in [0, 1], got 2.0"),
    (("--confusion", "-0.1"), "--confusion must lie in [0, 1], got -0.1"),
    (("--topic-share", "1.5"), "--topic-share must lie in [0, 1], got 1.5"),
    (("--topic-share", "nan"), "--topic-share must lie in [0, 1], got nan"),
    (("--doc-length", "-1"), "--doc-length must be finite and at least 0, got -1.0"),
    (("--doc-length", "inf"), "--doc-length must be finite and at least 0, got inf"),
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


def test_fixture_script_writes_the_hard_preset_as_the_library_does(tmp_path):
    seed = 5
    out = tmp_path / "hard"
    proc = run_fixture_script("--out-dir", str(out), "--docs", "400", "--vocab", "400", "--block-size", "8",
                              "--confusion", "0.4", "--doc-length", "15", "--topic-share", "0.4",
                              "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr
    corpus = news_corpus(n_docs=400, vocab_size=400, block_size=8, confusion=0.4, doc_length_mean=15.0,
                         topic_token_share=0.4, seed=seed)
    want = tmp_path / "want"
    want.mkdir()
    for name, piece in zip(("train", "valid", "test"), split(corpus, 0.7, 0.15, seed=seed)):
        save_sparse_bow(piece, want / f"{name}.txt", want / "vocab.txt")
    for name in ("train.txt", "valid.txt", "test.txt", "vocab.txt"):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
