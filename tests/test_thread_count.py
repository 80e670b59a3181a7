"""The BLAS thread count does not change the bits, from 2 threads up.

Each side runs in a fresh interpreter, because the BLAS reads its thread
count once, when numpy loads.  It computes the products the benchmark
workloads run at their layer-0 shapes, on seeded inputs:

- news-d2: a sparse 550 x 2000 layer;
- wide-v4000: a sparse 1100 x 4000 layer;
- baselines-dense256: a full 256 x 2000 layer.

At each shape it makes one DAE step's loss and gradients and one fine-tune
step's logits and gradients at batch 128, and the eval forward at N = 300
and N = 1400.  The sides must print the same digest for every product.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PRODUCTS = r"""
import hashlib, json
from dataclasses import replace
import numpy as np
from trfnet import nn

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()

out = {}
for h, v, full in ((550, 2000, False), (1100, 4000, False), (256, 2000, True)):
    rng = np.random.default_rng(h * v)
    index = np.arange(h * v) if full else np.sort(rng.choice(h * v, size=h * v // 10, replace=False))
    layer = nn.init_masked_layer(index, (h, v), rng)
    layer.bias_hidden[:] = rng.normal(scale=0.3, size=h)
    layer.bias_visible[:] = rng.normal(scale=0.3, size=v)
    buf = nn.buffers(layer)
    batch = (rng.random((128, v)) < 0.05).astype(np.float64)
    x_tilde = batch * (rng.random(batch.shape) >= 0.3)
    grads = [np.zeros_like(a) for a in (layer.values, layer.bias_hidden, layer.bias_visible)]
    loss = nn.dae_gradients(layer, batch, x_tilde, nn.BERNOULLI, buf, grads)
    out[f"{h}x{v} dae"] = digest(loss, *grads)
    for n in (300, 1400):
        x = rng.poisson(0.05, size=(n, v)).astype(np.float64)
        out[f"{h}x{v} eval N={n}"] = digest(nn.hidden_representation([layer], x, [buf]))
    layer = replace(layer, activation="relu")
    head = nn.init_dense_layer(2, h, rng)
    logits, caches = nn.stack_forward([layer], head, batch, [buf], 0.5, rng)
    _, dlogits = nn.softmax_cross_entropy(logits, rng.integers(0, 2, size=128))
    grads = [np.zeros_like(a) for a in nn.stack_params([layer], head)]
    nn.stack_backward([layer], head, caches, dlogits, [buf], grads)
    out[f"{h}x{v} finetune"] = digest(logits, *grads)
print(json.dumps(out))
"""


def product_digests(threads: int) -> dict:
    # trfnet copies TRFNET_THREADS only into the BLAS variables that are unset
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["TRFNET_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", PRODUCTS], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(proc.stdout)


def test_four_threads_give_the_bits_of_two():
    at_two, at_four = product_digests(2), product_digests(4)
    assert len(at_two) == 3 * 4 and at_four.keys() == at_two.keys()
    differing = sorted(name for name in at_two if at_four[name] != at_two[name])
    assert not differing, f"products whose bits differ at 4 threads: {differing}"
