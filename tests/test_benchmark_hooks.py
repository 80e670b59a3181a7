"""The names the benchmark in perfbench/ reaches into trfnet by.

perfbench/spans.py wraps the functions in its TRACED table by module and
attribute name, and perfbench/workloads.py fingerprints layer.mask.  A
refactor that renames one of them should fail here rather than in a
benchmark run.  spans.py is only loaded, never run: nothing is instrumented.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from trfnet import nn

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_spans().TRACED, ids=lambda e: e[0])
def test_traced_name_resolves(entry):
    _, module, attr, _ = entry
    assert module == "trfnet" or module.startswith("trfnet.")
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_masked_layer_keeps_dense_mask_view():
    layer = nn.init_masked_layer(np.array([1, 4, 5]), (2, 3), np.random.default_rng(0))
    np.testing.assert_array_equal(layer.mask, [[0, 1, 0], [0, 1, 1]])
