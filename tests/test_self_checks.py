"""Layers, heads, networks and reports check themselves when they are made,
and what save writes, load reads back.

Each rule lives in its type: nn.MaskedLayer, nn.DenseLayer,
builder.TrfNetwork and builder.EvalReport raise ValueError for a defect at
construction, and the readers turn that error into ModelFormatError naming
the layer or the head.  A network checks itself again before attach_head,
finetune, evaluate and save use it, so a field set since is caught there.
"""

import base64
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_builder import V1_FIXTURE, report_text_with, reseal, v1_fixture_network
from trfnet import nn
from trfnet.baselines import DenseNetConfig
from trfnet.builder import (
    BuildConfig,
    EvalReport,
    FinetuneHyper,
    TrfNetwork,
    attach_head,
    clone,
    evaluate,
    finetune,
    load,
    load_report,
    save,
    save_report,
)
from trfnet.dae import CorruptionConfig, DaeHyper
from trfnet.data import FIXED, Dataset, DiscretizationPolicy
from trfnet.errors import ModelFormatError
from trfnet.receptive_field import ReceptiveFieldPlan

FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
UNIT = st.floats(min_value=0.0, max_value=1.0)


def layer_3x4(index=(0, 5, 7), values=None, activation="sigmoid"):
    index = np.asarray(index)
    values = np.arange(1.0, index.size + 1) if values is None else values
    return nn.MaskedLayer(index, values, np.zeros(3), np.zeros(4), activation)


def head_2x3(bias=None):
    return nn.DenseLayer(np.ones((2, 3)), np.zeros(2) if bias is None else bias)


def saved_lines(tmp_path) -> list[str]:
    net = TrfNetwork(layers=[layer_3x4()], plans=[None], head=head_2x3())
    save(net, tmp_path / "m.trf")
    return (tmp_path / "m.trf").read_text().splitlines()


def b64(a, dtype) -> str:
    return base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode()


def set_line(lines, key, text):
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
    lines[i] = f"{key} {text}"


# ---------------------------------------------------------------------------
# what save writes, load reads back
# ---------------------------------------------------------------------------


@st.composite
def layers_and_plans(draw, v):
    """One layer of width v: sparse, full, or stored through a plan."""
    kind = draw(st.sampled_from(["sparse", "full", "plan"]))
    plan = None
    if kind == "plan":
        centers = draw(st.lists(st.integers(0, v - 1), min_size=0, max_size=4, unique=True))
        fields = tuple(
            tuple(sorted(draw(st.sets(st.integers(0, v - 1), min_size=1, max_size=v)))) for _ in centers
        )
        globals_ = draw(st.integers(0 if centers else 1, 2))
        plan = ReceptiveFieldPlan(radius=1, stride=1, centers=tuple(centers), fields=fields, global_count=globals_)
        h, index = plan.hidden_count, plan.index(v)
    else:
        h = draw(st.integers(1, 5))
        if kind == "full":
            index = None
        else:
            index = np.array(sorted(draw(st.sets(st.integers(0, h * v - 1), max_size=h * v))), dtype=np.int64)
    count = h * v if index is None else index.size
    arrays = [np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))) for n in (count, h, v)]
    activation = draw(st.sampled_from(sorted(nn.ACTIVATIONS)))
    return nn.MaskedLayer(index, *arrays, activation), plan


@st.composite
def networks(draw):
    width = draw(st.integers(1, 5))
    layers, plans = [], []
    for _ in range(draw(st.integers(1, 2))):
        layer, plan = draw(layers_and_plans(width))
        layers.append(layer)
        plans.append(plan)
        width = layer.hidden_count
    head = None
    if draw(st.booleans()):
        o = draw(st.integers(1, 3))
        w = np.array(draw(st.lists(FLOATS, min_size=o * width, max_size=o * width))).reshape(o, width)
        head = nn.DenseLayer(w, np.array(draw(st.lists(FLOATS, min_size=o, max_size=o))))
    return TrfNetwork(layers=layers, plans=plans, head=head, head_mode=draw(st.sampled_from(["softmax", "multitask"])))


@st.composite
def reports(draw):
    optional = lambda s: st.none() | s  # noqa: E731
    aucs = draw(optional(st.lists(st.just(-1.0) | UNIT, min_size=1, max_size=4)))
    return EvalReport(
        parameter_count=draw(st.integers(0, 2**40)),
        sparsity=draw(UNIT),
        accuracy=draw(optional(UNIT)),
        auc_per_task=None if aucs is None else tuple(aucs),
        effective_sparsity=draw(optional(UNIT)),
    )


# what str.splitlines splits on; "\r\n" is two of them
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(net=networks())
    def test_load_of_save_gives_the_same_bytes(self, tmp_path_factory, net):
        d = tmp_path_factory.mktemp("net")
        save(net, d / "a.trf")
        back = load(d / "a.trf")
        save(back, d / "b.trf")
        assert (d / "b.trf").read_bytes() == (d / "a.trf").read_bytes()
        for a, b in zip(net.layers, back.layers):
            assert a.activation == b.activation
            assert (a.index is None) == (b.index is None)
            for name in ("index", "values", "bias_hidden", "bias_visible"):
                x, y = getattr(a, name), getattr(b, name)
                assert x is None or x.tobytes() == y.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(report=reports(), name=st.text())
    def test_load_report_of_save_report_gives_the_same_bytes(self, tmp_path_factory, report, name):
        """Each name either raises before the file is opened or reloads as written."""
        d = tmp_path_factory.mktemp("report")
        try:
            save_report(report, d / "a.report", name=name)
        except ValueError:
            assert any(brk in name for brk in LINE_BREAKS), f"one-line name {name!r} refused"
            assert not (d / "a.report").exists()
            return
        assert not any(brk in name for brk in LINE_BREAKS)
        got_name, back = load_report(d / "a.report")
        assert got_name == name
        save_report(back, d / "b.report", name=got_name)
        assert (d / "b.report").read_bytes() == (d / "a.report").read_bytes()
        assert back == report

    def test_an_int_or_a_numpy_float_in_a_float_field_is_written_as_a_float(self, tmp_path):
        """The readers take a float only as its repr, so save and save_report write repr(float(x))."""
        report = EvalReport(
            parameter_count=3, sparsity=1, accuracy=np.float64(0.5), auc_per_task=(1, np.float64(0.25)),
            effective_sparsity=0,
        )
        save_report(report, tmp_path / "a.report")
        assert load_report(tmp_path / "a.report")[1] == report
        config = BuildConfig(
            global_fraction=0, policy=DiscretizationPolicy(FIXED, 0), dae=DaeHyper(step_size=1),
            corruption=CorruptionConfig(rate=np.float64(0.5)),
        )
        save(TrfNetwork(layers=[layer_3x4()], plans=[None], config=config), tmp_path / "m.trf")
        assert load(tmp_path / "m.trf").config == config

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_a_report_name_with_a_line_break_is_refused(self, tmp_path, brk):
        """Read back, the rest of the name would be a report line of its own."""
        report = EvalReport(parameter_count=10, sparsity=0.5)
        with pytest.raises(ValueError, match="line break"):
            save_report(report, tmp_path / "r.report", name=f"x{brk}effective_sparsity 0.5")
        assert not (tmp_path / "r.report").exists()


# ---------------------------------------------------------------------------
# each defect raises at construction, and from a file names its layer
# ---------------------------------------------------------------------------

INDEX_DEFECTS = {
    "unsorted": [0, 5, 3],
    "duplicate": [0, 3, 3],
    "negative": [-1, 2, 5],
    "past-end": [4, 7, 12],
}


class TestMaskedLayer:
    @pytest.mark.parametrize("index", INDEX_DEFECTS.values(), ids=INDEX_DEFECTS.keys())
    def test_index_that_does_not_rise_strictly_inside_the_layer(self, index):
        with pytest.raises(ValueError, match=r"index must rise strictly inside \[0, 12\)"):
            layer_3x4(index)

    @pytest.mark.parametrize(
        "index", [np.array([0.0, 5.0, 7.0]), np.array([[0, 5, 7]])], ids=["float", "2-D"]
    )
    def test_index_that_is_not_1d_integers(self, index):
        with pytest.raises(ValueError, match="index must be a 1-D integer array"):
            nn.MaskedLayer(index, np.zeros(3), np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("index, n", [((0, 5, 7), 2), ((0, 5, 7), 4), (None, 11)], ids=["fewer", "more", "full"])
    def test_values_count(self, index, n):
        count = 12 if index is None else 3
        with pytest.raises(ValueError, match=f"{n} weights for {count} connections"):
            nn.MaskedLayer(None if index is None else np.array(index), np.zeros(n), np.zeros(3), np.zeros(4))

    def test_values_of_another_shape(self):
        with pytest.raises(ValueError, match=r"3 weights for 3 connections, in shape \(3, 1\)"):
            layer_3x4(values=np.zeros((3, 1)))

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'swish'"):
            layer_3x4(activation="swish")

    def test_a_rising_full_size_index_is_none(self):
        assert layer_3x4(np.arange(12), np.zeros(12)).index is None

    def test_an_int64_index_is_viewed_read_only_not_copied(self):
        index = np.array([0, 5, 7])
        layer = layer_3x4(index)
        assert np.shares_memory(layer.index, index)
        assert not layer.index.flags.writeable and index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            layer.index[0] = 1

    def test_a_deep_copy_keeps_its_own_index_read_only(self):
        index = np.array([0, 5, 7])
        twin = clone(TrfNetwork(layers=[layer_3x4(index)], plans=[None])).layers[0]
        assert not np.shares_memory(twin.index, index)
        assert not twin.index.flags.writeable
        np.testing.assert_array_equal(twin.index, index)

    def test_a_read_only_int64_index_is_kept_as_it_is(self):
        index = np.array([0, 5, 7])
        index.flags.writeable = False
        assert layer_3x4(index).index is index
        assert nn.init_masked_layer(index, (3, 4), np.random.default_rng(0)).index is index

    def test_another_integer_index_is_stored_as_int64(self):
        layer = layer_3x4(np.array([0, 5, 7], dtype=np.int32))
        assert layer.index.dtype == np.int64 and not layer.index.flags.writeable

    def test_fields_are_fixed_and_replace_checks_again(self):
        layer = layer_3x4()
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.activation = "relu"
        assert dataclasses.replace(layer, activation="relu").values is layer.values
        with pytest.raises(ValueError, match="rise strictly"):
            dataclasses.replace(layer, index=np.array([7, 5, 0]))

    def test_init_checks_before_it_draws(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="rise strictly"):
            nn.init_masked_layer(np.array([0, 5, 3]), (3, 4), rng)
        assert rng.bit_generator.state == state


class TestDenseLayer:
    def test_bias_length(self):
        with pytest.raises(ValueError, match="bias of 5 for 2 outputs"):
            head_2x3(np.zeros(5))

    def test_weights_not_2d(self):
        with pytest.raises(ValueError, match="weights must be 2-D"):
            nn.DenseLayer(np.zeros(6), np.zeros(6))

    def test_fields_are_fixed(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            head_2x3().bias = np.zeros(2)


REPORT_DEFECTS = [
    ("parameter_count", -3),
    ("sparsity", 1.5),
    ("sparsity", -0.25),
    ("accuracy", 1.5),
    ("accuracy", float("nan")),
    ("auc_mean", -0.5),
    ("effective_sparsity", 2.0),
    ("auc_per_task", (0.5, 1.5)),
    ("auc_per_task", (-0.5,)),
]
# auc_mean is derived from auc_per_task, so it is a defect only of a file
ARGUMENT_DEFECTS = [d for d in REPORT_DEFECTS if d[0] != "auc_mean"]


def report_line(key, value) -> str:
    text = ",".join(repr(x) for x in value) if isinstance(value, tuple) else repr(value)
    return f"{key} {text}"


class TestEvalReport:
    @pytest.mark.parametrize("key, value", ARGUMENT_DEFECTS, ids=[report_line(*d) for d in ARGUMENT_DEFECTS])
    def test_range_at_construction(self, key, value):
        with pytest.raises(ValueError, match=key):
            EvalReport(**{"parameter_count": 10, "sparsity": 0.5, key: value})

    @pytest.mark.parametrize("key, value", REPORT_DEFECTS, ids=[report_line(*d) for d in REPORT_DEFECTS])
    def test_range_in_a_file(self, tmp_path, key, value):
        (tmp_path / "r.report").write_text(report_text_with(report_line(key, value)))
        with pytest.raises(ModelFormatError, match=f"corrupted report: {key}"):
            load_report(tmp_path / "r.report")

    def test_fields_are_fixed(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EvalReport(parameter_count=10, sparsity=0.5).effective_sparsity = 0.5

    @pytest.mark.parametrize("aucs, mean", [((0.5, -1.0, 1.0), 0.75), ((-1.0,), None)], ids=["scored", "none-scored"])
    def test_auc_mean_is_the_mean_of_the_scored_tasks(self, aucs, mean):
        report = EvalReport(parameter_count=3, sparsity=0.5, auc_per_task=aucs)
        assert report.auc_mean == report.score == mean

    def test_auc_mean_is_not_an_argument(self):
        with pytest.raises(TypeError, match="auc_mean"):
            EvalReport(parameter_count=3, sparsity=0.5, auc_per_task=(-1.0,), auc_mean=0.9)

    @pytest.mark.parametrize("empty", [(), [], np.array([])], ids=["tuple", "list", "array"])
    def test_empty_auc_per_task_is_rejected(self, empty):
        # such a report would save a file that its own reader rejects
        with pytest.raises(ValueError, match="^auc_per_task must hold at least one task$"):
            EvalReport(parameter_count=3, sparsity=0.5, auc_per_task=empty)

    def test_auc_per_task_list_is_held_as_a_tuple_and_loads_back_equal(self, tmp_path):
        report = EvalReport(parameter_count=3, sparsity=0.5, auc_per_task=[0.5, -1.0])
        assert report.auc_per_task == (0.5, -1.0)
        save_report(report, tmp_path / "r.report")
        assert load_report(tmp_path / "r.report")[1] == report

    def test_auc_per_task_array_is_held_as_a_tuple_of_floats(self):
        report = EvalReport(parameter_count=3, sparsity=0.5, auc_per_task=np.array([0.25, -1.0, 1.0]))
        assert report.auc_per_task == (0.25, -1.0, 1.0)
        assert all(type(x) is float for x in report.auc_per_task)
        with pytest.raises(ValueError, match="^auc_per_task entry 1.5 is neither"):
            EvalReport(parameter_count=3, sparsity=0.5, auc_per_task=np.array([0.5, 1.5]))


# every integer field of a config or report, made with the value x
INTEGER_FIELDS = {
    "BuildConfig.depth": lambda x: BuildConfig(depth=x),
    "BuildConfig.seed": lambda x: BuildConfig(seed=x),
    "BuildConfig.radius": lambda x: BuildConfig(radius=(2, x), depth=2),
    "BuildConfig.stride": lambda x: BuildConfig(stride=(x, 2), depth=2),
    "DaeHyper.epochs": lambda x: DaeHyper(epochs=x),
    "DaeHyper.batch_size": lambda x: DaeHyper(batch_size=x),
    "DaeHyper.seed": lambda x: DaeHyper(seed=x),
    "CorruptionConfig.seed": lambda x: CorruptionConfig(seed=x),
    "FinetuneHyper.epochs": lambda x: FinetuneHyper(epochs=x),
    "FinetuneHyper.batch_size": lambda x: FinetuneHyper(batch_size=x),
    "FinetuneHyper.patience": lambda x: FinetuneHyper(patience=x),
    "FinetuneHyper.seed": lambda x: FinetuneHyper(seed=x),
    "DenseNetConfig.epochs": lambda x: DenseNetConfig(epochs=x),
    "DenseNetConfig.batch_size": lambda x: DenseNetConfig(batch_size=x),
    "DenseNetConfig.patience": lambda x: DenseNetConfig(patience=x),
    "DenseNetConfig.seed": lambda x: DenseNetConfig(seed=x),
    "DenseNetConfig.hidden_widths": lambda x: DenseNetConfig(hidden_widths=(64, x)),
    "EvalReport.parameter_count": lambda x: EvalReport(parameter_count=x, sparsity=0.5),
}


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"], ids=["float", "fraction", "bool", "str"])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_field_takes_integers_only(field, bad):
    make = INTEGER_FIELDS[field]
    # the message starts with the field, as the command line maps it to its flag
    with pytest.raises(ValueError, match=f"^{field.split('.')[1]} must be an integer, got {bad!r}$"):
        make(bad)
    make(2)
    make(np.int64(2))


class TestDefectInAFile:
    @pytest.mark.parametrize("index", INDEX_DEFECTS.values(), ids=INDEX_DEFECTS.keys())
    def test_stored_index(self, tmp_path, index):
        lines = saved_lines(tmp_path)
        set_line(lines, "index", b64(index, "<i8"))
        (tmp_path / "bad.trf").write_bytes(reseal(lines))
        with pytest.raises(ModelFormatError, match=r"layer 0: index must rise strictly inside \[0, 12\)"):
            load(tmp_path / "bad.trf")

    @pytest.mark.parametrize("n", [2, 4])
    def test_values_count(self, tmp_path, n):
        lines = saved_lines(tmp_path)
        set_line(lines, "values", b64(np.zeros(n), "<f8"))
        (tmp_path / "bad.trf").write_bytes(reseal(lines))
        with pytest.raises(ModelFormatError, match=f"layer 0: {n} weights for 3 connections"):
            load(tmp_path / "bad.trf")

    def test_unknown_activation(self, tmp_path):
        lines = [ln.replace("layer 0 3 4 sigmoid", "layer 0 3 4 swish") for ln in saved_lines(tmp_path)]
        (tmp_path / "bad.trf").write_bytes(reseal(lines))
        with pytest.raises(ModelFormatError, match="layer 0: unknown activation 'swish'"):
            load(tmp_path / "bad.trf")

    def test_head_bias_length(self, tmp_path):
        lines = saved_lines(tmp_path)
        set_line(lines, "hb", b64(np.zeros(5), "<f8"))
        (tmp_path / "bad.trf").write_bytes(reseal(lines))
        with pytest.raises(ModelFormatError, match="head: bias of 5 for 2 outputs"):
            load(tmp_path / "bad.trf")


# ---------------------------------------------------------------------------
# a network checks itself when made, and again before it is attached to,
# trained, scored or saved
# ---------------------------------------------------------------------------

# plan fields (0, 1) and (1, 2) over 3 features list positions [0, 1, 4, 5]
PLAN = ReceptiveFieldPlan(radius=1, stride=1, centers=(0, 1), fields=((0, 1), (1, 2)), global_count=0)


def planned_layer(index=(0, 1, 4, 5), bad=None):
    """A 2 x 3 layer; bad names one of its arrays and the value its last entry takes."""
    arrays = {"values": np.ones(len(index)), "bias_hidden": np.zeros(2), "bias_visible": np.zeros(3)}
    if bad is not None:
        arrays[bad[0]][-1] = bad[1]
    return nn.MaskedLayer(np.array(index), **arrays)


def two_class_head(bad=None):
    arrays = {"weights": np.ones((2, 2)), "bias": np.zeros(2)}
    if bad is not None:
        arrays[bad[0]].flat[-1] = bad[1]
    return nn.DenseLayer(**arrays)


def sound_fields() -> dict:
    return {"layers": [planned_layer()], "plans": [PLAN], "head": two_class_head(), "head_mode": "softmax"}


# each defect as the fields that carry it, and the message it raises
NETWORK_DEFECTS = {
    # a layer that is not its plan's would load rewired as the plan's
    "rewired": ({"layers": [planned_layer((0, 2, 4, 5))]}, "layer 0: connections disagree with the plan"),
    "plan-units": (
        {"plans": [ReceptiveFieldPlan(radius=1, stride=1, centers=(0,), fields=((0, 1),), global_count=0)]},
        "layer 0: plan has 1 units, layer has 2",
    ),
    "plan-range": (
        {"plans": [ReceptiveFieldPlan(radius=1, stride=1, centers=(0, 1), fields=((0, 1), (1, 3)), global_count=0)]},
        r"layer 0: plan names a feature outside \[0, 3\)",
    ),
    **{
        f"layer-{name}-{bad}": ({"layers": [planned_layer(bad=(name, bad))]}, "layer 0: non-finite weight or bias")
        for name in ("values", "bias_hidden", "bias_visible")
        for bad in (np.nan, np.inf, -np.inf)
    },
    **{
        f"head-{name}": ({"head": two_class_head(bad=(name, np.nan))}, "head: non-finite weight or bias")
        for name in ("weights", "bias")
    },
    "head-mode": ({"head_mode": "banana"}, "head: unknown head mode 'banana'"),
}


def defective(defect: str) -> TrfNetwork:
    """A sound network with the defect's fields set after it was made."""
    net = TrfNetwork(**sound_fields())
    for name, value in NETWORK_DEFECTS[defect][0].items():
        setattr(net, name, value)
    return net


def state(net: TrfNetwork):
    """The network's fields, with its arrays as bytes."""
    arrays = [a for l in net.layers for a in (l.values, l.bias_hidden, l.bias_visible)]
    arrays += [net.head.weights, net.head.bias]
    return list(net.layers), list(net.plans), net.head, net.head_mode, [a.tobytes() for a in arrays]


@pytest.mark.parametrize("defect", NETWORK_DEFECTS)
class TestNetworkRefuses:
    def test_at_construction(self, defect):
        fields, match = NETWORK_DEFECTS[defect]
        with pytest.raises(ValueError, match=match):
            TrfNetwork(**{**sound_fields(), **fields})

    def test_save_set_after_construction_writes_nothing(self, tmp_path, defect):
        with pytest.raises(ValueError, match=NETWORK_DEFECTS[defect][1]):
            save(defective(defect), tmp_path / "m.trf")
        assert not (tmp_path / "m.trf").exists()

    def test_finetune_and_evaluate_set_after_construction_raise_before_any_step(self, defect):
        net = defective(defect)
        before = state(net)
        d = Dataset(np.random.default_rng(0).random((8, 3)), labels=np.arange(8) % 2)
        with pytest.raises(ValueError, match=NETWORK_DEFECTS[defect][1]):
            finetune(net, d, None, FinetuneHyper(epochs=1, batch_size=4))
        with pytest.raises(ValueError, match=NETWORK_DEFECTS[defect][1]):
            evaluate(net, d)
        assert state(net) == before


@pytest.mark.parametrize("defect", NETWORK_DEFECTS)
def test_attach_head_refuses_a_defect_it_does_not_replace(tmp_path, defect):
    """A defect in the layers or plans raises and leaves the network as it
    was; a head or head mode that attach_head replaces is gone after it."""
    net = defective(defect)
    before = state(net)
    fields, match = NETWORK_DEFECTS[defect]
    if {"layers", "plans"} & fields.keys():
        with pytest.raises(ValueError, match=match):
            attach_head(net, 2)
        assert state(net) == before
    else:
        save(attach_head(net, 2), tmp_path / "m.trf")


def test_attach_head_refuses_an_unknown_mode():
    net = TrfNetwork(**sound_fields())
    before = state(net)
    with pytest.raises(ValueError, match="head: unknown head mode 'banana'"):
        attach_head(net, 2, mode="banana")
    assert state(net) == before


# ---------------------------------------------------------------------------
# one edit never loads as another file: every line is read in the order save
# and save_report write it, with exactly its fields, each number as its repr
# ---------------------------------------------------------------------------

EDITS = ("repeat", "swap", "append", "insert")
# edits inside one number field that int or float would still convert
FIELD_EDITS = ("underscore", "non-ascii digit", "tab", "plus", "zero")
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")


def edited(lines: list[str], edit: str, i: int) -> list[str]:
    """lines with line i repeated, swapped with the next one, followed by
    " x", or with "bogus 1" inserted before it (i == len(lines): at the end)."""
    if edit == "repeat":
        return lines[: i + 1] + lines[i:]
    if edit == "swap":
        return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :]
    if edit == "append":
        return lines[:i] + [lines[i] + " x"] + lines[i + 1 :]
    return lines[:i] + ["bogus 1"] + lines[i:]


def number_fields(line: str, floats_only: bool) -> list[tuple[int, int]]:
    """The (start, end) of each space- or comma-separated number after a line's first word."""
    found = [m.span() for m in re.finditer(r"[^ ,]+", line) if m.start() and NUMBER.fullmatch(m.group())]
    return [(a, b) for a, b in found if not floats_only or re.search("[.e]", line[a:b])]


def field_edited(line: str, edit: str, start: int, end: int) -> str:
    """line with the number at [start, end) given a "_" before its last digit, that digit
    written in Arabic-Indic, a tab after it, a "+" before it or a "0" after it (a float)."""
    last = end - 1
    if edit == "underscore":
        return line[:last] + "_" + line[last:]
    if edit == "non-ascii digit":
        return line[:last] + chr(0x660 + int(line[last])) + line[end:]
    if edit == "plus":
        return line[:start] + "+" + line[start:]
    return line[:end] + ("\t" if edit == "tab" else "0") + line[end:]


@pytest.fixture(scope="module")
def edit_files(tmp_path_factory) -> dict[str, list[str]]:
    """Per file kind, the lines an edit applies to: a report with every key, the v1 fixture and a v2 body."""
    d = tmp_path_factory.mktemp("edits")
    every_key = EvalReport(
        parameter_count=40, sparsity=0.5, accuracy=0.875, auc_per_task=(0.75, -1.0, 1.0),
        effective_sparsity=0.25,
    )
    save_report(every_key, d / "r.report", name="every key")
    save(v1_fixture_network(), d / "m.trf")
    return {
        "report": (d / "r.report").read_text().splitlines(),
        "v1": V1_FIXTURE.read_text().splitlines(),
        "v2": (d / "m.trf").read_text().splitlines()[:-1],  # the checksum line is made again after the edit
    }


@pytest.mark.parametrize("kind", ["report", "v1", "v2"])
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_one_edit_never_loads(tmp_path_factory, edit_files, kind, data):
    """Each line is read in the order save and save_report write it, with
    exactly its fields, each number as its repr, so every edit raises
    ModelFormatError: none loads, not even as the same file, and an edit
    inside a number field names its line.  A name is free text, so " x" is
    appended to every other line only, and its numbers are not edited."""
    lines = edit_files[kind]
    edit = data.draw(st.sampled_from(EDITS + FIELD_EDITS))
    if edit in FIELD_EDITS:
        spans = [
            (i, span)
            for i, ln in enumerate(lines)
            if not ln.startswith("name ")
            for span in number_fields(ln, floats_only=edit == "zero")
        ]
        i, (start, end) = data.draw(st.sampled_from(spans))
        lines = lines[:i] + [field_edited(lines[i], edit, start, end)] + lines[i + 1 :]
    else:
        last = {"repeat": len(lines) - 1, "swap": len(lines) - 2, "append": len(lines) - 1, "insert": len(lines)}[edit]
        i = data.draw(st.integers(0, last).filter(lambda i: not (edit == "append" and lines[i].startswith("name "))))
        lines = edited(lines, edit, i)
    path = tmp_path_factory.mktemp("edited") / "in"
    path.write_bytes(reseal(lines) if kind == "v2" else ("\n".join(lines) + "\n").encode())
    with pytest.raises(ModelFormatError, match=rf"line {i + 1}: " if edit in FIELD_EDITS else None):
        load_report(path) if kind == "report" else load(path)
