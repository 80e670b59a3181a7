"""Layers, heads and reports check themselves when they are made, and what
save writes, load reads back.

Each rule lives in its type: nn.MaskedLayer, nn.DenseLayer and
builder.EvalReport raise ValueError for a defect at construction, and the
readers turn that error into ModelFormatError naming the layer or the head.
save refuses, before it opens the file, what load would reject or read back
as another network.
"""

import base64
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_builder import reseal
from trfnet import nn
from trfnet.builder import EvalReport, TrfNetwork, clone, load, load_report, save, save_report
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
        auc_mean=draw(optional(UNIT)),
        effective_sparsity=draw(optional(UNIT)),
    )


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
    @given(report=reports(), name=st.sampled_from(["model", "dense", "l1"]))
    def test_load_report_of_save_report_gives_the_same_bytes(self, tmp_path_factory, report, name):
        d = tmp_path_factory.mktemp("report")
        save_report(report, d / "a.report", name=name)
        got_name, back = load_report(d / "a.report")
        save_report(back, d / "b.report", name=got_name)
        assert (d / "b.report").read_bytes() == (d / "a.report").read_bytes()
        assert dataclasses.replace(back, wall_clock={}) == dataclasses.replace(report, wall_clock={})


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


def report_line(key, value) -> str:
    text = ",".join(repr(x) for x in value) if isinstance(value, tuple) else repr(value)
    return f"{key} {text}"


class TestEvalReport:
    @pytest.mark.parametrize("key, value", REPORT_DEFECTS, ids=[report_line(*d) for d in REPORT_DEFECTS])
    def test_range_at_construction(self, key, value):
        with pytest.raises(ValueError, match=key):
            EvalReport(**{"parameter_count": 10, "sparsity": 0.5, key: value})

    @pytest.mark.parametrize("key, value", REPORT_DEFECTS, ids=[report_line(*d) for d in REPORT_DEFECTS])
    def test_range_in_a_file(self, tmp_path, key, value):
        save_report(EvalReport(parameter_count=10, sparsity=0.5), tmp_path / "r.report")
        kept = [ln for ln in (tmp_path / "r.report").read_text().splitlines() if not ln.startswith(key + " ")]
        (tmp_path / "r.report").write_text("\n".join(kept + [report_line(key, value)]) + "\n")
        with pytest.raises(ModelFormatError, match=key):
            load_report(tmp_path / "r.report")

    def test_fields_are_fixed(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EvalReport(parameter_count=10, sparsity=0.5).effective_sparsity = 0.5


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
# save refuses what load would reject or misread, and writes nothing
# ---------------------------------------------------------------------------


class TestSaveRefuses:
    def refuses(self, tmp_path, net, match):
        with pytest.raises(ValueError, match=match):
            save(net, tmp_path / "m.trf")
        assert not (tmp_path / "m.trf").exists()

    def test_a_layer_whose_index_is_not_its_plans(self, tmp_path):
        """Plan fields (0, 1) and (1, 2) over 3 features list [0, 1, 4, 5];
        a layer at [0, 2, 4, 5] would load rewired as the plan's."""
        plan = ReceptiveFieldPlan(radius=1, stride=1, centers=(0, 1), fields=((0, 1), (1, 2)), global_count=0)
        layer = nn.MaskedLayer(np.array([0, 2, 4, 5]), np.ones(4), np.zeros(2), np.zeros(3))
        net = TrfNetwork(layers=[layer], plans=[plan])
        self.refuses(tmp_path, net, "layer 0: connections disagree with the plan")
        net.layers[0] = dataclasses.replace(layer, index=plan.index(3))
        save(net, tmp_path / "m.trf")
        np.testing.assert_array_equal(load(tmp_path / "m.trf").layers[0].index, [0, 1, 4, 5])

    def test_a_plan_that_does_not_fit_its_layer(self, tmp_path):
        plan = ReceptiveFieldPlan(radius=1, stride=1, centers=(0,), fields=((0, 1),), global_count=0)
        layer = nn.MaskedLayer(np.array([0, 1]), np.ones(2), np.zeros(2), np.zeros(3))
        self.refuses(tmp_path, TrfNetwork(layers=[layer], plans=[plan]), "layer 0: plan has 1 units, layer has 2")

    @pytest.mark.parametrize("name", ["values", "bias_hidden", "bias_visible"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_layer_array(self, tmp_path, name, bad):
        layer = layer_3x4()
        getattr(layer, name)[-1] = bad
        self.refuses(tmp_path, TrfNetwork(layers=[layer], plans=[None]), "layer 0: non-finite weight or bias")

    @pytest.mark.parametrize("name", ["weights", "bias"])
    def test_a_non_finite_head_array(self, tmp_path, name):
        head = head_2x3()
        getattr(head, name).flat[-1] = np.nan
        net = TrfNetwork(layers=[layer_3x4()], plans=[None], head=head)
        self.refuses(tmp_path, net, "head: non-finite weight or bias")
