import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from survcontrast import autodiff as ad
from survcontrast import model as model_module
from survcontrast.autodiff import Tensor
from survcontrast.data import DataError
from survcontrast.model import (
    ACTIVATIONS,
    Mlp,
    MlpConfig,
    ModelConfig,
    HazardModel,
    init_model,
    pmf_from_hazard,
    risk_from_hazard,
    survival_from_hazard,
)
from test_autodiff import linear_composite


def small_config(**kw):
    base = dict(input_dim=6, n_time_bins=11, hidden_dim=8, depth=2, embedding_dim=4)
    base.update(kw)
    return ModelConfig(**base)


def mlp_composite(net, x, act=None):
    """``net``'s forward pass as the per-layer graph (the pre-fusion code):
    ``add(matmul(h, w), b)`` for each layer and an activation node between
    layers, ``act`` or the network's op from ``ACTIVATIONS``."""
    act = act or ACTIVATIONS[net.config.activation]
    h = x
    for i, (w, b) in enumerate(net.layers):
        h = linear_composite(h, w, b)
        if i != len(net.layers) - 1:
            h = act(h)
    return h


def test_encode_zeroed_final_layer_gives_bias():
    model = init_model(small_config(), seed=0)
    w, b = model.encoder.layers[-1]
    w.values[...] = 0.0
    b.values[...] = np.arange(w.cols)
    h = model.encode(Tensor(np.random.default_rng(0).uniform(size=(3, 6))))
    np.testing.assert_array_equal(h.values, np.tile(np.arange(w.cols), (3, 1)))


def test_identical_rows_identical_latents_and_embeddings():
    model = init_model(small_config(), seed=1)
    x = np.tile(np.random.default_rng(1).uniform(size=(1, 6)), (4, 1))
    h = model.encode(Tensor(x))
    z = model.project(h)
    for mat in (h.values, z.values):
        assert np.all(mat == mat[0])


def test_forward_finite_on_random_inputs():
    model = init_model(small_config(), seed=2)
    x = np.random.default_rng(2).normal(scale=0.1, size=(200, 6))
    lam = model.hazard_curve(x)
    emb = model.embed(x)
    assert np.all(np.isfinite(lam)) and np.all(np.isfinite(emb))


def test_embedding_norms_positive():
    model = init_model(small_config(hidden_dim=32), seed=3)
    x = np.random.default_rng(3).uniform(size=(10_000, 6))
    z = model.embed(x)
    assert np.linalg.norm(z, axis=1).min() > 0


def test_embedding_dim_respected():
    model = init_model(small_config(embedding_dim=2), seed=4)
    assert model.embed(np.zeros((3, 6))).shape == (3, 2)


def test_encode_dimension_mismatch():
    model = init_model(small_config(), seed=0)
    with pytest.raises(ad.ShapeError):
        model.encode(Tensor(np.zeros((2, 5))))


def test_hazard_zero_logits_half():
    model = init_model(small_config(), seed=5)
    for w, b in model.hazard_net.layers:
        w.values[...] = 0.0
        b.values[...] = 0.0
    lam = model.hazard_curve(np.random.default_rng(5).uniform(size=(3, 6)))
    np.testing.assert_array_equal(lam, np.full((3, 11), 0.5))


def test_hazard_saturation_clamped():
    model = init_model(small_config(depth=1), seed=6)
    w, b = model.hazard_net.layers[-1]
    w.values[...] = 0.0
    b.values[...] = 1e4
    lam = model.hazard_curve(np.zeros((1, 6)))
    np.testing.assert_array_equal(lam, np.full((1, 11), 1.0 - 1e-7))


def test_hazard_output_length():
    model = init_model(small_config(n_time_bins=21), seed=7)
    assert model.hazard_curve(np.zeros((2, 6))).shape == (2, 21)


def test_survival_no_risk():
    lam = np.zeros((1, 5))
    np.testing.assert_array_equal(survival_from_hazard(lam), np.ones((1, 5)))
    np.testing.assert_array_equal(risk_from_hazard(lam), np.zeros((1, 5)))


def test_survival_constant_half():
    lam = np.full((1, 5), 0.5)
    surv = survival_from_hazard(lam)
    assert surv[0, 2] == pytest.approx(0.125)
    assert risk_from_hazard(lam)[0, 2] == pytest.approx(0.875)


def test_survival_monotone_random():
    lam = np.random.default_rng(8).uniform(size=(50, 30))
    surv = survival_from_hazard(lam)
    assert np.all(np.diff(surv, axis=1) <= 0)
    assert np.all(np.diff(risk_from_hazard(lam), axis=1) >= 0)
    assert np.all((surv > 0) & (surv < 1))


def test_survival_matches_loop_oracle():
    rng = np.random.default_rng(9)
    lam = rng.uniform(size=(20, 12))
    surv = survival_from_hazard(lam)
    for i in range(lam.shape[0]):
        acc = 1.0
        for t in range(lam.shape[1]):
            acc *= 1.0 - lam[i, t]
            assert abs(surv[i, t] - acc) < 1e-12


def test_pmf_cases():
    lam = np.full((1, 5), 0.5)
    assert pmf_from_hazard(lam)[0, 0] == pytest.approx(0.5)
    assert pmf_from_hazard(lam)[0, 2] == pytest.approx(0.125)


def test_pmf_survival_normalization_identity():
    rng = np.random.default_rng(10)
    lam = rng.uniform(size=(200, 25))
    total = pmf_from_hazard(lam).sum(axis=1) + survival_from_hazard(lam)[:, -1]
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 60)),
              elements=st.floats(-60, 60) | st.sampled_from([40.0, -40.0, 0.0, -0.0])))
def test_pmf_survival_normalization_on_sigmoid_hazards(logits):
    # the logits +-40 and beyond land on the sigmoid's clamp extremes
    lam = ad.sigmoid(Tensor(logits)).values
    total = pmf_from_hazard(lam).sum(axis=1) + survival_from_hazard(lam)[:, -1]
    assert np.abs(total - 1.0).max() <= 1e-12


def test_risk_survival_complement_exact():
    lam = np.random.default_rng(11).uniform(size=(10, 8))
    np.testing.assert_array_equal(risk_from_hazard(lam) + survival_from_hazard(lam), np.ones((10, 8)))


def test_init_deterministic():
    a = init_model(small_config(), seed=42)
    b = init_model(small_config(), seed=42)
    for pa, pb in zip(a.all_params(), b.all_params()):
        np.testing.assert_array_equal(pa.values, pb.values)


def test_init_he_scaling():
    config = ModelConfig(input_dim=64, n_time_bins=11, hidden_dim=64, depth=3, embedding_dim=8)
    model = init_model(config, seed=0)
    for w, b in model.encoder.layers:
        assert np.all(b.values == 0.0)
        if w.values.size >= 256:
            expected = np.sqrt(2.0 / w.rows)
            assert abs(w.values.std() - expected) / expected < 0.10


def test_parameters_are_views_of_one_flat_buffer():
    model = init_model(small_config(), seed=12)
    flat, grads = model.params.values[0], model.params.grad[0]
    start = 0
    for p in model.projection.parameters() + model.encoder.parameters() + model.hazard_net.parameters():
        stop = start + p.values.size
        assert np.shares_memory(p.values, flat[start:stop]) and np.shares_memory(p.grad, grads[start:stop])
        start = stop
    assert start == flat.size
    # each optimizer's networks are one contiguous slice: projection | encoder | hazard
    n_proj = sum(p.values.size for p in model.projection.parameters())
    n_haz = sum(p.values.size for p in model.hazard_net.parameters())
    for head, cols in (("projection", slice(0, flat.size - n_haz)), ("hazard", slice(n_proj, flat.size))):
        part = model.trainable(head)
        assert np.shares_memory(part.values, flat[cols]) and part.values.size == flat[cols].size
        assert np.shares_memory(part.grad, grads[cols]) and part.grad.size == grads[cols].size
    # the buffer holds He draws from three streams spawned from the seed, taken in encoder,
    # projection, hazard order layer by layer (fan-in scaling), and zero biases
    layers = {"encoder": [(6, 8), (8, 8)], "projection": [(8, 8), (8, 4)], "hazard": [(8, 8), (8, 11)]}
    streams = (np.random.default_rng(s) for s in np.random.SeedSequence(12).spawn(3))
    draws = {net: [np.concatenate([rng.normal(0.0, np.sqrt(2.0 / i), size=(i, o)).ravel(), np.zeros(o)])
                   for i, o in layers[net]]
             for net, rng in zip(layers, streams)}
    want = np.concatenate([part for net in ("projection", "encoder", "hazard") for part in draws[net]])
    np.testing.assert_array_equal(flat.view(np.uint64), want.view(np.uint64))


def test_snapshot_restore_roundtrip():
    model = init_model(small_config(), seed=15)
    saved = model.snapshot()
    model.encoder.layers[0][0].values += 1.0
    assert not np.array_equal(model.snapshot(), saved)
    model.restore(saved)
    np.testing.assert_array_equal(model.snapshot(), saved)
    np.testing.assert_array_equal(model.snapshot(), init_model(small_config(), seed=15).snapshot())


def test_depth_equals_weight_matrix_count():
    model = init_model(small_config(depth=3), seed=0)
    assert len(model.encoder.layers) == 3
    assert len(model.hazard_net.layers) == 3
    assert len(model.projection.layers) == 2


@st.composite
def mlp_cases(draw):
    activation = draw(st.sampled_from(["relu", "sigmoid"]))
    depth = draw(st.integers(1, 4))
    rows, input_dim, hidden_dim, output_dim = (draw(st.integers(1, 6)) for _ in range(4))
    config = MlpConfig(input_dim, hidden_dim, depth, output_dim, activation)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # weights of scale 1e3 push hidden sigmoids onto their clamp
    values = rng.normal(size=(1, config.n_params())) * draw(st.sampled_from([1.0, 1e3]))
    net = Mlp(config, values, np.zeros_like(values))
    x = rng.uniform(-3, 3, size=(rows, input_dim))
    if draw(st.booleans()):
        # a zero weight column and bias put a unit exactly on the ReLU kink for every row
        w, b = net.layers[draw(st.integers(0, depth - 1))]
        col = draw(st.integers(0, w.cols - 1))
        w.values[:, col] = 0.0
        b.values[0, col] = 0.0
    if draw(st.booleans()):
        x[0] = 0.0  # a zero input row: layer 0's pre-activation is exactly its bias
    return net, x, rng.normal(size=(rows, output_dim)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(mlp_cases())
def test_mlp_node_matches_per_layer_composite(case):
    net, x, coeffs, track_x = case
    results = []
    for forward in (net, lambda leaf: mlp_composite(net, leaf)):
        leaf = Tensor(x, requires_grad=track_x)
        ad.zero_grads(net.parameters())
        out = forward(leaf)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(coeffs))))
        results.append([out.values, net.flat.grad.copy()] + ([leaf.grad] if track_x else []))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_mlp_is_one_node_and_checks_shapes():
    net = init_model(small_config(depth=3), seed=0).encoder
    x = Tensor(np.ones((2, 6)), requires_grad=True)
    assert len(ad.backward(ad.reduce_sum(net(x)))) == 4  # the input, the network's leaf, the network, the sum
    # the input, 6 leaves, 3 x (matmul, add), 2 relus and the sum
    assert len(ad.backward(ad.reduce_sum(mlp_composite(net, x)))) == 16
    with pytest.raises(ad.ShapeError, match="expected 6 input columns, got 5"):
        net(Tensor(np.ones((2, 5))))


def test_network_node_does_not_hold_an_untracked_input():
    model = init_model(small_config(), seed=0)
    h = model.encode(Tensor(np.ones((3, 6))))
    assert h._parents == (None, model.encoder.flat)
    ad.backward(ad.reduce_sum(h))
    assert np.any(model.encoder.flat.grad != 0.0)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = init_model(small_config(), seed=13)
    # perturb away from init so the roundtrip is non-trivial
    rng = np.random.default_rng(14)
    for p in model.all_params():
        p.values += rng.normal(size=p.values.shape)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = HazardModel.load(path)
    assert loaded.config == model.config
    for pa, pb in zip(model.all_params(), loaded.all_params()):
        np.testing.assert_array_equal(pa.values, pb.values)


def test_checkpoint_bytes_equal_json_dump(tmp_path):
    model = init_model(small_config(), seed=16)
    model.params.values[0, :4] = [-0.0, 5e-324, 1e300, 1.0 / 3.0]
    path = tmp_path / "model.json"
    model.save(path)
    written = path.read_bytes()
    # repr round-trips every float, so the parsed payload is the one save() built
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump(json.loads(written), fh, sort_keys=True)
    assert written == (tmp_path / "dumped.json").read_bytes()


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.json"
    init_model(small_config(), seed=13).save(path)
    return path, json.loads(path.read_text())


def test_load_rejects_a_short_checkpoint(tmp_path):
    path, payload = _saved_checkpoint(tmp_path)
    payload["params"].pop()
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="is malformed: params holds 406 values, its config lays out 407"):
        HazardModel.load(path)


def test_load_rejects_a_wrong_shaped_layer(tmp_path):
    path, payload = _saved_checkpoint(tmp_path)
    model = init_model(small_config(), seed=13)
    # the encoder's layer 1 w stored as 8 x 5 where the config asks for 8 x 8
    start = model.projection.flat.cols + sum(p.values.size for p in model.encoder.layers[0])
    payload["params"][start : start + 64] = [0.0] * 40
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="is malformed: params holds 383 values, its config lays out 407"):
        HazardModel.load(path)


@pytest.mark.parametrize(
    "params",
    [[[0.5]], [None], [True], [0.5, [0.5]], 0.5],
    ids=["nested-list", "null", "bool", "ragged", "scalar"],
)
def test_load_rejects_params_that_are_not_a_flat_list_of_numbers(tmp_path, params):
    path, payload = _saved_checkpoint(tmp_path)
    payload["params"] = params
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"checkpoint {path} is malformed: ValueError: "):
        HazardModel.load(path)


@pytest.mark.parametrize("seed", [None, True, -1, "x", 1.5], ids=["null", "bool", "negative", "string", "float"])
def test_load_rejects_a_seed_that_is_not_a_non_negative_int(tmp_path, seed):
    # null and true used to load, null seeding a throwaway init from OS entropy
    path, payload = _saved_checkpoint(tmp_path)
    payload["seed"] = seed
    path.write_text(json.dumps(payload))
    message = f"checkpoint {path} is malformed: ValueError: seed must be a non-negative int, not {seed!r}"
    with pytest.raises(DataError, match=re.escape(message) + "$"):
        HazardModel.load(path)


def test_load_draws_nothing(tmp_path, monkeypatch):
    path, _ = _saved_checkpoint(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("load drew random numbers")

    monkeypatch.setattr(model_module, "init_model", refuse)
    monkeypatch.setattr(model_module.np.random, "default_rng", refuse)
    monkeypatch.setattr(model_module.np.random, "SeedSequence", refuse)
    loaded = HazardModel.load(path)
    assert loaded.seed == 13
    np.testing.assert_array_equal(loaded.params.values[0], json.loads(path.read_text())["params"])


def test_load_names_a_checkpoint_config_field_out_of_range(tmp_path):
    # used to name the hazard network's "output_dim"
    path, payload = _saved_checkpoint(tmp_path)
    payload["config"]["n_time_bins"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"checkpoint {path} is malformed: ValueError: n_time_bins must be >= 1$"):
        HazardModel.load(path)


@st.composite
def checkpoint_models(draw):
    dims, depths = st.integers(1, 6), st.integers(1, 3)
    config = ModelConfig(input_dim=draw(dims), n_time_bins=draw(dims), hidden_dim=draw(dims), depth=draw(depths),
                         embedding_dim=draw(dims), projection_depth=draw(depths),
                         activation=draw(st.sampled_from(["relu", "sigmoid"])))
    model = init_model(config, seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=model.params.cols)
    # the smallest buffer (every dim and depth 1) holds 6 values
    values[rng.permutation(values.size)[:4]] = [-0.0, 5e-324, 1e300, 1.0 / 3.0]
    model.params.values[0] = values
    return model


@settings(max_examples=100, deadline=None)
@given(checkpoint_models())
def test_checkpoint_roundtrip_is_bitwise_and_resaves_the_same_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        model.save(first)
        loaded = HazardModel.load(first)
        loaded.save(second)
        assert (loaded.config, loaded.seed) == (model.config, model.seed)
        np.testing.assert_array_equal(loaded.params.values.view(np.uint64), model.params.values.view(np.uint64))
        assert second.read_bytes() == first.read_bytes()
