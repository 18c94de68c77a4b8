import numpy as np
import pytest

from survcontrast import losses
from survcontrast import trainer as tr
from survcontrast.autodiff import Tensor
from survcontrast.data import Batch, prepare
from survcontrast.model import ModelConfig, init_model
from survcontrast.synth import SynthConfig, generate_paired_exponential


def make_data(n=300, seed=0, n_bins=15):
    synth = generate_paired_exponential(SynthConfig(n_samples=n, seed=seed))
    return prepare(synth.to_raw(), seed=seed, n_bins=n_bins)


def make_model(data, seed=0, **kw):
    base = dict(hidden_dim=12, depth=2, embedding_dim=6)
    base.update(kw)
    config = ModelConfig(input_dim=data.n_features, n_time_bins=data.n_time_bins, **base)
    return init_model(config, seed=seed)


def quick_config(**kw):
    base = dict(epochs=3, batch_size=32, lr_contrastive=1e-3, lr_nll=1e-3, beta=1.0,
                sigma=0.75, nu=0.5, corruption_rate=0.3, patience=10, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params():
    p = Tensor([[1.0, -2.0]], requires_grad=True)
    opt = tr.Adam(p, lr=0.1)
    p.grad[...] = 0.0
    before = p.values.copy()
    opt.step()
    np.testing.assert_array_equal(p.values, before)


def test_adam_constant_gradient_limit_is_signed_lr():
    p = Tensor([[0.0, 0.0]], requires_grad=True)
    opt = tr.Adam(p, lr=0.01)
    g = np.array([[3.0, -0.002]])
    for _ in range(400):
        p.grad[...] = g
        prev = p.values.copy()
        opt.step()
    step = p.values - prev
    np.testing.assert_allclose(step, -0.01 * np.sign(g), rtol=1e-3)


def test_adam_first_step_magnitude_is_lr():
    # first step is lr * g / (|g| + eps), within eps/|g| of lr itself
    for scale in (1e-4, 1.0, 1e6):
        p = Tensor([[0.0]], requires_grad=True)
        opt = tr.Adam(p, lr=0.05)
        p.grad[...] = scale
        opt.step()
        assert abs(abs(p.values[0, 0]) - 0.05) < 0.05 * 2e-4


def test_sgd_step():
    p = Tensor([[1.0]], requires_grad=True)
    opt = tr.Sgd(p, lr=0.1)
    p.grad[...] = 2.0
    opt.step()
    assert p.values[0, 0] == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        {"lr_nll": 0.0},
        {"lr_contrastive": -1.0},
        {"patience": 0},
        {"beta": -0.5},
        {"sigma": 0.0},
        {"nu": 0.0},
        {"corruption_rate": 1.5},
        {"optimizer": "rmsprop"},
        {"batch_size": 1},
        {"alpha": -1.0},  # used to train silently as alpha = 0
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        quick_config(**kw)


def test_unknown_variant_rejected():
    data = make_data(n=80)
    model = make_model(data)
    with pytest.raises(ValueError, match="unknown variant"):
        tr.train(data, model, quick_config(epochs=1), "nll+magic")


# ---------------------------------------------------------------------------
# phase isolation
# ---------------------------------------------------------------------------

def one_batch(data, m=24):
    idx = data.split.train[:m]
    x = data.x[idx]
    rng = np.random.default_rng(0)
    return Batch(indices=idx, x=x, x_view=x + rng.normal(scale=0.05, size=x.shape),
                 tau=data.tau[idx], delta=data.delta[idx])


def test_contrastive_step_never_touches_hazard_net():
    data = make_data(n=100)
    model = make_model(data)
    config = quick_config()
    opt = tr.Adam(model.trainable("projection"), lr=1e-3)
    hazard_before = [p.values.copy() for p in model.hazard_net.parameters()]
    proj_before = [p.values.copy() for p in model.projection.parameters()]
    tr.contrastive_step(model, one_batch(data), config, "nll+snce", alpha=0.0)
    opt.step()
    for p, before in zip(model.hazard_net.parameters(), hazard_before):
        np.testing.assert_array_equal(p.values, before)
    assert any(not np.array_equal(p.values, b) for p, b in zip(model.projection.parameters(), proj_before))


def test_likelihood_step_never_touches_projection():
    data = make_data(n=100)
    model = make_model(data)
    opt = tr.Adam(model.trainable("hazard"), lr=1e-3)
    proj_before = [p.values.copy() for p in model.projection.parameters()]
    hazard_before = [p.values.copy() for p in model.hazard_net.parameters()]
    tr.likelihood_step(model, one_batch(data))
    opt.step()
    for p, before in zip(model.projection.parameters(), proj_before):
        np.testing.assert_array_equal(p.values, before)
    assert any(not np.array_equal(p.values, b) for p, b in zip(model.hazard_net.parameters(), hazard_before))


def test_ranking_step_never_touches_projection():
    data = make_data(n=100)
    model = make_model(data)
    opt = tr.Adam(model.trainable("hazard"), lr=1e-3)
    proj_before = [p.values.copy() for p in model.projection.parameters()]
    tr.ranking_step(model, one_batch(data), quick_config(), "nll+rank", alpha=0.0)
    opt.step()
    for p, before in zip(model.projection.parameters(), proj_before):
        np.testing.assert_array_equal(p.values, before)


def test_contrastive_step_tape_has_the_fused_loss(monkeypatch):
    data = make_data(n=100)
    model = make_model(data, hidden_dim=32, depth=3, embedding_dim=16)
    opt = tr.Adam(model.trainable("projection"), lr=1e-3)
    tapes = []
    backward = tr.ad.backward
    monkeypatch.setattr(tr.ad, "backward", lambda root: tapes.append(backward(root)) or tapes[-1])
    tr.contrastive_step(model, one_batch(data), quick_config(), "nll+snce", alpha=0.0)
    opt.step()
    # leaves included: 40 nodes with the loss as 16 autodiff ops and each layer
    # as matmul + add, 20 with the loss and each layer one node; 6 with each
    # network one node: two network leaves, two networks, the loss and its scale
    assert len(tapes) == 1 and len(tapes[0]) == 6


def test_likelihood_step_tape_has_the_fused_ops(monkeypatch):
    data = make_data(n=100)
    model = make_model(data, hidden_dim=32, depth=3, embedding_dim=16)
    opt = tr.Adam(model.trainable("hazard"), lr=1e-3)
    tapes = []
    backward = tr.ad.backward
    monkeypatch.setattr(tr.ad, "backward", lambda root: tapes.append(backward(root)) or tapes[-1])
    tr.likelihood_step(model, one_batch(data))
    opt.step()
    # 45 nodes with the loss as 16 autodiff ops and each layer as matmul + add;
    # 24 with 12 leaves, 6 layers, 4 relus, the sigmoid and the loss; 6 with
    # each network one node: two network leaves, two networks, the sigmoid and the loss
    assert len(tapes) == 1 and len(tapes[0]) == 6


def test_ranking_step_tape_has_the_fused_ops(monkeypatch):
    data = make_data(n=100)
    model = make_model(data, hidden_dim=32, depth=3, embedding_dim=16)
    opt = tr.Adam(model.trainable("hazard"), lr=1e-3)
    tapes = []
    backward = tr.ad.backward
    monkeypatch.setattr(tr.ad, "backward", lambda root: tapes.append(backward(root)) or tapes[-1])
    tr.ranking_step(model, one_batch(data), quick_config(), "nll+rank", alpha=0.0)
    opt.step()
    # 38 nodes with the loss as 15 autodiff ops and each layer one node; 7 with
    # the loss and each network one node: the likelihood step's 6 and the scale
    assert len(tapes) == 1 and len(tapes[0]) == 7


def test_flat_slice_step_equals_per_tensor_adam():
    # the pre-flattening update, one tensor at a time, as the oracle
    data = make_data(n=100)
    model, oracle = make_model(data, seed=4), make_model(data, seed=4)
    opt = tr.Adam(model.trainable("hazard"), lr=1e-2)
    leaves = oracle.encoder.parameters() + oracle.hazard_net.parameters()
    moments = [(np.zeros_like(p.values), np.zeros_like(p.values)) for p in leaves]
    rng = np.random.default_rng(4)
    for t in range(1, 6):
        for p, q in zip(model.all_params(), oracle.all_params()):
            p.grad[...] = q.grad[...] = rng.normal(size=p.shape)
        opt.step()
        for p, (m, v) in zip(leaves, moments):
            m *= 0.9
            m += (1.0 - 0.9) * p.grad
            v *= 0.999
            v += (1.0 - 0.999) * p.grad * p.grad
            p.values -= 1e-2 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    assert model.snapshot().tobytes() == oracle.snapshot().tobytes()
    assert not np.array_equal(model.snapshot(), make_model(data, seed=4).snapshot())


# ---------------------------------------------------------------------------
# the auxiliary loss
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["nll+nce", "nll+snce", "nll+rank"])
def test_aux_loss_builds_the_variants_loss(variant):
    data = make_data(n=200)
    model = make_model(data)
    config = quick_config(sigma=2.0)
    x, tau, delta = data.subset(data.split.validation)
    views = x + np.random.default_rng(1).normal(scale=0.05, size=x.shape)
    batch = Batch(indices=data.split.validation, x=x, x_view=views, tau=tau, delta=delta)
    alpha = 3.0
    pw = losses.build_pair_weights(tau, delta, config.sigma, alpha)
    # the margin matters on these outcomes, so a dropped alpha would show
    assert not np.array_equal(pw.weights, losses.build_pair_weights(tau, delta, config.sigma, 0.0).weights)

    got = tr.aux_loss(model, batch, variant, config, alpha).item()
    emb = model.project(model.encode(Tensor(np.vstack([x, views]))))
    if variant == "nll+nce":
        want = losses.infonce_loss(emb, config.nu)
    elif variant == "nll+snce":
        want = losses.snce_loss(emb, pw, config.nu)
    else:
        want = losses.ranking_loss(model.hazard(model.encode(Tensor(x))), tau, delta, config.ranking_kappa)
    assert got == want.item()


# the paper's pairing of each auxiliary objective with the network it trains
PAPER_NETWORKS = {"nll": None, "nll+nce": "projection", "nll+rank": "hazard", "nll+snce": "projection"}


@pytest.mark.parametrize("variant", tr.VARIANTS)
def test_one_epoch_trains_the_projection_exactly_when_the_table_names_it(monkeypatch, variant):
    network = tr.AUX_NETWORK[variant]
    assert network == PAPER_NETWORKS[variant]
    data = make_data(n=100)
    model = make_model(data)
    params = {"projection": model.projection.parameters, "hazard": model.hazard_net.parameters}
    moved = []  # the networks each auxiliary step's optimizer update changed
    pending = []  # an auxiliary gradient whose update is next

    def spy_gradient(step):
        def traced(*args):
            pending.append(step)
            return step(*args)
        return traced

    adam_step = tr.Adam.step

    def spy_update(opt):
        if not pending:
            return adam_step(opt)
        pending.clear()
        before = {name: [p.values.copy() for p in get()] for name, get in params.items()}
        adam_step(opt)
        moved.append({name for name, get in params.items()
                      if any(not np.array_equal(p.values, b) for p, b in zip(get(), before[name]))})

    for name in ("contrastive_step", "ranking_step"):
        monkeypatch.setattr(tr, name, spy_gradient(getattr(tr, name)))
    monkeypatch.setattr(tr.Adam, "step", spy_update)
    projection = [p.values.copy() for p in model.projection.parameters()]
    tr.train(data, model, quick_config(epochs=1), variant)
    changed = any(not np.array_equal(p.values, b) for p, b in zip(model.projection.parameters(), projection))
    assert changed == (network == "projection")
    if network is None:
        assert moved == []
    else:  # every auxiliary step moved the table's network and only that one
        assert moved and all(m == {network} for m in moved)


@pytest.mark.parametrize("variant,builder", [("nll+snce", "build_pair_weights"), ("nll+nce", "uniform_pair_weights")])
def test_validation_pair_weights_built_once(monkeypatch, variant, builder):
    data = make_data(n=200)
    calls = []
    original = getattr(losses, builder)
    monkeypatch.setattr(losses, builder, lambda *a, **k: calls.append(a) or original(*a, **k))
    config = quick_config(epochs=3)
    _, log = tr.train(data, make_model(data), config, variant)
    n_train = len(data.split.train)
    n_steps = len(log.epochs) * (len(range(0, n_train, config.batch_size)) - (n_train % config.batch_size == 1))
    assert len(calls) == n_steps + 1  # one per training step, one for validation


@pytest.mark.parametrize("variant,corruptions", [("nll", 0), ("nll+rank", 0), ("nll+nce", 1), ("nll+snce", 1)])
def test_only_the_contrastive_variants_corrupt_views(monkeypatch, variant, corruptions):
    data = make_data(n=200)
    calls = []
    original = tr.corrupt

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tr, "corrupt", counted)
    monkeypatch.setattr("survcontrast.data.corrupt", counted)
    config = quick_config(epochs=2)
    _, log = tr.train(data, make_model(data), config, variant)
    n_train = len(data.split.train)
    n_steps = len(log.epochs) * (len(range(0, n_train, config.batch_size)) - (n_train % config.batch_size == 1))
    assert len(calls) == corruptions * (n_steps + 1)  # one per training batch, one for validation


def test_a_fault_in_an_optimizer_update_is_named_optimizer_state(monkeypatch):
    # a stand-in optimizer that overflows: the guard, not the optimizer's class, names the stage
    class Overflowing:
        def step(self):
            np.multiply(np.float64(1e308), 10.0)

    monkeypatch.setattr(tr, "make_optimizer", lambda kind, param, lr: Overflowing())
    data = make_data(n=100)
    with pytest.raises(tr.TrainingDiverged) as caught:
        tr.train(data, make_model(data), quick_config(epochs=1), "nll+snce")
    assert str(caught.value) == "non-finite optimizer state at epoch 0, batch 0 (overflow encountered in multiply)"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_result_without_a_numpy_fault_is_named_too(value):
    with pytest.raises(tr.TrainingDiverged) as caught:
        tr._guarded("likelihood loss", "epoch 0, batch 0", lambda: value)
    assert str(caught.value) == f"non-finite likelihood loss at epoch 0, batch 0 (value {value})"


def test_non_finite_validation_aux_loss_raises():
    # beta=0 skips the auxiliary update, so only the validation pass meets
    # the ranking loss that a vanishing temperature overflows
    data = make_data(n=100)
    model = make_model(data)
    config = quick_config(beta=0.0, ranking_kappa=1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tr.TrainingDiverged, match="non-finite validation loss at epoch 0"):
            tr.train(data, model, config, "nll+rank")


# ---------------------------------------------------------------------------
# determinism and reductions
# ---------------------------------------------------------------------------

def test_training_bitwise_deterministic():
    data = make_data(n=200)
    results = []
    for _ in range(2):
        model = make_model(data, seed=3)
        model, _ = tr.train(data, model, quick_config(epochs=3, seed=11), "nll+snce")
        results.append(model.snapshot())
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_train_releases_the_contrastive_buffers():
    data = make_data(n=200)
    tr.train(data, make_model(data), quick_config(epochs=1), "nll+snce")
    assert not vars(losses._buffers)


def test_beta_zero_matches_nll_variant_bitwise():
    data = make_data(n=200)
    m1 = make_model(data, seed=5)
    m1, _ = tr.train(data, m1, quick_config(epochs=5, beta=0.0, seed=7), "nll+snce")
    m2 = make_model(data, seed=5)
    m2, _ = tr.train(data, m2, quick_config(epochs=5, beta=1.0, seed=7), "nll")
    for a, b in zip(m1.snapshot(), m2.snapshot()):
        np.testing.assert_array_equal(a, b)


def test_different_seeds_different_models():
    data = make_data(n=200)
    m1 = make_model(data, seed=0)
    m1, _ = tr.train(data, m1, quick_config(epochs=2, seed=0), "nll")
    m2 = make_model(data, seed=0)
    m2, _ = tr.train(data, m2, quick_config(epochs=2, seed=1), "nll")
    assert any(not np.array_equal(a, b) for a, b in zip(m1.snapshot(), m2.snapshot()))


# ---------------------------------------------------------------------------
# descent / early stopping / divergence
# ---------------------------------------------------------------------------

def test_validation_nll_descends_on_synthetic():
    synth = generate_paired_exponential(SynthConfig(n_samples=1000, seed=21))
    data = prepare(synth.to_raw(), seed=21, n_bins=20)
    model = make_model(data, seed=21, hidden_dim=16)
    model, log = tr.train(data, model, quick_config(epochs=200, batch_size=64, seed=21, patience=200), "nll+snce")
    assert log.epochs[log.best_epoch].val_nll < log.epochs[0].val_nll


def test_early_stopping_returns_best_snapshot():
    data = make_data(n=120, seed=9)
    model = make_model(data, seed=9)
    config = quick_config(epochs=60, batch_size=16, lr_nll=5e-3, patience=4, seed=9)
    model, log = tr.train(data, model, config, "nll")
    assert len(log.epochs) <= 60
    best = min(e.val_total for e in log.epochs)
    assert log.epochs[log.best_epoch].val_total == best
    # the returned parameters reproduce the recorded best validation loss
    val_x, val_tau, val_delta = data.subset(data.split.validation)
    val = Batch(indices=data.split.validation, x=val_x, x_view=None, tau=val_tau, delta=val_delta)
    assert losses.nll_loss(tr.hazards(model, val), val_tau, val_delta).item() == pytest.approx(best, rel=1e-12)


def test_divergence_raises_with_location():
    data = make_data(n=100)
    data.x[data.split.train[0], 0] = np.nan  # poison a guaranteed training row
    model = make_model(data)
    with pytest.raises(tr.TrainingDiverged, match="likelihood loss at epoch 0"):
        tr.train(data, model, quick_config(epochs=1), "nll")


def test_alpha_percentile_resolution_logged():
    data = make_data(n=200)
    model = make_model(data)
    config = quick_config(epochs=1, alpha_percentile=50.0)
    _, log = tr.train(data, model, config, "nll+snce")
    assert log.alpha_resolved > 0.0


def test_log_csv_roundtrip(tmp_path):
    data = make_data(n=100)
    model = make_model(data)
    _, log = tr.train(data, model, quick_config(epochs=2), "nll+snce")
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,train_nll")
    assert len(lines) == len(log.epochs) + 1
