import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcontrast import autodiff as ad
from survcontrast import losses
from survcontrast.autodiff import Tensor
from survcontrast.model import ModelConfig, init_model
from test_autodiff import sigmoid_masked
from test_model import mlp_composite


# ---------------------------------------------------------------------------
# scalar oracles (independent re-implementations used to pin expected values)
# ---------------------------------------------------------------------------

def tiled(block):
    """The 2M x 2M weights of a batch: its M x M record block repeated 2 x 2."""
    return np.tile(block, (2, 2))


def snce_oracle(z, block, nu):
    """Loop evaluation of the contrastive loss over a 2M x d embedding array."""
    z = np.asarray(z, dtype=np.float64)
    w = tiled(block)
    n = z.shape[0]
    m = n // 2
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    sims = unit @ unit.T / nu
    terms = []
    for i in range(n):
        sw = w[i].sum()
        if sw <= 0:
            continue
        denom = sum(w[i, j] * math.exp(sims[i, j]) for j in range(n)) / sw
        pos = sims[i, (i + m) % n]
        terms.append(math.log(denom) - pos)
    return sum(terms) / len(terms)


def snce_composite(embeddings, pw, nu):
    """The contrastive loss as a graph of autodiff ops (the pre-fusion code).

    ``losses.snce_loss`` is one tape node whose pullback evaluates this
    graph's chain rule in the same order, so the two agree bit for bit. It
    takes the record block and works on the tiled 2M x 2M weights.
    """
    w = tiled(pw.weights)
    n = embeddings.rows
    sum_w = w.sum(axis=1)
    contributes = sum_w > 0
    n_contrib = int(contributes.sum())
    if n_contrib == 0:
        return ad.constant([[0.0]])
    log_w = np.full_like(w, losses.MASKED_LOG)
    log_w[w > 0] = np.log(w[w > 0])
    log_sum_w = np.zeros((n, 1))
    log_sum_w[contributes, 0] = np.log(sum_w[contributes])
    idx = np.arange(n)
    partner = np.zeros((n, n))
    partner[idx, (idx + n // 2) % n] = 1.0

    sq = ad.mul(embeddings, embeddings)
    norms = ad.sqrt(ad.add(ad.reduce_sum(sq, axis=1), ad.constant(np.full((n, 1), losses.NORM_EPS))))
    unit = ad.div(embeddings, norms)
    sims = ad.scale(ad.matmul(unit, ad.transpose(unit)), 1.0 / nu)
    pos = ad.reduce_sum(ad.mul(sims, ad.constant(partner)), axis=1)
    lse = ad.logsumexp(ad.add(sims, ad.constant(log_w)), axis=1)
    per_anchor = ad.sub(ad.sub(lse, ad.constant(log_sum_w)), pos)
    picks = np.zeros((n, 1))
    picks[contributes, 0] = 1.0 / n_contrib
    return ad.reduce_sum(ad.mul(per_anchor, ad.constant(picks)))


def nll_composite(hazards, taus, deltas):
    """The likelihood as a graph of autodiff ops (the pre-fusion code).

    ``losses.nll_loss`` is one tape node whose pullback evaluates this
    graph's chain rule in the same order, so the two agree bit for bit.
    """
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
    m, n_bins = hazards.shape
    t = np.arange(n_bins)
    at = (t[None, :] == taus[:, None]).astype(np.float64)
    before = (t[None, :] < taus[:, None]).astype(np.float64)
    upto = (t[None, :] <= taus[:, None]).astype(np.float64)

    log_h = ad.log(hazards)
    log_1mh = ad.log(ad.sub(ad.constant(np.ones((m, n_bins))), hazards))
    log_pmf = ad.add(
        ad.reduce_sum(ad.mul(log_h, ad.constant(at)), axis=1),
        ad.reduce_sum(ad.mul(log_1mh, ad.constant(before)), axis=1),
    )
    log_surv = ad.reduce_sum(ad.mul(log_1mh, ad.constant(upto)), axis=1)
    per_sample = ad.add(
        ad.mul(ad.constant(deltas), log_pmf),
        ad.mul(ad.constant(1.0 - deltas), log_surv),
    )
    return ad.scale(ad.reduce_mean(per_sample), -1.0)


def ranking_oracle(hazards, taus, deltas, kappa):
    h = np.asarray(hazards, dtype=np.float64)
    risk = 1.0 - np.cumprod(1.0 - h, axis=1)
    total, count = 0.0, 0
    for i in range(len(taus)):
        for j in range(len(taus)):
            if i != j and deltas[i] == 1 and taus[i] < taus[j]:
                total += math.exp(-(risk[i, taus[i]] - risk[j, taus[i]]) / kappa)
                count += 1
    return total / count


def ranking_composite(hazards, taus, deltas, kappa):
    """The ranking loss as a graph of autodiff ops (the pre-fusion code).

    ``losses.ranking_loss`` is one tape node whose pullback evaluates this
    graph's chain rule in the same order, so the two agree bit for bit.
    """
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas)
    m, n_bins = hazards.shape
    acceptable = ((deltas[:, None] == 1) & (taus[:, None] < taus[None, :])).astype(np.float64)
    np.fill_diagonal(acceptable, 0.0)
    n_pairs = acceptable.sum()
    if n_pairs == 0:
        return ad.constant([[0.0]])
    upper = np.triu(np.ones((n_bins, n_bins)))
    log_1mh = ad.log(ad.sub(ad.constant(np.ones((m, n_bins))), hazards))
    surv = ad.exp(ad.matmul(log_1mh, ad.constant(upper)))
    risk = ad.sub(ad.constant(np.ones((m, n_bins))), surv)
    at = (np.arange(n_bins)[None, :] == taus[:, None]).astype(np.float64)
    own = ad.reduce_sum(ad.mul(risk, ad.constant(at)), axis=1)  # r_i at tau_i
    cross = ad.matmul(ad.constant(at), ad.transpose(risk))  # [i, j] -> r_j at tau_i
    terms = ad.exp(ad.scale(ad.sub(own, cross), -1.0 / kappa))
    return ad.reduce_sum(ad.mul(terms, ad.constant(acceptable / n_pairs)))


def hazards_tensor(values):
    # route raw hazard values through logits so the graph matches training
    lam = np.asarray(values, dtype=np.float64)
    return ad.sigmoid(Tensor(np.log(lam / (1.0 - lam))))


# ---------------------------------------------------------------------------
# weight / comparability
# ---------------------------------------------------------------------------

def test_weight_zero_at_equal_times():
    assert losses.weight(4, 4, sigma=0.75) == 0.0


def test_weight_hand_value():
    # |dt| = 3, sigma = 0.75 -> 1 - exp(-4)
    assert losses.weight(7, 4, sigma=0.75) == pytest.approx(0.9816843611112658, abs=1e-12)


def test_weight_monotone_bounded():
    gaps = np.arange(0, 60)
    w = losses.weight(gaps, 0, sigma=2.0)
    assert np.all(np.diff(w) > 0)
    assert np.all((w >= 0) & (w < 1))
    assert w[-1] > 0.999


def test_weight_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 50, size=(2, 100))
    np.testing.assert_array_equal(losses.weight(a, b, 1.3), losses.weight(b, a, 1.3))


def test_weight_rejects_bad_sigma():
    with pytest.raises(ValueError):
        losses.weight(1, 2, sigma=0.0)


def test_comparability_both_events():
    assert losses.comparability(1, 1, 50, 2) == 1
    assert losses.comparability(1, 1, 2, 50) == 1


def test_comparability_event_vs_censored_margin():
    assert losses.comparability(1, 0, 3, 10, alpha=5) == 1
    assert losses.comparability(1, 0, 3, 10, alpha=8) == 0
    # censored anchor or censoring before the event never compares
    assert losses.comparability(0, 1, 3, 10) == 0
    assert losses.comparability(1, 0, 10, 3) == 0


def test_comparability_both_censored():
    assert losses.comparability(0, 0, 3, 10) == 0


# ---------------------------------------------------------------------------
# pair weight matrix
# ---------------------------------------------------------------------------

def test_build_pair_weights_all_events():
    taus = np.array([1, 4, 9])
    deltas = np.ones(3, dtype=int)
    pw = losses.build_pair_weights(taus, deltas, sigma=1.0)
    # every pair of the M = 3 records but each one with itself
    np.testing.assert_array_equal(pw.indicators.astype(bool), ~np.eye(3, dtype=bool))
    # tiled: every pair of the 2M = 6 embeddings except each one with itself
    # and each original with its own view (rows i and i + 3)
    idx = np.arange(6)
    allowed = np.ones((6, 6), dtype=bool)
    allowed[idx, idx] = False
    allowed[idx, (idx + 3) % 6] = False
    np.testing.assert_array_equal(tiled(pw.indicators).astype(bool), allowed)
    assert np.all(tiled(pw.weights)[allowed] > 0)


def test_build_pair_weights_all_censored():
    pw = losses.build_pair_weights(np.array([1, 4, 9]), np.zeros(3, dtype=int), sigma=1.0)
    assert np.all(pw.weights == 0.0)
    assert np.all(pw.indicators == 0)


def test_build_pair_weights_matches_elementwise_oracle():
    rng = np.random.default_rng(1)
    m = 6
    taus = rng.integers(0, 12, size=m)
    deltas = rng.integers(0, 2, size=m)
    sigma, alpha = 0.75, 2.0
    pw = losses.build_pair_weights(taus, deltas, sigma, alpha)
    assert pw.weights.shape == pw.indicators.shape == (m, m)
    w = tiled(pw.weights)

    t2 = np.concatenate([taus, taus])
    d2 = np.concatenate([deltas, deltas])
    n = 2 * m
    for i in range(n):
        for j in range(n):
            if i == j or j == (i + m) % n:
                expected = 0.0
            else:
                expected = losses.comparability(d2[i], d2[j], t2[i], t2[j], alpha) * losses.weight(
                    t2[i], t2[j], sigma
                )
            assert w[i, j] == pytest.approx(float(expected), abs=1e-15)


def test_pair_weight_invariants():
    rng = np.random.default_rng(2)
    taus = rng.integers(0, 9, 8)
    pw = losses.build_pair_weights(taus, rng.integers(0, 2, 8), sigma=0.5, alpha=1)
    assert np.all(np.diag(pw.indicators) == 0)
    assert np.all((pw.weights >= 0) & (pw.weights < 1))
    np.testing.assert_array_equal(pw.weights, pw.indicators * losses.weight(taus[:, None], taus[None, :], 0.5))
    t2 = np.concatenate([taus, taus])
    np.testing.assert_array_equal(tiled(pw.weights), tiled(pw.indicators) * losses.weight(t2[:, None], t2[None, :], 0.5))


def test_resolve_alpha_percentile():
    taus = np.array([2, 5, 10, 20])
    deltas = np.array([1, 0, 0, 0])
    # case-2 gaps: 3, 8, 18
    assert losses.resolve_alpha_percentile(taus, deltas, 50) == pytest.approx(8.0)
    assert losses.resolve_alpha_percentile(taus, np.ones(4), 50) == 0.0


# ---------------------------------------------------------------------------
# NLL
# ---------------------------------------------------------------------------

def test_nll_single_event_sample():
    lam = np.full((1, 4), 0.5)
    out = losses.nll_loss(hazards_tensor(lam), taus=[0], deltas=[1])
    assert out.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_nll_single_censored_sample():
    lam = np.full((1, 4), 0.5)
    out = losses.nll_loss(hazards_tensor(lam), taus=[1], deltas=[0])
    assert out.item() == pytest.approx(math.log(4.0), rel=1e-12)


def test_nll_confident_model_hits_clamp_floor():
    logits = np.full((1, 3), -1e4)
    logits[0, 0] = 1e4  # certain event in bin 0
    out = losses.nll_loss(ad.sigmoid(Tensor(logits)), taus=[0], deltas=[1])
    assert out.item() == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-6)
    assert out.item() < 2e-7


def test_nll_rejects_bad_tau():
    with pytest.raises(ValueError):
        losses.nll_loss(hazards_tensor(np.full((1, 3), 0.5)), taus=[3], deltas=[1])


def test_nll_mean_of_contributions():
    lam = np.full((2, 4), 0.5)
    out = losses.nll_loss(hazards_tensor(lam), taus=[0, 1], deltas=[1, 0])
    assert out.item() == pytest.approx((math.log(2.0) + math.log(4.0)) / 2, rel=1e-12)


@st.composite
def nll_batches(draw):
    m = draw(st.integers(1, 10))
    n_bins = draw(st.integers(1, 8))
    taus = np.asarray(draw(st.lists(st.integers(0, n_bins - 1), min_size=m, max_size=m)))
    if draw(st.booleans()):
        taus[0] = n_bins - 1  # an outcome in the last bin
    deltas = np.asarray(draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m)))
    if draw(st.booleans()):
        deltas[:] = 0  # all censored
    if draw(st.booleans()):
        # logits through the sigmoid; +-40 and beyond hit its clamp
        extremes = st.sampled_from([40.0, -40.0, 1e4, -1e4, 0.0, -0.0])
        values = draw(st.lists(st.floats(-50, 50) | extremes, min_size=m * n_bins, max_size=m * n_bins))
        return "logits", np.asarray(values).reshape(m, n_bins), taus, deltas
    # hazards as the leaf, with 0 and 1 where the log floor is active
    values = draw(st.lists(st.floats(0, 1) | st.sampled_from([0.0, 1.0, 1e-13]), min_size=m * n_bins, max_size=m * n_bins))
    return "hazards", np.asarray(values).reshape(m, n_bins), taus, deltas


def _nll_value_and_grad(loss_fn, kind, values, taus, deltas):
    leaf = Tensor(values, requires_grad=True)
    loss = loss_fn(ad.sigmoid(leaf) if kind == "logits" else leaf, taus, deltas)
    ad.backward(loss)
    return loss.item(), leaf.grad


@settings(max_examples=300, deadline=None)
@given(nll_batches())
def test_nll_fused_matches_composite(batch):
    value, grad = _nll_value_and_grad(losses.nll_loss, *batch)
    want_value, want_grad = _nll_value_and_grad(nll_composite, *batch)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


def test_nll_gradient_is_zero_where_the_floor_is_active():
    # an event whose hazard at its bin is 0, a censored sample with hazard 1 before its bin
    leaf = Tensor([[0.5, 0.5, 0.0], [0.5, 1.0, 0.5]], requires_grad=True)
    ad.backward(losses.nll_loss(leaf, taus=[2, 2], deltas=[1, 0]))
    floored = np.array([[False, False, True], [False, True, False]])
    assert np.all(leaf.grad[floored] == 0.0) and np.all(leaf.grad[~floored] != 0.0)


def test_nll_is_one_tape_node():
    leaf = Tensor(np.full((3, 4), 0.3), requires_grad=True)
    assert len(ad.backward(losses.nll_loss(leaf, [0, 2, 3], [1, 0, 1]))) == 2  # the leaf and the loss
    assert len(ad.backward(nll_composite(leaf, [0, 2, 3], [1, 0, 1]))) == 17


def test_nll_descends_under_gradient_step():
    rng = np.random.default_rng(3)
    config = ModelConfig(input_dim=5, n_time_bins=8, hidden_dim=8, depth=2, embedding_dim=4)
    model = init_model(config, seed=0)
    x = rng.uniform(size=(16, 5))
    taus = rng.integers(0, 8, size=16)
    deltas = rng.integers(0, 2, size=16)

    def loss_value():
        return losses.nll_loss(model.hazard(model.encode(Tensor(x))), taus, deltas)

    before = loss_value()
    ad.zero_grads(model.all_params())
    ad.backward(before)
    for p in model.encoder_params() + model.hazard_params():
        p.values -= 0.05 * p.grad
    assert loss_value().item() < before.item()


# ---------------------------------------------------------------------------
# contrastive
# ---------------------------------------------------------------------------

def orthogonal_pair_batch():
    # two records, views identical to originals, orthogonal across records
    z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    return Tensor(z)


def test_snce_hand_case_orthogonal():
    pw = losses.uniform_pair_weights(2)
    out = losses.snce_loss(orthogonal_pair_batch(), pw, nu=1.0)
    assert out.item() == pytest.approx(-1.0, abs=1e-12)


def test_infonce_matches_hand_oracle():
    out = losses.infonce_loss(orthogonal_pair_batch(), nu=1.0)
    assert out.item() == pytest.approx(-1.0, abs=1e-12)


def test_infonce_rejects_tiny_batch():
    with pytest.raises(ValueError):
        losses.infonce_loss(Tensor(np.ones((2, 3))), nu=1.0)


def test_snce_equals_infonce_under_uniform_weights():
    rng = np.random.default_rng(4)
    m = 6
    z = Tensor(rng.normal(size=(2 * m, 5)))
    for const in (1.0, 0.37):
        pw = losses.uniform_pair_weights(m)
        pw.weights = pw.weights * const
        a = losses.snce_loss(z, pw, nu=0.5).item()
        b = losses.infonce_loss(z, nu=0.5).item()
        assert abs(a - b) < 1e-10


def test_snce_matches_loop_oracle():
    rng = np.random.default_rng(5)
    m = 5
    z = rng.normal(size=(2 * m, 4))
    taus = rng.integers(0, 15, size=m)
    deltas = np.array([1, 0, 1, 1, 0])
    pw = losses.build_pair_weights(taus, deltas, sigma=0.75, alpha=1.0)
    assert pw.weights.sum() > 0
    out = losses.snce_loss(Tensor(z), pw, nu=0.25)
    assert out.item() == pytest.approx(snce_oracle(z, pw.weights, 0.25), abs=1e-10)


def test_snce_weight_scaling_invariance():
    rng = np.random.default_rng(6)
    m = 5
    z = Tensor(rng.normal(size=(2 * m, 4)))
    pw = losses.build_pair_weights(rng.integers(0, 9, m), np.ones(m, dtype=int), sigma=0.75)
    base = losses.snce_loss(z, pw, nu=0.5).item()
    pw.weights = pw.weights * 17.3
    assert losses.snce_loss(z, pw, nu=0.5).item() == pytest.approx(base, abs=1e-10)


def test_snce_excluded_samples_are_absent():
    # only record 0 (anchor 0 and its view m) has usable negatives: record 2
    # (original and view copies)
    rng = np.random.default_rng(7)
    m = 4
    z = rng.normal(size=(2 * m, 3))
    w = np.zeros((m, m))
    w[0, 2] = 0.6
    pw = losses.PairWeightMatrix(indicators=(w > 0).astype(int), weights=w)
    base = losses.snce_loss(Tensor(z), pw, nu=1.0).item()

    # perturbing any embedding outside {anchor, its view, record 2} is invisible
    for k in (1, 3, 1 + m, 3 + m):
        z2 = z.copy()
        z2[k] += rng.normal(size=3)
        assert losses.snce_loss(Tensor(z2), pw, nu=1.0).item() == base

    # and the value equals the same loss on the reduced two-record batch
    reduced = Tensor(z[[0, 2, m, 2 + m]])
    wr = np.zeros((2, 2))
    wr[0, 1] = 0.6
    pr = losses.PairWeightMatrix(indicators=(wr > 0).astype(int), weights=wr)
    assert losses.snce_loss(reduced, pr, nu=1.0).item() == pytest.approx(base, abs=1e-12)


def test_snce_all_skipped_returns_zero(caplog):
    m = 3
    z = Tensor(np.random.default_rng(8).normal(size=(2 * m, 4)))
    pw = losses.build_pair_weights(np.arange(m), np.zeros(m, dtype=int), sigma=0.75)
    with caplog.at_level("WARNING"):
        out = losses.snce_loss(z, pw, nu=1.0)
    assert out.item() == 0.0
    assert "no comparable pairs" in caplog.text


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_snce_rejects_negative_or_non_finite_weights(bad):
    rng = np.random.default_rng(13)
    z = Tensor(rng.normal(size=(8, 3)))
    pw = losses.build_pair_weights(np.array([1, 3, 5, 2]), np.array([1, 0, 1, 1]), sigma=0.75)
    assert np.isfinite(losses.snce_loss(z, pw, nu=0.5).item())
    pw.weights = pw.weights.copy()
    pw.weights[0, 1] = bad  # an allowed pair, not the anchor's own view
    with pytest.raises(ValueError, match="finite and non-negative"):
        losses.snce_loss(z, pw, nu=0.5)


def _snce_value_and_grad(loss_fn, z, pw, nu):
    leaf = Tensor(z, requires_grad=True)
    loss = loss_fn(leaf, pw, nu)
    ad.backward(loss)
    return loss.item(), leaf.grad


@st.composite
def snce_batches(draw):
    m = draw(st.integers(2, 12))
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 20.0]))
    z = np.asarray(draw(st.lists(st.floats(-1, 1), min_size=2 * m * d, max_size=2 * m * d))).reshape(2 * m, d)
    z = z * scale + np.eye(2 * m, d)  # no all-zero rows
    # few distinct times, so ties are common; all-censored batches included
    taus = np.asarray(draw(st.lists(st.integers(0, draw(st.integers(0, 6))), min_size=m, max_size=m)))
    deltas = np.asarray(draw(st.lists(st.sampled_from([0, 0, 1]), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["tiled", "rescaled", "hand", "all-censored"]))
    if kind == "all-censored":
        deltas[:] = 0  # the zero-loss path
    pw = losses.build_pair_weights(taus, deltas, sigma=draw(st.floats(0.1, 5)), alpha=draw(st.integers(0, 3)))
    if kind == "rescaled":
        pw.weights = pw.weights * draw(st.floats(1e-3, 1e3))
    elif kind == "hand":
        # an arbitrary M x M block: sparse so some anchors have no negative,
        # asymmetric, and with self and own-view pairs allowed on its diagonal
        raw = np.asarray(draw(st.lists(st.floats(0, 2), min_size=m * m, max_size=m * m))).reshape(m, m)
        w = raw * (raw > 1.2)
        pw = losses.PairWeightMatrix(indicators=(w > 0).astype(np.int64), weights=w)
    return z, pw, draw(st.sampled_from([0.07, 0.5, 1.0]))


@settings(max_examples=150, deadline=None)
@given(snce_batches())
def test_snce_fused_matches_composite(batch):
    z, pw, nu = batch
    value, grad = _snce_value_and_grad(losses.snce_loss, z, pw, nu)
    want_value, want_grad = _snce_value_and_grad(snce_composite, z, pw, nu)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


def test_snce_fused_bitwise_on_model_batch():
    model, x, views, taus, deltas, pw = _toy_problem(14)
    params = model.all_params()
    results = []
    both = Tensor(np.vstack([x, views]))
    for loss_fn, embed in (
        (losses.snce_loss, lambda: model.project(model.encode(both))),
        (snce_composite, lambda: mlp_composite(model.projection, mlp_composite(model.encoder, both))),
    ):
        ad.zero_grads(params)
        loss = loss_fn(embed(), pw, 0.5)
        ad.backward(ad.scale(loss, 0.7))
        results.append([loss.values.tobytes()] + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


@pytest.mark.parametrize("m", [2, 3, 4, 13, 64, 100, 257])
@pytest.mark.parametrize("builder", ["build_pair_weights", "uniform_pair_weights"])
def test_snce_block_bitwise_equals_tiled_composite(builder, m):
    # the weight sums must follow the 2M-long tiled row: 2 * rowsum(block)
    # rounds differently under numpy's pairwise summation, and the loss
    # shows it on some batches only, so each size runs several
    for batch in range(8):
        rng = np.random.default_rng([m, batch])
        z = rng.normal(size=(2 * m, 5))
        if builder == "uniform_pair_weights":
            pw = losses.uniform_pair_weights(m)
        else:
            deltas = rng.integers(0, 2, size=m)
            deltas[0] = 1
            pw = losses.build_pair_weights(rng.integers(0, 40, size=m), deltas, sigma=2.3, alpha=1.0)
        value, grad = _snce_value_and_grad(losses.snce_loss, z, pw, 0.3)
        want_value, want_grad = _snce_value_and_grad(snce_composite, z, pw, 0.3)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes(), batch
        assert grad.tobytes() == want_grad.tobytes(), batch


@pytest.mark.parametrize("shape", [(8, 8), (4, 5)])
def test_snce_rejects_weights_that_are_not_the_record_block(shape):
    z = Tensor(np.random.default_rng(18).normal(size=(8, 3)))
    pw = losses.PairWeightMatrix(indicators=np.ones(shape, dtype=np.int64), weights=np.ones(shape))
    with pytest.raises(ValueError, match=r"expected the \(4, 4\) record block"):
        losses.snce_loss(z, pw, nu=0.5)


def test_snce_is_one_tape_node():
    rng = np.random.default_rng(15)
    leaf = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    pw = losses.build_pair_weights(np.array([1, 3, 5, 2]), np.array([1, 0, 1, 1]), sigma=0.75)
    assert len(ad.backward(losses.snce_loss(leaf, pw, nu=0.5))) == 2  # the leaf and the loss
    assert len(ad.backward(snce_composite(leaf, pw, nu=0.5))) == 17


def test_infonce_permutation_of_negatives():
    rng = np.random.default_rng(9)
    m = 5
    z = rng.normal(size=(2 * m, 4))
    base = losses.infonce_loss(Tensor(z), nu=0.5).item()
    # swap two non-anchor records wholesale (originals and views together)
    perm = np.arange(2 * m)
    perm[[1, 3]] = perm[[3, 1]]
    perm[[1 + m, 3 + m]] = perm[[3 + m, 1 + m]]
    assert losses.infonce_loss(Tensor(z[perm]), nu=0.5).item() == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_ranking_equal_risks_gives_one():
    lam = np.tile(np.linspace(0.1, 0.4, 5), (3, 1))
    out = losses.ranking_loss(hazards_tensor(lam), taus=[0, 1, 2], deltas=[1, 1, 1], kappa=0.1)
    assert out.item() == pytest.approx(1.0, rel=1e-12)


def test_ranking_correct_order_below_one():
    lam = np.array([[0.9, 0.9, 0.9], [0.01, 0.01, 0.01]])
    out = losses.ranking_loss(hazards_tensor(lam), taus=[0, 2], deltas=[1, 1], kappa=0.1)
    assert out.item() < 1.0


def test_ranking_matches_pair_oracle():
    rng = np.random.default_rng(10)
    lam = rng.uniform(0.05, 0.6, size=(3, 6))
    taus = np.array([1, 3, 5])
    deltas = np.array([1, 0, 1])
    out = losses.ranking_loss(hazards_tensor(lam), taus, deltas, kappa=0.1)
    assert out.item() == pytest.approx(ranking_oracle(lam, taus, deltas, 0.1), rel=1e-10)


def test_ranking_no_pairs_zero(caplog):
    lam = np.full((2, 3), 0.5)
    with caplog.at_level("WARNING"):
        out = losses.ranking_loss(hazards_tensor(lam), taus=[2, 2], deltas=[0, 0], kappa=0.1)
    assert out.item() == 0.0
    assert "no acceptable pairs" in caplog.text


@st.composite
def ranking_batches(draw):
    m = draw(st.integers(1, 10))
    n_bins = draw(st.integers(1, 8))
    # few distinct bins, so tied times are common
    taus = np.asarray(draw(st.lists(st.integers(0, min(n_bins - 1, draw(st.integers(0, 3)))), min_size=m, max_size=m)))
    deltas = np.asarray(draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m)))
    if draw(st.booleans()):
        deltas[:] = 0  # no acceptable pair: the zero-loss path
    # logits through the sigmoid; +-40 and beyond hit its clamp
    extremes = st.sampled_from([40.0, -40.0, 1e4, -1e4, 0.0, -0.0])
    logits = draw(st.lists(st.floats(-20, 20) | extremes, min_size=m * n_bins, max_size=m * n_bins))
    return np.asarray(logits).reshape(m, n_bins), taus, deltas, draw(st.sampled_from([0.05, 0.1, 1.0]))


def _ranking_value_and_grad(loss_fn, logits, taus, deltas, kappa):
    leaf = Tensor(logits, requires_grad=True)
    loss = loss_fn(ad.sigmoid(leaf), taus, deltas, kappa)
    ad.backward(loss)
    return loss.item(), leaf.grad


@settings(max_examples=300, deadline=None)
@given(ranking_batches())
def test_ranking_fused_matches_composite(batch):
    value, grad = _ranking_value_and_grad(losses.ranking_loss, *batch)
    want_value, want_grad = _ranking_value_and_grad(ranking_composite, *batch)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", [2, 13, 64, 257])
def test_ranking_bitwise_equals_composite(m):
    # batch sizes of training and validation, with many tied times: the
    # pullback sums each bin's rows, whose order must follow the graph's
    for batch in range(4):
        rng = np.random.default_rng([m, batch])
        logits = rng.normal(scale=3.0, size=(m, 30))
        taus, deltas = rng.integers(0, 12, size=m), rng.integers(0, 2, size=m)
        deltas[0], taus[0] = 1, 0
        value, grad = _ranking_value_and_grad(losses.ranking_loss, logits, taus, deltas, 0.1)
        want_value, want_grad = _ranking_value_and_grad(ranking_composite, logits, taus, deltas, 0.1)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes(), batch
        assert grad.tobytes() == want_grad.tobytes(), batch


def test_ranking_is_one_tape_node():
    leaf = Tensor(np.full((3, 4), 0.3), requires_grad=True)
    taus, deltas = [0, 2, 3], [1, 0, 1]
    assert len(ad.backward(losses.ranking_loss(leaf, taus, deltas))) == 2  # the leaf and the loss
    assert len(ad.backward(ranking_composite(leaf, taus, deltas, 0.1))) == 15


# ---------------------------------------------------------------------------
# total loss and gradients
# ---------------------------------------------------------------------------

def _toy_problem(seed, activation="relu"):
    rng = np.random.default_rng(seed)
    config = ModelConfig(input_dim=5, n_time_bins=7, hidden_dim=6, depth=2, embedding_dim=4, activation=activation)
    model = init_model(config, seed=seed)
    m = 4
    x = rng.uniform(size=(m, 5))
    views = x + rng.normal(scale=0.1, size=x.shape)
    taus = np.array([1, 3, 5, 2])
    deltas = np.array([1, 0, 1, 1])
    pw = losses.build_pair_weights(taus, deltas, sigma=0.75, alpha=0.0)
    return model, x, views, taus, deltas, pw


def _hazards(model, x, composite):
    """The model's hazards, with its networks as per-layer graphs when
    ``"mlp"`` is in ``composite`` and every sigmoid in its masked pre-fusion
    form when ``"sigmoid"`` is (a fused network applies its own)."""
    sigmoid = sigmoid_masked if "sigmoid" in composite else ad.sigmoid
    if "mlp" not in composite:
        return sigmoid(model.hazard_net(model.encode(x)))
    act = sigmoid_masked if "sigmoid" in composite and model.config.activation == "sigmoid" else None
    return sigmoid(mlp_composite(model.hazard_net, mlp_composite(model.encoder, x, act), act))


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("composite", [("mlp",), ("sigmoid",), ("nll",), ("mlp", "sigmoid", "nll")])
def test_fused_likelihood_bitwise_on_model_batch(composite, activation):
    model, x, _, taus, deltas, _ = _toy_problem(16, activation=activation)
    params = model.all_params()
    results = []
    for parts in ((), composite):
        ad.zero_grads(params)
        hazards = _hazards(model, Tensor(x), parts)
        loss = (nll_composite if "nll" in parts else losses.nll_loss)(hazards, taus, deltas)
        ad.backward(loss)
        results.append([loss.values.tobytes(), hazards.values.tobytes()] + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("seed", [16, 17, 18])
def test_fused_ranking_bitwise_on_model_batch(seed, activation):
    model, x, _, taus, deltas, _ = _toy_problem(seed, activation=activation)
    params = model.all_params()
    results = []
    for parts, loss_fn in (((), losses.ranking_loss), (("mlp", "sigmoid"), ranking_composite)):
        ad.zero_grads(params)
        loss = loss_fn(_hazards(model, Tensor(x), parts), taus, deltas, 0.1)
        ad.backward(ad.scale(loss, 0.7))
        results.append([loss.values.tobytes()] + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


@pytest.mark.parametrize("which", ["nll", "snce", "rank"])
def test_backward_twice_on_one_graph_gives_the_same_gradients(which):
    model, x, views, taus, deltas, pw = _toy_problem(19)
    if which == "snce":
        loss = losses.snce_loss(model.project(model.encode(Tensor(np.vstack([x, views])))), pw, 0.5)
    else:
        hazards = model.hazard(model.encode(Tensor(x)))
        loss = losses.nll_loss(hazards, taus, deltas) if which == "nll" else losses.ranking_loss(hazards, taus, deltas)
    grads = []
    for root in (loss, loss, ad.scale(loss, 2.0)):  # a second root over the same graph pulls anew
        ad.zero_grads([model.params])
        ad.backward(root)
        grads.append(model.params.grad.copy())
    assert grads[0].tobytes() == grads[1].tobytes() and np.any(grads[0] != 0.0)
    assert (grads[0] * 2.0).tobytes() == grads[2].tobytes()


def test_total_gradient_is_linear_combination():
    model, x, views, taus, deltas, pw = _toy_problem(11)
    beta = 0.7

    def nll():
        return losses.nll_loss(model.hazard(model.encode(Tensor(x))), taus, deltas)

    def snce():
        both = Tensor(np.vstack([x, views]))
        return losses.snce_loss(model.project(model.encode(both)), pw, nu=0.5)

    params = model.all_params()
    ad.zero_grads(params)
    ad.backward(nll())
    g_nll = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    ad.backward(snce())
    g_snce = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    ad.backward(ad.add(nll(), ad.scale(snce(), beta)))
    for p, gn, gs in zip(params, g_nll, g_snce):
        np.testing.assert_allclose(p.grad, gn + beta * gs, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("which,tol", [("nll", 1e-5), ("snce", 1e-4), ("infonce", 1e-4), ("rank", 1e-4)])
def test_loss_gradients_match_finite_differences(which, tol):
    model, x, views, taus, deltas, pw = _toy_problem(12)

    def f():
        if which == "nll":
            return losses.nll_loss(model.hazard(model.encode(Tensor(x))), taus, deltas)
        if which == "rank":
            return losses.ranking_loss(model.hazard(model.encode(Tensor(x))), taus, deltas, kappa=0.1)
        both = Tensor(np.vstack([x, views]))
        emb = model.project(model.encode(both))
        if which == "snce":
            return losses.snce_loss(emb, pw, nu=0.5)
        return losses.infonce_loss(emb, nu=0.5)

    assert ad.grad_check(f, model.all_params(), h=1e-5) < tol
