import math

import numpy as np
import pytest

from survcontrast import autodiff as ad
from survcontrast import losses
from survcontrast.autodiff import Tensor
from survcontrast.model import ModelConfig, init_model


# ---------------------------------------------------------------------------
# scalar oracles (independent re-implementations used to pin expected values)
# ---------------------------------------------------------------------------

def snce_oracle(z, w, nu):
    """Loop evaluation of the contrastive loss over a 2M x d embedding array."""
    z = np.asarray(z, dtype=np.float64)
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
    allowed = losses._structural_mask(3)
    np.testing.assert_array_equal(pw.indicators.astype(bool), allowed)
    assert np.all(pw.weights[allowed] > 0)


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
            assert pw.weights[i, j] == pytest.approx(float(expected), abs=1e-15)


def test_pair_weight_invariants():
    rng = np.random.default_rng(2)
    taus = rng.integers(0, 9, 8)
    pw = losses.build_pair_weights(taus, rng.integers(0, 2, 8), sigma=0.5, alpha=1)
    assert np.all(np.diag(pw.indicators) == 0)
    assert np.all((pw.weights >= 0) & (pw.weights < 1))
    t2 = np.concatenate([taus, taus])
    np.testing.assert_array_equal(pw.weights, pw.indicators * losses.weight(t2[:, None], t2[None, :], 0.5))


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
    # only anchor 0 has usable negatives: record 2 (original and view copies)
    rng = np.random.default_rng(7)
    m = 4
    z = rng.normal(size=(2 * m, 3))
    w = np.zeros((2 * m, 2 * m))
    w[0, 2] = w[0, 2 + m] = 0.6
    pw = losses.PairWeightMatrix(indicators=(w > 0).astype(int), weights=w)
    base = losses.snce_loss(Tensor(z), pw, nu=1.0).item()

    # perturbing any embedding outside {anchor, its view, record 2} is invisible
    for k in (1, 3, 1 + m, 3 + m):
        z2 = z.copy()
        z2[k] += rng.normal(size=3)
        assert losses.snce_loss(Tensor(z2), pw, nu=1.0).item() == base

    # and the value equals the same loss on the reduced two-record batch
    reduced = Tensor(z[[0, 2, m, 2 + m]])
    wr = np.zeros((4, 4))
    wr[0, 1] = wr[0, 3] = 0.6
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


# ---------------------------------------------------------------------------
# total loss and gradients
# ---------------------------------------------------------------------------

def _toy_problem(seed):
    rng = np.random.default_rng(seed)
    config = ModelConfig(input_dim=5, n_time_bins=7, hidden_dim=6, depth=2, embedding_dim=4)
    model = init_model(config, seed=seed)
    m = 4
    x = rng.uniform(size=(m, 5))
    views = x + rng.normal(scale=0.1, size=x.shape)
    taus = np.array([1, 3, 5, 2])
    deltas = np.array([1, 0, 1, 1])
    pw = losses.build_pair_weights(taus, deltas, sigma=0.75, alpha=0.0)
    return model, x, views, taus, deltas, pw


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
