"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear. Seeds are pinned throughout so every check is reproducible
bit-for-bit; statistical margins were verified against their stated
tolerances before the seeds were frozen.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from survcontrast import autodiff as ad
from survcontrast import losses
from survcontrast import metrics as M
from survcontrast.autodiff import Tensor
from survcontrast.cli import main as cli_main
from survcontrast.data import prepare
from survcontrast.model import (
    ModelConfig,
    init_model,
    pmf_from_hazard,
    survival_from_hazard,
    risk_from_hazard,
)
from survcontrast.synth import SynthConfig, generate_discrete_oracle, generate_paired_exponential, margin_study
from survcontrast.trainer import TrainConfig, train


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


# the desk-scale ablation setup validated for criterion 6 (and reused where
# a trained model is needed): 8 noise features alongside the 4 informative
# ones, a fixed epoch budget, and a stronger auxiliary learning rate
ABLATION_SYNTH = SynthConfig(n_samples=2000, seed=0, feature_dim=12)
ABLATION_MODEL = dict(hidden_dim=32, depth=3, embedding_dim=16)
ABLATION_TRAIN = dict(
    epochs=15,
    batch_size=64,
    lr_contrastive=3e-3,
    lr_nll=1e-3,
    beta=1.0,
    sigma=3.0,
    nu=0.07,
    corruption_rate=0.5,
    patience=50,
)
ABLATION_BINS = 30


def _train_ablation(raw, variant: str, seed: int):
    data = prepare(raw, seed=seed, n_bins=ABLATION_BINS)
    model = init_model(
        ModelConfig(input_dim=data.n_features, n_time_bins=data.n_time_bins, **ABLATION_MODEL), seed
    )
    model, _ = train(data, model, TrainConfig(seed=seed, **ABLATION_TRAIN), variant)
    return data, model


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _min_relu_preactivation(model, x2m: np.ndarray) -> float:
    """Smallest |preactivation| feeding any ReLU for this input batch."""
    smallest = math.inf

    def sweep(net, inputs):
        nonlocal smallest
        h = inputs
        for i, (w, b) in enumerate(net.layers):
            pre = h @ w.values + b.values
            if i != len(net.layers) - 1:
                smallest = min(smallest, float(np.abs(pre).min()))
                h = np.maximum(pre, 0.0)
            else:
                h = pre
        return h

    latent = sweep(model.encoder, x2m)
    sweep(model.projection, latent)
    sweep(model.hazard_net, latent)
    return smallest


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    m, dim, t_max = 8, 10, 20
    worst = {name: 0.0 for name in ("nll", "infonce", "snce", "rank")}
    for batch_idx in range(20):
        rng = np.random.default_rng(100 + batch_idx)
        config = ModelConfig(input_dim=dim, n_time_bins=t_max + 1, hidden_dim=8, depth=2, embedding_dim=4)
        x = rng.uniform(size=(m, dim))
        views = rng.uniform(size=(m, dim))
        taus = rng.integers(0, t_max + 1, size=m)
        deltas = rng.integers(0, 2, size=m)
        deltas[:2] = 1  # keep comparable pairs available
        pw = losses.build_pair_weights(taus, deltas, sigma=0.75, alpha=0.0)

        # finite differences are only valid away from the ReLU kinks and the
        # cosine origin, so draw generic parameter points until the batch is
        # clear of both (the zero-bias init itself sits exactly on them)
        both = np.vstack([x, views])
        for _ in range(10):
            model = init_model(config, seed=batch_idx)
            for p in model.all_params():
                p.values += rng.normal(scale=0.1, size=p.values.shape)
            norms = np.linalg.norm(model.embed(both), axis=1)
            if _min_relu_preactivation(model, both) > 1e-3 and norms.min() > 3e-2:
                break
        else:
            pytest.fail(f"no kink-free parameter draw found for batch {batch_idx}")

        def f_nll():
            return losses.nll_loss(model.hazard(model.encode(Tensor(x))), taus, deltas)

        def f_rank():
            return losses.ranking_loss(model.hazard(model.encode(Tensor(x))), taus, deltas, kappa=0.1)

        def f_snce():
            emb = model.project(model.encode(Tensor(np.vstack([x, views]))))
            return losses.snce_loss(emb, pw, nu=0.5)

        def f_infonce():
            emb = model.project(model.encode(Tensor(np.vstack([x, views]))))
            return losses.infonce_loss(emb, nu=0.5)

        params = model.all_params()
        worst["nll"] = max(worst["nll"], ad.grad_check(f_nll, params, h=1e-5))
        worst["rank"] = max(worst["rank"], ad.grad_check(f_rank, params, h=1e-5))
        worst["snce"] = max(worst["snce"], ad.grad_check(f_snce, params, h=1e-5))
        worst["infonce"] = max(worst["infonce"], ad.grad_check(f_infonce, params, h=1e-5))

    elapsed = time.perf_counter() - started
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(1, ok, f"gradient correctness on 20 batches ({detail}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. reduction identities
# ---------------------------------------------------------------------------

def test_criterion_2_reduction_identities():
    # (a) uniform weights reduce the outcome-weighted loss to plain InfoNCE
    worst_gap = 0.0
    for k in range(10):
        rng = np.random.default_rng(200 + k)
        m = 8
        z = Tensor(rng.normal(size=(2 * m, 6)))
        pw = losses.uniform_pair_weights(m)
        pw.weights = pw.weights * 0.37  # any constant must cancel
        gap = abs(losses.snce_loss(z, pw, nu=0.07).item() - losses.infonce_loss(z, nu=0.07).item())
        worst_gap = max(worst_gap, gap)

    # (b) a zero balance coefficient reproduces likelihood-only training
    raw = generate_paired_exponential(SynthConfig(n_samples=400, seed=2)).to_raw()
    cfg = dict(ABLATION_TRAIN, epochs=5, patience=50)
    data = prepare(raw, seed=3, n_bins=15)
    model_a = init_model(ModelConfig(input_dim=data.n_features, n_time_bins=15, hidden_dim=12, depth=2, embedding_dim=6), 3)
    model_a, _ = train(data, model_a, TrainConfig(seed=3, **dict(cfg, beta=0.0)), "nll+snce")
    model_b = init_model(ModelConfig(input_dim=data.n_features, n_time_bins=15, hidden_dim=12, depth=2, embedding_dim=6), 3)
    model_b, _ = train(data, model_b, TrainConfig(seed=3, **cfg), "nll")
    bitwise = all(np.array_equal(a, b) for a, b in zip(model_a.snapshot(), model_b.snapshot()))

    ok = worst_gap < 1e-10 and bitwise
    _report(2, ok, f"uniform-weight gap {worst_gap:.1e} < 1e-10; beta=0 bitwise equal after 5 epochs: {bitwise}")


# ---------------------------------------------------------------------------
# 3. oracle equivalence (Kaplan-Meier, concordance)
# ---------------------------------------------------------------------------

def _km_oracle(taus, deltas, n_bins):
    values, s = [], 1.0
    for t in range(n_bins):
        at_risk = sum(1 for tau in taus if tau >= t)
        events = sum(1 for tau, d in zip(taus, deltas) if tau == t and d == 1)
        if at_risk > 0:
            s *= 1.0 - events / at_risk
        values.append(s)
    return np.array(values)


def _ci_td_oracle(risks, taus, deltas, t):
    num, den = 0.0, 0
    for i in range(len(taus)):
        for j in range(len(taus)):
            if deltas[i] == 1 and taus[i] <= t and taus[i] < taus[j]:
                den += 1
                ri, rj = risks[i, taus[i]], risks[j, taus[i]]
                num += 1.0 if ri > rj else (0.5 if ri == rj else 0.0)
    return None if den == 0 else num / den


def _ci_int_oracle(risks, taus, deltas):
    total, weight = 0.0, 0
    for t in sorted({tau for tau, d in zip(taus, deltas) if d == 1}):
        new = sum(
            1
            for i in range(len(taus))
            for j in range(len(taus))
            if deltas[i] == 1 and taus[i] == t and taus[i] < taus[j]
        )
        if new:
            total += new * _ci_td_oracle(risks, taus, deltas, t)
            weight += new
    return None if weight == 0 else total / weight


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(300)
    km_worst = 0.0
    time_sets = [rng.integers(0, 3, size=8) for _ in range(3)] + [np.zeros(8, dtype=int)]
    for taus in time_sets:
        for pattern in itertools.product([0, 1], repeat=8):
            got = M.kaplan_meier(taus, np.array(pattern), n_bins=3).values
            km_worst = max(km_worst, np.abs(got - _km_oracle(taus, pattern, 3)).max())

    ci_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        n_bins = int(rng.integers(3, 10))
        taus = rng.integers(0, n_bins, size=n)
        deltas = rng.integers(0, 2, size=n)
        deltas[rng.integers(0, n)] = 1
        risks = np.sort(rng.uniform(size=(n, n_bins)), axis=1)
        t = int(rng.integers(0, n_bins))
        got_td = M.c_index_td(risks, taus, deltas, t)
        want_td = _ci_td_oracle(risks, taus, deltas, t)
        if (got_td is None) != (want_td is None):
            ci_worst = math.inf
        elif got_td is not None:
            ci_worst = max(ci_worst, abs(got_td - want_td))
        want_int = _ci_int_oracle(risks, taus, deltas)
        if want_int is not None:
            ci_worst = max(ci_worst, abs(M.c_index_integrated(risks, taus, deltas) - want_int))

    ok = km_worst <= 1e-12 and ci_worst <= 1e-12
    _report(3, ok, f"KM max err {km_worst:.1e} over 1024 patterns; CI max err {ci_worst:.1e} over 100 instances")


# ---------------------------------------------------------------------------
# 4. calibration-metric soundness on oracle data
# ---------------------------------------------------------------------------

def test_criterion_4_calibration_soundness():
    started = time.perf_counter()
    # fine grid + steep hazard ramp keep per-bin probability mass small, so
    # the survival PIT of the generating model is nearly uniform
    kw = dict(n_samples=5000, feature_dim=4, kind="discrete_oracle", n_bins=400,
              hazard_intercept=-7.0, hazard_slope=6.5)
    dcal_passes, worst_ddc, worst_cal = 0, 0.0, 0.0
    for trial in range(100):
        data = generate_discrete_oracle(SynthConfig(seed=2000 + trial, **kw))
        surv = survival_from_hazard(data.true_hazards)
        worst_ddc = max(worst_ddc, M.ddc(surv, data.taus, data.deltas))
        _, p = M.d_calibration(surv, data.taus, data.deltas)
        dcal_passes += p > 0.05
        pairs = M.calibration_plot_data(risk_from_hazard(data.true_hazards), data.taus, data.deltas, 10)
        worst_cal = max(worst_cal, float(np.abs(pairs[:, 0] - pairs[:, 1]).max()))
    elapsed = time.perf_counter() - started
    ok = worst_ddc < 0.02 and dcal_passes >= 95 and worst_cal < 0.05 and elapsed < 120.0
    _report(
        4,
        ok,
        f"true-model DDC max {worst_ddc:.4f} < 0.02, D-CAL passes {dcal_passes}/100 >= 95, "
        f"calibration dev max {worst_cal:.3f} < 0.05, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. margin study
# ---------------------------------------------------------------------------

def test_criterion_5_margin_study():
    started = time.perf_counter()
    data = generate_paired_exponential(SynthConfig(n_samples=1000, seed=7))
    pairs = margin_study(data, n_bins=100)
    censor_gap = pairs[:, 1].astype(float)
    truth_gap = pairs[:, 2].astype(float)
    frac = float((truth_gap >= censor_gap).mean())
    elapsed = time.perf_counter() - started
    ok = truth_gap.mean() > censor_gap.mean() and frac >= 0.99 and elapsed < 10.0
    _report(
        5,
        ok,
        f"truth gap mean {truth_gap.mean():.2f} > censoring gap mean {censor_gap.mean():.2f}, "
        f"dominance {frac:.4f} >= 0.99, {len(pairs)} pairs in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. ablation ordering at desk scale
# ---------------------------------------------------------------------------

def test_criterion_6_ablation_ordering():
    raw = generate_paired_exponential(ABLATION_SYNTH).to_raw()
    seeds = list(range(10))
    means = {}
    for variant in ("nll", "nll+rank", "nll+snce"):
        cis, ibss = [], []
        for seed in seeds:
            data, model = _train_ablation(raw, variant, seed)
            x, tau, delta = data.subset(data.split.test)
            report = M.evaluate_hazards(model.hazard_curve(x), tau, delta)
            cis.append(report.ci_integrated)
            ibss.append(report.ibs)
        means[variant] = (float(np.mean(cis)), float(np.mean(ibss)))
    ci_ok = means["nll+snce"][0] >= means["nll"][0]
    ibs_ok = means["nll+rank"][1] >= means["nll"][1]
    _report(
        6,
        ci_ok and ibs_ok,
        f"mean CI contrastive {means['nll+snce'][0]:.4f} >= nll {means['nll'][0]:.4f}; "
        f"mean IBS ranking {means['nll+rank'][1]:.4f} >= nll {means['nll'][1]:.4f} (10 seeds)",
    )


def test_criterion_6_metabric_subcheck():
    csv_path = os.environ.get("SURVCONTRAST_METABRIC")
    schema_path = os.environ.get("SURVCONTRAST_METABRIC_SCHEMA")
    if not csv_path or not Path(csv_path).exists() or not schema_path:
        print(
            "[criterion 6] SKIP: clinical CSV not supplied "
            "(set SURVCONTRAST_METABRIC and SURVCONTRAST_METABRIC_SCHEMA); synthetic ordering stands"
        )
        pytest.skip("clinical dataset not available")
    from survcontrast.data import Schema, load_csv

    raw = load_csv(csv_path, Schema.from_json(schema_path))
    cis, ibss = [], []
    for seed in range(10):
        data = prepare(raw, seed=seed, n_bins=100)
        model = init_model(
            ModelConfig(input_dim=data.n_features, n_time_bins=data.n_time_bins,
                        hidden_dim=32, depth=4, embedding_dim=32), seed
        )
        config = TrainConfig(
            epochs=500, batch_size=16, lr_contrastive=1e-4, lr_nll=1e-4, beta=1.0,
            sigma=0.75, alpha_percentile=10.0, nu=0.07, corruption_rate=0.5, patience=10, seed=seed
        )
        model, _ = train(data, model, config, "nll+snce")
        x, tau, delta = data.subset(data.split.test)
        report = M.evaluate_hazards(model.hazard_curve(x), tau, delta)
        cis.append(report.ci_integrated)
        ibss.append(report.ibs)
    ci_mean, ibs_mean = float(np.mean(cis)), float(np.mean(ibss))
    ok = abs(ci_mean - 0.688) <= 0.03 and abs(ibs_mean - 0.183) <= 0.03
    _report(6, ok, f"clinical CI {ci_mean:.3f} in 0.688±0.03, IBS {ibs_mean:.3f} in 0.183±0.03 (10 seeds)")


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    spec = {
        "synthetic": {"kind": "paired_exponential", "n_samples": 240, "seed": 5},
        "variants": ["nll+snce"],
        "seeds": [0, 1],
        "model": {"hidden_dim": 8, "depth": 2, "embedding_dim": 4},
        "train": {"epochs": 2, "batch_size": 32, "nu": 0.5, "sigma": 1.0, "patience": 5},
        "n_bins": 10,
        "out": str(tmp_path / "out"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    digests = []
    for _ in range(2):
        assert cli_main(["train", "--config", str(spec_path)]) == 0
        assert cli_main(["evaluate", "--config", str(spec_path)]) == 0
        files = sorted((tmp_path / "out").rglob("*.csv")) + sorted((tmp_path / "out" / "reports").glob("*.json"))
        digests.append({str(f): f.read_bytes() for f in files})
    ok = digests[0] == digests[1] and len(digests[0]) >= 4
    _report(7, ok, f"rerun reproduced {len(digests[0])} output files byte-identically")


# ---------------------------------------------------------------------------
# 8. normalization identity on trained checkpoints
# ---------------------------------------------------------------------------

def test_criterion_8_normalization_identity(tmp_path):
    raw = generate_paired_exponential(SynthConfig(n_samples=400, seed=8, feature_dim=12)).to_raw()
    rng = np.random.default_rng(800)
    worst = 0.0
    for variant in ("nll", "nll+snce"):
        data = prepare(raw, seed=4, n_bins=ABLATION_BINS)
        model = init_model(
            ModelConfig(input_dim=data.n_features, n_time_bins=data.n_time_bins, **ABLATION_MODEL), 4
        )
        cfg = TrainConfig(seed=4, **dict(ABLATION_TRAIN, epochs=3))
        model, _ = train(data, model, cfg, variant)
        path = tmp_path / f"{variant.replace('+', '_')}.json"
        model.save(path)
        from survcontrast.model import HazardModel

        restored = HazardModel.load(path)
        x = rng.uniform(size=(10_000, data.n_features))
        hazards = restored.hazard_curve(x)
        total = pmf_from_hazard(hazards).sum(axis=1) + survival_from_hazard(hazards)[:, -1]
        worst = max(worst, float(np.abs(total - 1.0).max()))
    ok = worst < 1e-10
    _report(8, ok, f"sum(pmf) + S(t_max) deviates from 1 by at most {worst:.2e} over 10^4 inputs x 2 checkpoints")
