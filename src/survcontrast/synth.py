"""Synthetic survival data generators.

Two generators:

* ``paired_exponential``: event and censoring times drawn from exponential
  distributions whose parameters are quadratic/linear functions of the
  first four features; a sample is censored when its censoring time comes
  first. The unobserved true event time is kept for every row, which makes
  it possible to compare censoring-based time gaps against ground-truth
  gaps (the margin study). The study's pairs, an event anchor and a
  partner censored later, are the ones ``losses.comparability`` admits at
  margin 0, so it measures the rule the contrastive loss applies.
* ``discrete_oracle``: a known discrete hazard, logistic in features and
  time, sampled exactly on the grid: each row's event bin is the first
  whose cumulative ``model.pmf_from_hazard`` reaches a uniform draw. Because
  the generating hazard is returned alongside the data, calibration metrics
  can be validated against a model that is right by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RawDataset, at_least, check_fields, discretize, from_arrays, non_negative, one_of, within
from .losses import comparability
from .model import pmf_from_hazard


@dataclass
class SynthConfig:
    n_samples: int = at_least(1)
    feature_dim: int = at_least(1, 4)
    seed: int = non_negative(0)
    kind: str = one_of(lambda: GENERATORS, "paired_exponential")
    # exponential parameters act as the mean (scale) by default; "rate"
    # flips the interpretation
    exponential_param: str = one_of(lambda: ("mean", "rate"), "mean")
    # discrete-oracle settings
    n_bins: int = at_least(2, 60)
    hazard_intercept: float = -3.0
    hazard_slope: float = 2.5
    feature_scale: float = 1.5
    censor_rate: float = within(0, 1, 0.0)

    def __post_init__(self):
        check_fields(self)
        if self.kind == "paired_exponential" and self.feature_dim < 4:
            raise ValueError("paired_exponential needs feature_dim >= 4")


# ---------------------------------------------------------------------------
# paired exponential generator (margin study)
# ---------------------------------------------------------------------------

@dataclass
class PairedExponentialData:
    features: np.ndarray
    observed_times: np.ndarray
    events: np.ndarray
    true_event_times: np.ndarray  # kept for censored rows too
    censor_times: np.ndarray

    def __len__(self) -> int:
        return self.observed_times.size

    def to_raw(self) -> RawDataset:
        return from_arrays(self.features, self.observed_times, self.events)


def generate_paired_exponential(config: SynthConfig) -> PairedExponentialData:
    """Features uniform on [0,1]; the event scale is (10 x1)^2 + 5 x3 and the
    censoring scale is (10 x2)^2 + 5 x4, so both are strictly positive."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    x = rng.uniform(size=(config.n_samples, config.feature_dim))
    event_scale = (10.0 * x[:, 0]) ** 2 + 5.0 * x[:, 2]
    censor_scale = (10.0 * x[:, 1]) ** 2 + 5.0 * x[:, 3]
    if config.exponential_param == "rate":
        event_scale = 1.0 / event_scale
        censor_scale = 1.0 / censor_scale
    t_true = rng.exponential(event_scale)
    c = rng.exponential(censor_scale)
    events = (t_true <= c).astype(int)
    observed = np.minimum(t_true, c)
    return PairedExponentialData(x, observed, events, t_true, c)


def margin_study(data: PairedExponentialData, n_bins: int = 100) -> np.ndarray:
    """Per comparable event/censored pair: the observable censoring-time gap
    and the hidden ground-truth gap, in discrete bins.

    Rows are (anchor_tau, censoring_gap, truth_gap) sorted by anchor event
    time; empty when the dataset has no censored rows. Because a censored
    row's true event lies beyond its censoring time, the truth gap can
    never undershoot the censoring gap.
    """
    grid, taus = discretize(data.observed_times, n_bins)
    true_taus = grid.to_bin(data.true_event_times)
    anchors = np.flatnonzero(data.events == 1)
    censored = np.flatnonzero(data.events == 0)
    comparable = comparability(
        data.events[anchors][:, None], data.events[censored][None, :], taus[anchors][:, None], taus[censored][None, :]
    )
    # nonzero walks the block row by row, so within one anchor bin the stable
    # sort keeps pairs in anchor, then partner, index order
    i, j = np.nonzero(comparable)
    a, c = anchors[i], censored[j]
    out = np.stack([taus[a], taus[c] - taus[a], true_taus[c] - taus[a]], axis=1)
    return out[np.argsort(out[:, 0], kind="stable")]


# ---------------------------------------------------------------------------
# discrete oracle generator (metric validation)
# ---------------------------------------------------------------------------

@dataclass
class OracleData:
    features: np.ndarray
    taus: np.ndarray
    deltas: np.ndarray
    true_hazards: np.ndarray  # (n, n_bins), the generating hazard rows

    def __len__(self) -> int:
        return self.taus.size

    def to_raw(self) -> RawDataset:
        return from_arrays(self.features, self.taus.astype(float), self.deltas)


def oracle_feature_weights(config: SynthConfig) -> np.ndarray:
    """Fixed spread of per-feature effects, symmetric around zero."""
    return np.linspace(-1.0, 1.0, config.feature_dim) * config.feature_scale


def oracle_hazards(config: SynthConfig, x: np.ndarray, time_logits=None) -> np.ndarray:
    """The generating hazard matrix for feature rows ``x``."""
    a = oracle_feature_weights(config)
    if time_logits is None:
        u = np.arange(config.n_bins) / (config.n_bins - 1)
        time_logits = config.hazard_intercept + config.hazard_slope * u
    logits = (x - 0.5) @ a[:, None] + np.asarray(time_logits)[None, :]
    with np.errstate(over="ignore"):  # exp(-logits) = inf gives the exact limit, a hazard of 0
        return 1.0 / (1.0 + np.exp(-logits))


def generate_discrete_oracle(config: SynthConfig, time_logits=None) -> OracleData:
    """Sample event bins exactly from a known logistic discrete hazard.

    Events that would fall beyond the horizon become administrative
    censorings at the last bin; ``censor_rate`` additionally censors that
    fraction of samples uniformly over the grid, independently of the event
    process.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    x = rng.uniform(size=(config.n_samples, config.feature_dim))
    hazards = oracle_hazards(config, x, time_logits)
    cdf = np.cumsum(pmf_from_hazard(hazards), axis=1)

    u = rng.uniform(size=len(x))
    k = (cdf < u[:, None]).sum(axis=1)  # searchsorted on each non-decreasing row
    beyond = k >= config.n_bins  # event beyond the horizon
    taus = np.where(beyond, config.n_bins - 1, k)
    deltas = (~beyond).astype(int)

    if config.censor_rate > 0:
        censor_mask = rng.uniform(size=len(x)) < config.censor_rate
        c = rng.integers(0, config.n_bins, size=len(x))
        hit = censor_mask & (c < taus)
        taus[hit] = c[hit]
        deltas[hit] = 0

    return OracleData(x, taus, deltas, hazards)


# kind -> generator; every generator's result has ``to_raw()``
GENERATORS = {
    "paired_exponential": generate_paired_exponential,
    "discrete_oracle": generate_discrete_oracle,
}
