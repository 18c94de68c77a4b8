"""Evaluation suite for discrete-time survival predictions.

Discrimination: time-dependent concordance and its comparable-pair-weighted
integral over event times. Calibration: inverse-probability-of-censoring
weighted Brier score and its time integral, the binned KL divergence of
predicted survival probabilities at event times (DDC), the chi-squared
uniformity test on the same bins (D-calibration), calibration-plot pairs,
and the Wasserstein-1 distance between survival curves on a normalized
time grid.

All functions are pure; predictions enter as (n, t_max+1) arrays of
per-sample survival or risk curves on the discrete grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats

from .model import risk_from_hazard, survival_from_hazard

N_CAL_BINS = 10
IPCW_FLOOR = 1e-3
IBS_TIME_QUANTILE = 0.95


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


@dataclass
class SurvivalCurve:
    """Right-continuous step curve on the discrete grid 0..t_max."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise MetricError("survival curve must be 1-D")
        if self.values.size and self.values[0] > 1.0 + 1e-12:
            raise MetricError("survival starts above 1")
        if np.any(np.diff(self.values) > 1e-12):
            raise MetricError("survival curve must be non-increasing")

    @property
    def n_bins(self) -> int:
        return self.values.size

    def at(self, t: int) -> float:
        """Value at integer time t; times before 0 have survival 1."""
        if t < 0:
            return 1.0
        return float(self.values[min(t, self.values.size - 1)])


def kaplan_meier(taus, deltas, n_bins: int | None = None) -> SurvivalCurve:
    """Product-limit estimator on the discrete grid."""
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    if taus.size == 0:
        raise MetricError("empty sample")
    bins = n_bins if n_bins is not None else int(taus.max()) + 1
    values = np.ones(bins)
    factor = 1.0
    for t in range(bins):
        at_risk = int(np.sum(taus >= t))
        events = int(np.sum((taus == t) & (deltas == 1)))
        if at_risk > 0 and events > 0:
            factor *= 1.0 - events / at_risk
        values[t] = factor
    return SurvivalCurve(values)


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------

def _cross_risks(risks: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    own = risks[np.arange(taus.size), taus]
    cross = risks[:, taus].T  # [i, j] -> risk of sample j at tau_i
    return own, cross


def c_index_td(risks: np.ndarray, taus, deltas, t: int) -> float | None:
    """Fraction of risk-concordant comparable pairs at horizon ``t``.

    A pair (i, j) is comparable when i had its event by ``t`` and strictly
    before j's observed time; both risks are read at i's event bin and ties
    count one half. Returns None (undefined) when no pair qualifies.
    """
    risks = np.atleast_2d(np.asarray(risks, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    own, cross = _cross_risks(risks, taus)
    comparable = (deltas[:, None] == 1) & (taus[:, None] <= t) & (taus[:, None] < taus[None, :])
    n_pairs = comparable.sum()
    if n_pairs == 0:
        return None
    concordant = (own[:, None] > cross)[comparable].sum()
    tied = (own[:, None] == cross)[comparable].sum()
    return float((concordant + 0.5 * tied) / n_pairs)


def c_index_integrated(risks: np.ndarray, taus, deltas) -> float:
    """Average of the time-dependent index over distinct event times,
    weighted by how many pairs become comparable at each time."""
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    event_times = np.unique(taus[deltas == 1])
    total, weight_sum = 0.0, 0
    for t in event_times:
        new_pairs = int(((deltas[:, None] == 1) & (taus[:, None] == t) & (taus[:, None] < taus[None, :])).sum())
        if new_pairs == 0:
            continue
        value = c_index_td(risks, taus, deltas, int(t))
        if value is None:
            continue
        total += new_pairs * value
        weight_sum += new_pairs
    if weight_sum == 0:
        raise MetricError("concordance undefined: no comparable pairs at any event time")
    return total / weight_sum


# ---------------------------------------------------------------------------
# Brier score
# ---------------------------------------------------------------------------

def censoring_km(taus, deltas, n_bins: int | None = None) -> SurvivalCurve:
    """Kaplan-Meier estimate of the censoring distribution (flipped flags)."""
    deltas = np.asarray(deltas, dtype=int)
    return kaplan_meier(taus, 1 - deltas, n_bins)


def brier_score(surv: np.ndarray, taus, deltas, t: int, censor_km: SurvivalCurve) -> float:
    """IPCW Brier score at horizon ``t``; the censoring weight is floored."""
    surv = np.atleast_2d(np.asarray(surv, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    n = taus.size
    s_t = surv[:, min(t, surv.shape[1] - 1)]
    g_t = max(censor_km.at(t), IPCW_FLOOR)
    total = 0.0
    for i in range(n):
        if taus[i] <= t and deltas[i] == 1:
            g_tau = max(censor_km.at(int(taus[i]) - 1), IPCW_FLOOR)
            total += s_t[i] ** 2 / g_tau
        elif taus[i] > t:
            total += (1.0 - s_t[i]) ** 2 / g_t
    return total / n


def ibs(surv: np.ndarray, taus, deltas) -> float:
    """Trapezoidal time average of the Brier score up to the 95th percentile
    of observed times (the sparse tail is unstable under IPCW)."""
    taus = np.asarray(taus, dtype=int)
    t_hi = int(np.quantile(taus, IBS_TIME_QUANTILE))
    if t_hi < 1:
        raise MetricError("degenerate integration interval for IBS")
    g = censoring_km(taus, np.asarray(deltas), n_bins=int(taus.max()) + 1)
    scores = [brier_score(surv, taus, deltas, t, g) for t in range(t_hi + 1)]
    return float(np.trapezoid(scores, dx=1.0) / t_hi)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _event_survival_bins(surv: np.ndarray, taus: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    events = deltas == 1
    s_vals = surv[np.flatnonzero(events), taus[events]]
    idx = np.clip((s_vals * N_CAL_BINS).astype(int), 0, N_CAL_BINS - 1)
    return np.bincount(idx, minlength=N_CAL_BINS)


def ddc(surv: np.ndarray, taus, deltas) -> float:
    """Normalized KL divergence of binned event-time survival predictions
    from uniform; 0 is perfectly calibrated, 1 is all mass in one bin.

    Bins get a 0.5 pseudo-count so the divergence stays finite when empty.
    """
    surv = np.atleast_2d(np.asarray(surv, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    if not np.any(deltas == 1):
        raise MetricError("DDC needs at least one uncensored sample")
    counts = _event_survival_bins(surv, taus, deltas)
    p = (counts + 0.5) / (counts.sum() + 0.5 * N_CAL_BINS)
    kl = float(np.sum(p * np.log(p * N_CAL_BINS)))
    return float(np.clip(kl / math.log(N_CAL_BINS), 0.0, 1.0))


def d_calibration(surv: np.ndarray, taus, deltas) -> tuple[float, float]:
    """Pearson chi-squared test of bin uniformity; passes when p > 0.05."""
    surv = np.atleast_2d(np.asarray(surv, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    n_events = int(np.sum(deltas == 1))
    if n_events < 10:
        raise MetricError("D-calibration needs at least 10 uncensored samples")
    counts = _event_survival_bins(surv, taus, deltas)
    expected = n_events / N_CAL_BINS
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(stats.chi2.sf(statistic, df=N_CAL_BINS - 1))
    return statistic, p_value


def wasserstein_to_km(mean_curve, km_curve) -> float:
    """Wasserstein-1 between the time distributions implied by two survival
    curves, on the grid rescaled to [0, 1] so values are scale-free."""
    a = mean_curve.values if isinstance(mean_curve, SurvivalCurve) else np.asarray(mean_curve, dtype=np.float64)
    b = km_curve.values if isinstance(km_curve, SurvivalCurve) else np.asarray(km_curve, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"grid mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum() / a.size)


def calibration_plot_data(risks: np.ndarray, taus, deltas, quantiles=N_CAL_BINS) -> np.ndarray:
    """(predicted, observed) pairs: at each predicted cumulative-density
    level, the observed fraction of events whose predicted risk at their
    event time does not exceed it. The ideal curve is the diagonal."""
    risks = np.atleast_2d(np.asarray(risks, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    if isinstance(quantiles, int):
        levels = (np.arange(quantiles) + 1) / quantiles
    else:
        levels = np.asarray(quantiles, dtype=np.float64)
    events = deltas == 1
    r_vals = risks[np.flatnonzero(events), taus[events]]
    observed = [(r_vals <= q).mean() if r_vals.size else math.nan for q in levels]
    return np.column_stack([levels, observed])


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    ci_integrated: float
    ibs: float
    ddc: float
    dcal_statistic: float
    dcal_pvalue: float
    ci_at: dict = field(default_factory=dict)
    bs_at: dict = field(default_factory=dict)

    @property
    def dcal_pass(self) -> bool:
        return self.dcal_pvalue > 0.05

    def to_dict(self) -> dict:
        return {**asdict(self), "dcal_pass": self.dcal_pass}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def evaluate_hazards(hazards: np.ndarray, taus, deltas, time_quantiles=(0.25, 0.5, 0.75)) -> MetricReport:
    """Full report for predicted hazard curves against observed outcomes."""
    hazards = np.atleast_2d(np.asarray(hazards, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    surv = survival_from_hazard(hazards)
    risks = risk_from_hazard(hazards)
    g = censoring_km(taus, deltas, n_bins=hazards.shape[1])
    ci_at, bs_at = {}, {}
    for q in time_quantiles:
        t = int(np.quantile(taus, q))
        ci_at[q] = c_index_td(risks, taus, deltas, t)
        bs_at[q] = brier_score(surv, taus, deltas, t, g)
    statistic, p_value = d_calibration(surv, taus, deltas)
    return MetricReport(
        ci_integrated=c_index_integrated(risks, taus, deltas),
        ibs=ibs(surv, taus, deltas),
        ddc=ddc(surv, taus, deltas),
        dcal_statistic=statistic,
        dcal_pvalue=p_value,
        ci_at=ci_at,
        bs_at=bs_at,
    )
