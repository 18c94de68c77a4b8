"""Evaluation suite for discrete-time survival predictions.

Discrimination: time-dependent concordance and its comparable-pair-weighted
integral over event times. Calibration: inverse-probability-of-censoring
weighted Brier score and its time integral, the binned KL divergence of
predicted survival probabilities at event times (DDC), the chi-squared
uniformity test on the same bins (D-calibration), calibration-plot pairs,
and the Wasserstein-1 distance between survival curves on a normalized
time grid. D-calibration's p-value comes from an in-package chi-squared
tail (cephes' ``igamc`` for its one shape, bit-equal to
``scipy.special.chdtrc``), so the package needs numpy alone.

All functions are pure; predictions enter as (n, t_max+1) arrays of
per-sample survival or risk curves on the discrete grid.

Cost: both concordance indices come from one pass over the E distinct event
times. One stable sort by time finds every time's anchors and at-risk set;
each time then sorts only its at-risk risks, O(E n log n) time and O(n)
extra memory. The IBS scores all its H horizons in one (n, H) work array,
updated in place. A full report makes one counting pass, one censoring KM
and one Brier pass; the survival curves are a product over the time columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import survival_from_hazard

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

    def at(self, t) -> np.ndarray:
        """Values at integer times t (scalar or array); times before 0 have
        survival 1, times past the grid the last value."""
        t = np.asarray(t, dtype=int)
        return np.where(t < 0, 1.0, self.values[np.clip(t, 0, self.values.size - 1)])


def kaplan_meier(taus, deltas, n_bins: int | None = None) -> SurvivalCurve:
    """Product-limit estimator on the discrete grid: event and at-risk counts
    per bin from one ``bincount``, the product by ``cumprod`` in bin order."""
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    if taus.size == 0:
        raise MetricError("empty sample")
    bins = n_bins if n_bins is not None else int(taus.max()) + 1
    at_risk = np.cumsum(np.bincount(taus, minlength=bins)[::-1])[::-1][:bins]
    events = np.bincount(taus[deltas == 1], minlength=bins)[:bins]
    hazard = np.divide(events, at_risk, out=np.zeros(bins), where=events > 0)
    return SurvivalCurve(np.cumprod(1.0 - hazard))


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------

def _concordance_counts(risks, taus, deltas, t_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The E distinct event times s (up to ``t_max``) in order, and for each
    its concordant, tied and new comparable pair counts as an (E, 3) array.

    The anchors are the events at s and the at-risk set is {j: tau_j > s};
    sorting the at-risk risks at bin s and ``searchsorted``-ing each anchor's
    own risk counts the strictly lower (concordant) and equal (tied) ones.
    One stable sort by time gives both: the anchors of s are a run of the
    sorted events and the at-risk set a suffix of the sorted rows.
    NaN has no place in a sorted order, so a NaN risk is rejected.
    """
    risks = np.atleast_2d(np.asarray(risks, dtype=np.float64))
    if np.isnan(risks.min(initial=np.inf)):  # min propagates NaN, without an n x T mask
        raise MetricError("concordance undefined: NaN in the risks")
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    order = np.argsort(taus, kind="stable")
    anchors = order[deltas[order] == 1]
    if t_max is not None:
        anchors = anchors[taus[anchors] <= t_max]
    event_times, first_anchor = np.unique(taus[anchors], return_index=True)
    last_anchor = np.append(first_anchor[1:], anchors.size)
    first_later = np.searchsorted(taus[order], event_times, side="right")
    below = np.empty(anchors.size, dtype=np.int64)
    not_above = np.empty(anchors.size, dtype=np.int64)
    for s, lo, hi, later in zip(event_times, first_anchor, last_anchor, first_later):
        column = risks[order[later:], s]  # a fresh gather, sorted in place
        column.sort()
        own = risks[anchors[lo:hi], s]
        below[lo:hi] = column.searchsorted(own, side="left")
        not_above[lo:hi] = column.searchsorted(own, side="right")
    # every time has an anchor, so no reduceat group is empty
    concordant = np.add.reduceat(below, first_anchor)
    tied = np.add.reduceat(not_above, first_anchor) - concordant
    pairs = (last_anchor - first_anchor) * (taus.size - first_later)
    return event_times, np.column_stack([concordant, tied, pairs])


def _c_index(concordant, tied, pairs) -> float | None:
    """Concordance from pair counts; None when no pair is comparable."""
    if pairs == 0:
        return None
    return float((concordant + 0.5 * tied) / pairs)


def c_index_td(risks: np.ndarray, taus, deltas, t: int) -> float | None:
    """Fraction of risk-concordant comparable pairs at horizon ``t``.

    A pair (i, j) is comparable when i had its event by ``t`` and strictly
    before j's observed time; both risks are read at i's event bin and ties
    count one half. Returns None (undefined) when no pair qualifies.
    Cost: O(E n log n) time for the E distinct event times up to ``t`` (one
    sort of the at-risk set each) and O(n) extra memory.
    """
    return _c_index(*_concordance_counts(risks, taus, deltas, t_max=t)[1].sum(axis=0))


def c_index_integrated(risks: np.ndarray, taus, deltas) -> float:
    """Average of the time-dependent index over distinct event times,
    weighted by how many pairs become comparable at each time.

    One pass over the E distinct event times gives every per-time count;
    the index at each time is read from their cumulative sums. Cost:
    O(E n log n) time and O(n) extra memory (no n x n array).
    """
    return _integrated_index(_concordance_counts(risks, taus, deltas)[1])


def _integrated_index(counts: np.ndarray) -> float:
    anchored = counts[:, 2] > 0
    if not anchored.any():
        raise MetricError("concordance undefined: no comparable pairs at any event time")
    concordant, tied, pairs = np.cumsum(counts, axis=0)[anchored].T
    new_pairs = counts[anchored, 2]
    # a running sum in event-time order, as the index accrues
    return float(np.cumsum(new_pairs * ((concordant + 0.5 * tied) / pairs))[-1] / new_pairs.sum())


# ---------------------------------------------------------------------------
# Brier score
# ---------------------------------------------------------------------------

def censoring_km(taus, deltas, n_bins: int | None = None) -> SurvivalCurve:
    """Kaplan-Meier estimate of the censoring distribution (flipped flags)."""
    deltas = np.asarray(deltas, dtype=int)
    return kaplan_meier(taus, 1 - deltas, n_bins)


def _brier_scores(surv, taus, deltas, horizons, censor_km: SurvivalCurve) -> np.ndarray:
    """IPCW Brier score at every horizon in one (n, horizons) array pass."""
    surv = np.atleast_2d(np.asarray(surv, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    horizons = np.asarray(horizons, dtype=int)
    alive = taus[:, None] > horizons
    g_t = np.maximum(censor_km.at(horizons), IPCW_FLOOR)
    g_tau = np.maximum(censor_km.at(taus - 1), IPCW_FLOOR)[:, None]
    # one work array: (1 - S)^2 / G(t) while alive, S^2 / G(tau-) after an
    # event, 0 once censored by the horizon
    terms = surv[:, np.minimum(horizons, surv.shape[1] - 1)]
    np.subtract(1.0, terms, out=terms, where=alive)
    np.square(terms, out=terms)
    np.divide(terms, g_t, out=terms, where=alive)
    np.logical_not(alive, out=alive)
    np.divide(terms, g_tau, out=terms, where=alive & (deltas[:, None] == 1))
    terms[alive & (deltas[:, None] != 1)] = 0.0
    # a running sum in sample order: a horizon's score does not depend on
    # how many horizons share the call (a plain sum is pairwise for one)
    return np.cumsum(terms, axis=0, out=terms)[-1] / taus.size


def brier_score(surv: np.ndarray, taus, deltas, t: int, censor_km: SurvivalCurve) -> float:
    """IPCW Brier score at horizon ``t``; the censoring weight is floored."""
    return float(_brier_scores(surv, taus, deltas, [t], censor_km)[0])


def ibs(surv: np.ndarray, taus, deltas) -> float:
    """Trapezoidal time average of the Brier score up to the 95th percentile
    of observed times (the sparse tail is unstable under IPCW). All horizons
    are scored in one array pass."""
    taus = np.asarray(taus, dtype=int)
    t_hi = int(np.quantile(taus, IBS_TIME_QUANTILE))
    g = censoring_km(taus, deltas)
    return _integrated_brier(_brier_scores(surv, taus, deltas, np.arange(t_hi + 1), g), t_hi)


def _integrated_brier(scores: np.ndarray, t_hi: int) -> float:
    """Trapezoidal average of the scores at horizons 0..t_hi."""
    if t_hi < 1:
        raise MetricError("degenerate integration interval for IBS")
    return float(np.trapezoid(scores[:t_hi + 1], dx=1.0) / t_hi)


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
    return statistic, _chi2_tail(statistic)


# cephes' igamc(a, x) = chdtrc(2a, 2x) for the shape a = 4.5 of D-calibration's
# N_CAL_BINS - 1 = 9 degrees of freedom, in cephes' operation order, so each
# p-value has scipy's bits. lgam(a) and the Lanczos scale hold for a = 4.5 only
# (math.lgamma's last bits differ from cephes' lgam).
_CHI2_A = (N_CAL_BINS - 1) / 2
_LGAMMA_A, _LANCZOS_SCALE = 2.4537365708424423, 30.538515298806768  # sqrt(fac / e) / lanczos_sum_expg_scaled(a)
_LANCZOS_FAC = _CHI2_A + 6.024680040776729583740234375 - 0.5  # fac = a + lanczos_g - 0.5
_MACHEP, _MAXLOG, _BIG, _BIGINV = 2.0**-53, 7.09782712893383996843e2, 2.0**52, 2.0**-52


def _chi2_tail(statistic: float) -> float:
    """P(X > statistic) for X chi-squared with N_CAL_BINS - 1 degrees of
    freedom: one minus the lower tail's power series for x < a, the upper
    tail's continued fraction for x >= a (DLMF 8.11.4, 8.9.2). cephes caps
    both loops at 2000 terms; for this shape they stop in far fewer."""
    a, x = _CHI2_A, statistic / 2.0
    if x == 0.0:
        return 1.0
    if abs(a - x) > 0.4 * a:  # igam_fac: x^a e^-x / Gamma(a), by the Lanczos form near x = a
        log_fac = a * math.log(x) - x - _LGAMMA_A
        fac = 0.0 if log_fac < -_MAXLOG else math.exp(log_fac)
    else:
        fac = _LANCZOS_SCALE * (math.exp(a - x) * math.pow(x / _LANCZOS_FAC, a))
    if x < a:
        r, c, ans = a, 1.0, 1.0
        while c > _MACHEP * ans:
            r += 1.0
            c *= x / r
            ans += c
        return 1.0 - ans * fac / a
    if fac == 0.0:  # past exp's underflow, as cephes does; for a huge x the fraction would overflow
        return 0.0
    y, c, t = 1.0 - a, 0.0, 1.0
    z = x + y + 1.0
    pkm2, qkm2, pkm1, qkm1 = 1.0, x, x + 1.0, z * x
    ans = pkm1 / qkm1
    while t > _MACHEP:
        c, y, z = c + 1.0, y + 1.0, z + 2.0
        pk, qk = pkm1 * z - pkm2 * (y * c), qkm1 * z - qkm2 * (y * c)
        if qk != 0:  # else t keeps its last value, above the stopping test
            r = pk / qk
            t, ans = abs((ans - r) / r), r
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2, pkm1, qkm2, qkm1 = pkm2 * _BIGINV, pkm1 * _BIGINV, qkm2 * _BIGINV, qkm1 * _BIGINV
    return ans * fac


def wasserstein_to_km(mean_curve: np.ndarray, km_curve: np.ndarray) -> float:
    """Wasserstein-1 between the time distributions implied by two survival
    curves, given as arrays of their values, on the grid rescaled to [0, 1] so values are scale-free."""
    a, b = np.asarray(mean_curve, dtype=np.float64), np.asarray(km_curve, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"grid mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum() / a.size)


def calibration_plot_data(risks: np.ndarray, taus, deltas, n_levels: int = N_CAL_BINS) -> np.ndarray:
    """(predicted, observed) pairs: at each of the ``n_levels`` predicted
    cumulative-density levels ``1/n_levels, ..., 1``, the observed fraction of
    events whose predicted risk at their event time does not exceed it. The
    ideal curve is the diagonal."""
    risks = np.atleast_2d(np.asarray(risks, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    levels = (np.arange(n_levels) + 1) / n_levels
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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def evaluate_hazards(hazards: np.ndarray, taus, deltas, time_quantiles=(0.25, 0.5, 0.75)) -> MetricReport:
    """Full report for predicted hazard curves; each value is bit-equal to its own function's."""
    hazards = np.atleast_2d(np.asarray(hazards, dtype=np.float64))
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=int)
    surv = survival_from_hazard(hazards)
    g = censoring_km(taus, deltas, n_bins=hazards.shape[1])
    if taus.max() >= hazards.shape[1]:
        raise MetricError(f"observed time bin {taus.max()} lies outside the {hazards.shape[1]}-bin hazard grid")
    event_times, counts = _concordance_counts(1.0 - surv, taus, deltas)
    *at_quantiles, t_hi = (int(t) for t in np.quantile(taus, [*time_quantiles, IBS_TIME_QUANTILE]))
    horizons = dict(zip(time_quantiles, at_quantiles))
    ci_at = {q: _c_index(*counts[event_times <= t].sum(axis=0)) for q, t in horizons.items()}
    statistic, p_value = d_calibration(surv, taus, deltas)
    ci_integrated = _integrated_index(counts)
    scores = _brier_scores(surv, taus, deltas, np.arange(max(t_hi, *at_quantiles) + 1), g)
    return MetricReport(
        ci_integrated=ci_integrated,
        ibs=_integrated_brier(scores, t_hi),
        ddc=ddc(surv, taus, deltas),
        dcal_statistic=statistic,
        dcal_pvalue=p_value,
        ci_at=ci_at,
        bs_at={q: float(scores[t]) for q, t in horizons.items()},
    )
