"""Training objectives.

* ``nll_loss``: discrete-time hazard likelihood (event samples contribute
  log pmf at their event bin, censored samples log survival at their
  censoring bin).
* ``snce_loss``: noise-contrastive objective over corrupted-view pairs whose
  negatives are importance-weighted by how different their survival
  outcomes are; censoring-aware comparability decides which pairs may be
  weighted at all.
* ``infonce_loss``: the same objective with uniform negative weights (the
  ablation baseline).
* ``ranking_loss``: exponential pairwise risk-ordering penalty (the other
  ablation baseline).

Batch layout for the contrastive losses: ``2M`` embeddings, originals in
rows ``0..M-1`` and their corrupted views in rows ``M..2M-1``; row ``i``
pairs with row ``(i + M) % 2M``. Views inherit the survival outcome of
their originals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

logger = logging.getLogger(__name__)

MASKED_LOG = -1e30  # stands in for log(0) without producing inf*0 NaNs
NORM_EPS = 1e-30  # guards row normalization against an exactly-zero embedding


def weight(tau_i, tau_j, sigma: float):
    """Laplacian-kernel outcome-difference weight, 1 - exp(-|dt|/sigma).

    Symmetric, zero at equal times, increasing to 1 as the gap grows.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return 1.0 - np.exp(-np.abs(np.asarray(tau_i, dtype=np.float64) - np.asarray(tau_j, dtype=np.float64)) / sigma)


def comparability(delta_i, delta_j, tau_i, tau_j, alpha: float = 0.0):
    """Ordered comparability indicator with ``i`` as the anchor.

    1 when both samples had events, or when the anchor had an event and the
    other sample was censored at least ``alpha`` bins later; 0 otherwise
    (two censored samples can never be ordered).
    """
    di = np.asarray(delta_i) == 1
    dj = np.asarray(delta_j) == 1
    ti = np.asarray(tau_i, dtype=np.float64)
    tj = np.asarray(tau_j, dtype=np.float64)
    both_events = di & dj
    anchor_first = di & ~dj & (ti < tj) & (np.abs(ti - tj) >= alpha)
    return (both_events | anchor_first).astype(np.int64)


@dataclass
class PairWeightMatrix:
    """Comparability indicators and negative weights over a 2M batch.

    The diagonal and each original<->own-view pair are masked out of the
    negative set; ``weights = indicators * weight(...)`` elementwise.
    """

    indicators: np.ndarray
    weights: np.ndarray


def _structural_mask(m: int) -> np.ndarray:
    """Allowed negative positions: off-diagonal and not the paired view."""
    n = 2 * m
    mask = np.ones((n, n), dtype=bool)
    idx = np.arange(n)
    mask[idx, idx] = False
    mask[idx, (idx + m) % n] = False
    return mask


def build_pair_weights(taus, deltas, sigma: float, alpha: float = 0.0) -> PairWeightMatrix:
    """Pairwise weights for a batch of M records and their M views."""
    taus = np.asarray(taus, dtype=np.float64)
    deltas = np.asarray(deltas)
    if taus.ndim != 1 or taus.shape != deltas.shape:
        raise ValueError("taus and deltas must be matching 1-D arrays")
    m = taus.size
    t2 = np.concatenate([taus, taus])
    d2 = np.concatenate([deltas, deltas])
    ind = comparability(d2[:, None], d2[None, :], t2[:, None], t2[None, :], alpha)
    allowed = _structural_mask(m)
    ind = ind * allowed
    w = ind * weight(t2[:, None], t2[None, :], sigma)
    return PairWeightMatrix(indicators=ind, weights=w)


def uniform_pair_weights(m: int) -> PairWeightMatrix:
    """Every structurally allowed pair weighted 1 (no outcome information)."""
    allowed = _structural_mask(m)
    return PairWeightMatrix(indicators=allowed.astype(np.int64), weights=allowed.astype(np.float64))


def resolve_alpha_percentile(taus, deltas, percentile: float) -> float:
    """Margin in bins from a percentile of event-to-censoring time gaps.

    Only anchor-event / later-censoring pairs contribute gaps. Returns 0
    when no such pair exists.
    """
    taus = np.asarray(taus, dtype=np.float64)
    deltas = np.asarray(deltas)
    events = taus[deltas == 1]
    censored = taus[deltas == 0]
    if events.size == 0 or censored.size == 0:
        return 0.0
    gaps = censored[None, :] - events[:, None]
    gaps = gaps[gaps > 0]
    if gaps.size == 0:
        return 0.0
    return float(np.percentile(gaps, percentile))


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------

def _time_masks(taus: np.ndarray, n_bins: int):
    t = np.arange(n_bins)
    at = (t[None, :] == taus[:, None]).astype(np.float64)
    before = (t[None, :] < taus[:, None]).astype(np.float64)
    upto = (t[None, :] <= taus[:, None]).astype(np.float64)
    return at, before, upto


def nll_loss(hazards: Tensor, taus, deltas) -> Tensor:
    """Mean negative log-likelihood of the observed outcomes.

    ``hazards`` is an (M, t_max+1) tensor of per-bin hazards in (0, 1);
    the sigmoid clamp upstream keeps every log finite.
    """
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
    m, n_bins = hazards.shape
    if m == 0:
        raise ValueError("empty batch")
    if np.any(taus < 0) or np.any(taus >= n_bins):
        raise ValueError("tau out of range for the hazard grid")
    at, before, upto = _time_masks(taus, n_bins)

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


# ---------------------------------------------------------------------------
# contrastive losses
# ---------------------------------------------------------------------------

def _cosine_similarities(embeddings: Tensor, nu: float) -> Tensor:
    sq = ad.mul(embeddings, embeddings)
    norms = ad.sqrt(ad.add(ad.reduce_sum(sq, axis=1), ad.constant(np.full((embeddings.rows, 1), NORM_EPS))))
    unit = ad.div(embeddings, norms)
    return ad.scale(ad.matmul(unit, ad.transpose(unit)), 1.0 / nu)


def snce_loss(embeddings: Tensor, pair_weights: PairWeightMatrix, nu: float) -> Tensor:
    """Outcome-weighted contrastive loss over all 2M anchors.

    Each anchor's positive is its paired view; its denominator is the
    weighted mean of exp(similarity) over the anchor's nonzero-weight
    negatives, so uniformly rescaling the weights changes nothing. Anchors
    without any usable negative are skipped; if the whole batch has none,
    the loss is zero.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    n = embeddings.rows
    if n < 4 or n % 2 != 0:
        raise ValueError("need an even number of embeddings covering at least 2 records")
    w = pair_weights.weights
    if w.shape != (n, n):
        raise ValueError(f"pair weights {w.shape} do not match {n} embeddings")

    sum_w = w.sum(axis=1)
    contributes = sum_w > 0
    n_contrib = int(contributes.sum())
    if n_contrib == 0:
        logger.warning("snce_loss: no comparable pairs in batch, returning zero loss")
        return ad.constant([[0.0]])

    log_w = np.full_like(w, MASKED_LOG)
    nz = w > 0
    log_w[nz] = np.log(w[nz])
    # log of the weighted-mean denominator needs log(sum of weights) per row
    log_sum_w = np.zeros((n, 1))
    log_sum_w[contributes, 0] = np.log(sum_w[contributes])

    m = n // 2
    idx = np.arange(n)
    partner = np.zeros((n, n))
    partner[idx, (idx + m) % n] = 1.0

    sims = _cosine_similarities(embeddings, nu)
    pos = ad.reduce_sum(ad.mul(sims, ad.constant(partner)), axis=1)
    lse = ad.logsumexp(ad.add(sims, ad.constant(log_w)), axis=1)
    per_anchor = ad.sub(ad.sub(lse, ad.constant(log_sum_w)), pos)

    picks = np.zeros((n, 1))
    picks[contributes, 0] = 1.0 / n_contrib
    return ad.reduce_sum(ad.mul(per_anchor, ad.constant(picks)))


def infonce_loss(embeddings: Tensor, nu: float) -> Tensor:
    """Contrastive ablation: every allowed negative weighted equally."""
    if embeddings.rows < 4:
        raise ValueError("need at least 2 records (4 embeddings)")
    return snce_loss(embeddings, uniform_pair_weights(embeddings.rows // 2), nu)


# ---------------------------------------------------------------------------
# ranking ablation
# ---------------------------------------------------------------------------

def ranking_loss(hazards: Tensor, taus, deltas, kappa: float = 0.1) -> Tensor:
    """Exponential pairwise penalty on wrongly ordered risks.

    For each acceptable pair (anchor had its event first), both risks are
    evaluated at the anchor's event bin and exp(-(r_i - r_j)/kappa) is
    averaged over the pairs. Zero with a warning when no pair is
    acceptable.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas)
    m, n_bins = hazards.shape
    acceptable = ((deltas[:, None] == 1) & (taus[:, None] < taus[None, :])).astype(np.float64)
    np.fill_diagonal(acceptable, 0.0)
    n_pairs = acceptable.sum()
    if n_pairs == 0:
        logger.warning("ranking_loss: no acceptable pairs in batch, returning zero loss")
        return ad.constant([[0.0]])

    # cumulative products via log-space cumulative sums (upper-tri matmul)
    upper = np.triu(np.ones((n_bins, n_bins)))
    log_1mh = ad.log(ad.sub(ad.constant(np.ones((m, n_bins))), hazards))
    surv = ad.exp(ad.matmul(log_1mh, ad.constant(upper)))
    risk = ad.sub(ad.constant(np.ones((m, n_bins))), surv)

    at = (np.arange(n_bins)[None, :] == taus[:, None]).astype(np.float64)
    own = ad.reduce_sum(ad.mul(risk, ad.constant(at)), axis=1)  # r_i at tau_i
    cross = ad.matmul(ad.constant(at), ad.transpose(risk))  # [i, j] -> r_j at tau_i
    diff = ad.sub(own, cross)
    terms = ad.exp(ad.scale(diff, -1.0 / kappa))
    return ad.reduce_sum(ad.mul(terms, ad.constant(acceptable / n_pairs)))
