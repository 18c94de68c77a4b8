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
their originals, so the 2M x 2M weights would be the M x M record block,
diagonal (self and own-view pairs) zeroed, repeated 2 x 2. The block is all
that is ever built: ``snce_loss`` takes ``log`` of the block and adds it into
the four quadrants of the logits in place. Each anchor's weight sum is taken
over the block's row laid twice end to end, in the order of the 2M-long row,
because numpy's pairwise summation rounds ``2 * rowsum(block)`` differently.

``nll_loss`` is one tape node. With ``g_pmf = -g delta / M`` and
``g_1mh = g_pmf [t < tau] + (-g (1 - delta) / M) [t <= tau]``, it pulls ``g``
back to the hazards as ``g_pmf [t = tau] in_h / clamp_h - g_1mh in_1mh / clamp_1mh``,
where ``clamp`` is the floored log argument and ``in`` marks where the floor
was not active.

``snce_loss`` is one tape node. With ``u = e / |e|``, anchor picks ``p`` and
``P`` the row softmax of ``u u^T / nu + log w``, it pulls ``g`` back as
``G = g p P`` less ``g p_i`` at (i, partner(i)), ``U = (G / nu) u + ((G / nu)^T u)``,
``de = U / |e| + 2 e rowsum(-U e / |e|^2) * 0.5 / |e|``, in the op order of the test oracle.
Its large arrays live in two reused buffers of the calling thread, so a step
does not fault in fresh pages: ``logits`` holds the 2M x 2M ``S``, ``S + log w``
and its exp, which the pullback keeps; ``scratch`` holds what dies inside one
call (the M x 2M block laid twice for the weight sums, the M x M ``log w``, the
pullback's softmax). While a view of a buffer is alive, as the logits of a graph
not yet differentiated are, a fresh one is handed out, so the arithmetic and
its bits are those of fresh arrays. ``trainer.train`` calls
:func:`release_buffers` when it returns.

``ranking_loss`` is one tape node. With ``S = exp(log(1 - h) U)`` (``U`` the
upper-triangular ones), ``r = 1 - S``, ``at`` the one-hot of ``tau`` and ``A``
the acceptable pairs over their count, it pulls ``g`` back as
``D = g A exp(-(r_i(tau_i) - r_j(tau_i)) / kappa) (-1 / kappa)``,
``R = rowsum(D) at - (at^T D)^T`` and ``dh = -(((-R S) U^T) in / clamp)``, where
``clamp`` and ``in`` are the floored log's, in the op order of the test oracle.
"""

from __future__ import annotations

import logging
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

logger = logging.getLogger(__name__)

MASKED_LOG = -1e30  # stands in for log(0) without producing inf*0 NaNs
NORM_EPS = 1e-30  # guards row normalization against an exactly-zero embedding

_buffers = threading.local()  # this thread's reused float64 buffers, one per role


def _workspace(name: str, rows: int, cols: int) -> np.ndarray:
    """A ``rows x cols`` view of this thread's grow-only float64 buffer ``name``.

    While a view of the buffer is still alive (a graph whose pullback keeps
    the forward's logits, say), a fresh buffer takes its place, so reuse
    saves page faults and never decides what a caller sees.
    """
    buf = getattr(_buffers, name, None)
    size = rows * cols
    # the slot, ``buf`` and getrefcount's argument: a fourth reference is a live view,
    # the check ``ndarray.resize(refcheck=True)`` makes
    if buf is None or buf.size < size or sys.getrefcount(buf) > 3:
        buf = np.empty(size if buf is None else max(size, buf.size))
        setattr(_buffers, name, buf)
    return buf[:size].reshape(rows, cols)


def release_buffers() -> None:
    """Drop this thread's buffers; a view still alive keeps its own memory."""
    vars(_buffers).clear()


def weight(tau_i, tau_j, sigma: float):
    """Laplacian-kernel outcome-difference weight, 1 - exp(-|dt|/sigma).

    Symmetric, zero at equal times, increasing to 1 as the gap grows.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # one array, each step in place: an M x M call makes one temporary, not six
    w = np.asarray(np.subtract(tau_i, tau_j, dtype=np.float64))
    np.abs(w, out=w)
    np.negative(w, out=w)
    w /= sigma
    np.exp(w, out=w)
    np.subtract(1.0, w, out=w)
    return w[()]  # a scalar for scalar times


def comparability(delta_i, delta_j, tau_i, tau_j, alpha: float = 0.0):
    """Ordered comparability indicator with ``i`` as the anchor.

    1 when both samples had events, or when the anchor had an event and the
    other sample was censored at least ``alpha`` bins later; 0 otherwise
    (two censored samples can never be ordered).
    """
    di = np.asarray(delta_i) == 1
    dj = np.asarray(delta_j) == 1
    # where the other time is later, |tau_i - tau_j| is that difference
    later_by = np.subtract(tau_j, tau_i, dtype=np.float64)
    anchor_first = later_by >= alpha
    anchor_first &= later_by > 0
    anchor_first &= di & ~dj
    anchor_first |= di & dj  # both had events
    return anchor_first.astype(np.int64)


@dataclass
class PairWeightMatrix:
    """Comparability indicators and negative weights of M records, M x M.

    Entry (i, j) holds for every anchor and negative copy of records i and j
    (original or view): the batch's 2M x 2M weights are this block repeated
    2 x 2 and are never materialised. The diagonal (a record against itself
    or its own view) is zero; ``weights = indicators * weight(...)``
    elementwise.
    """

    indicators: np.ndarray
    weights: np.ndarray


def build_pair_weights(taus, deltas, sigma: float, alpha: float = 0.0) -> PairWeightMatrix:
    """Pairwise weights for a batch of M records and their M views."""
    taus = np.asarray(taus, dtype=np.float64)
    deltas = np.asarray(deltas)
    if taus.ndim != 1 or taus.shape != deltas.shape:
        raise ValueError("taus and deltas must be matching 1-D arrays")
    ind = comparability(deltas[:, None], deltas[None, :], taus[:, None], taus[None, :], alpha)
    np.fill_diagonal(ind, 0)  # a record against itself or its own view
    w = weight(taus[:, None], taus[None, :], sigma)
    w *= ind
    return PairWeightMatrix(indicators=ind, weights=w)


def uniform_pair_weights(m: int) -> PairWeightMatrix:
    """Every structurally allowed pair weighted 1 (no outcome information)."""
    allowed = 1 - np.eye(m, dtype=np.int64)
    return PairWeightMatrix(indicators=allowed, weights=allowed.astype(np.float64))


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

def nll_loss(hazards: Tensor, taus, deltas) -> Tensor:
    """Mean negative log-likelihood of the observed outcomes, as one tape node.

    ``hazards`` is an (M, t_max+1) tensor of per-bin hazards in (0, 1);
    the sigmoid clamp upstream keeps every log finite. The logs are floored
    as :func:`autodiff.log` floors them, and the pullback is zero wherever a
    floor was active (formula in the module docstring).
    """
    taus = np.asarray(taus, dtype=int)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
    m, n_bins = hazards.shape
    if m == 0:
        raise ValueError("empty batch")
    if np.any(taus < 0) or np.any(taus >= n_bins):
        raise ValueError("tau out of range for the hazard grid")
    t = np.arange(n_bins)
    at = (t[None, :] == taus[:, None]).astype(np.float64)
    before = (t[None, :] < taus[:, None]).astype(np.float64)
    upto = (t[None, :] <= taus[:, None]).astype(np.float64)

    h = hazards.values
    log_h, clamp_h, in_h = ad.floored_log(h)
    log_1mh, clamp_1mh, in_1mh = ad.floored_log(1.0 - h)
    log_pmf = (log_h * at).sum(axis=1, keepdims=True) + (log_1mh * before).sum(axis=1, keepdims=True)
    log_surv = (log_1mh * upto).sum(axis=1, keepdims=True)
    per_sample = deltas * log_pmf + (1.0 - deltas) * log_surv
    inv_m = 1.0 / m

    def pull(g):
        g_mean = g * -1.0 * inv_m
        g_pmf = g_mean * deltas
        g_1mh = g_pmf * before + g_mean * (1.0 - deltas) * upto
        return g_pmf * at * in_h / clamp_h + g_1mh * in_1mh / clamp_1mh * -1.0

    return ad._make(per_sample.sum(keepdims=True) * inv_m * -1.0, (hazards,), lambda g: (pull(g),))


# ---------------------------------------------------------------------------
# contrastive losses
# ---------------------------------------------------------------------------

def snce_loss(embeddings: Tensor, pair_weights: PairWeightMatrix, nu: float) -> Tensor:
    """Outcome-weighted contrastive loss over all 2M anchors.

    Each anchor's positive is its paired view; its denominator is the
    weighted mean of exp(similarity) over the anchor's nonzero-weight
    negatives, so uniformly rescaling the weights changes nothing. Anchors
    without any usable negative are skipped; if the whole batch has none,
    the loss is zero. ``pair_weights`` holds the (M, M) record block of the
    2M embeddings; another shape, or negative or non-finite weights, raise
    ValueError.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    n = embeddings.rows
    if n < 4 or n % 2 != 0:
        raise ValueError("need an even number of embeddings covering at least 2 records")
    m = n // 2
    w = pair_weights.weights
    if w.shape != (m, m):
        raise ValueError(f"pair weights {w.shape} do not match {n} embeddings: expected the ({m}, {m}) record block")

    # a row of the 2M x 2M weights is the block's row twice, summed in that order:
    # 2 * w.sum(axis=1) splits numpy's pairwise sum elsewhere and rounds differently
    row_sums = np.concatenate([w, w], axis=1, out=_workspace("scratch", m, n)).sum(axis=1, keepdims=True)
    sum_w = np.tile(row_sums, (2, 1))
    if not (w.min() >= 0 and np.isfinite(sum_w).all()):
        raise ValueError("pair weights must be finite and non-negative")
    contributes = sum_w > 0
    n_contrib = int(contributes.sum())
    if n_contrib == 0:
        logger.warning("snce_loss: no comparable pairs in batch, returning zero loss")
        return ad.constant([[0.0]])

    log_w = _workspace("scratch", m, m)
    log_w.fill(MASKED_LOG)
    np.log(w, out=log_w, where=w > 0)
    log_sum_w = np.log(sum_w, out=np.zeros_like(sum_w), where=contributes)  # of the weighted-mean denominator
    picks = contributes / n_contrib
    e = embeddings.values
    norms = np.sqrt((e * e).sum(axis=1, keepdims=True) + NORM_EPS)
    unit = e / norms
    unit_t = unit.T.copy()  # unit @ unit.T and grad @ unit would take other BLAS paths and other bits
    z = np.matmul(unit, unit_t, out=_workspace("logits", n, n))  # kept by the pullback as ``ex``
    z *= 1.0 / nu  # S, then S + log w and its exp, all in this one buffer
    idx = np.arange(n)
    partner = (idx + m) % n
    pos = z[idx, partner][:, None]
    quadrants = z.reshape(2, m, 2, m)
    np.add(quadrants, log_w[None, :, None, :], out=quadrants)  # S + log w, the block in each quadrant
    top = z.max(axis=1, keepdims=True)
    ex = np.exp(np.subtract(z, top, out=z), out=z)
    s = ex.sum(axis=1, keepdims=True)
    per_anchor = (top + np.log(s) - log_sum_w) - pos

    def pull(g):
        gp = g * picks
        grad = np.divide(ex, s, out=_workspace("scratch", n, n))
        grad *= gp
        grad[idx, partner] -= gp[:, 0]
        grad *= 1.0 / nu
        g_unit = grad @ unit_t.T + (unit.T @ grad).T
        g_sq = (-g_unit * e / (norms * norms)).sum(axis=1, keepdims=True) * 0.5 / norms
        return g_unit / norms + g_sq * e + g_sq * e

    return ad._make((per_anchor * picks).sum(keepdims=True), (embeddings,), lambda g: (pull(g),))


def infonce_loss(embeddings: Tensor, nu: float) -> Tensor:
    """Contrastive ablation: every allowed negative weighted equally."""
    return snce_loss(embeddings, uniform_pair_weights(embeddings.rows // 2), nu)


# ---------------------------------------------------------------------------
# ranking ablation
# ---------------------------------------------------------------------------

def ranking_loss(hazards: Tensor, taus, deltas, kappa: float = 0.1) -> Tensor:
    """Exponential pairwise penalty on wrongly ordered risks.

    For each acceptable pair (anchor had its event first), both risks are
    evaluated at the anchor's event bin and exp(-(r_i - r_j)/kappa) is
    averaged over the pairs, as one tape node (pullback in the module
    docstring). Zero with a warning when no pair is acceptable.
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

    # survival through log-space cumulative sums (an upper-triangular matmul)
    upper = np.triu(np.ones((n_bins, n_bins)))
    log_1mh, clamped, inside = ad.floored_log(1.0 - hazards.values)
    surv = np.exp(log_1mh @ upper)
    risk = 1.0 - surv
    at = (np.arange(n_bins)[None, :] == taus[:, None]).astype(np.float64)
    own = (risk * at).sum(axis=1, keepdims=True)  # r_i at tau_i
    cross = at @ risk.T  # [i, j] -> r_j at tau_i, a one-hot pick: exact in any summation order
    c = -1.0 / kappa
    terms = np.exp((own - cross) * c)
    pair_w = acceptable / n_pairs

    def pull(g):
        g_diff = g * pair_w * terms * c
        g_risk = g_diff.sum(axis=1, keepdims=True) * at
        g_risk += (at.T @ (g_diff * -1.0)).T
        g_log = (g_risk * -1.0 * surv) @ upper.T
        return g_log * inside / clamped * -1.0

    return ad._make((terms * pair_w).sum(keepdims=True), (hazards,), lambda g: (pull(g),))
