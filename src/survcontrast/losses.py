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
diagonal (self and own-view pairs) zeroed, repeated 2 x 2. A pair's weight
depends only on the two records' (time, event) classes, so
``build_pair_weights`` evaluates the comparability rule and the kernel once
per pair of the batch's K classes (K <= 2T for T time bins, and K <= M) and
keeps the K x K tables with each record's class. Pair weights take that one
form: uniform weights are one class whose 1 x 1 tables hold 1, and an
arbitrary block is the tables of M classes of one record each. Training
never builds the block: ``PairWeightMatrix`` gathers it only when
``weights`` or ``indicators`` is read. ``snce_loss`` works per class, and
itself keeps a record from being a negative of itself or of its own view,
whatever its class's self weight. Each class's weight sum is taken over its
table row gathered to the records and laid twice end to end, the order of a
2M-long row of the block, because numpy's pairwise summation rounds
``2 * rowsum(block)`` differently, and twice the class's self weight is
taken away. That gives the bits of the block's row, own lanes zeroed,
whenever every self weight is 0 or every weight is an integer: outcome
tables have self weight ``w(t, t) = 0``, a block has its diagonal zeroed,
and uniform weights are 1. The log of the table is taken once, and each used
record's row of it is gathered, its own lanes masked, and added into the
four quadrants of the logits in place.

``nll_loss`` is one tape node. With ``g_pmf = -g delta / M`` and
``g_1mh = g_pmf [t < tau] + (-g (1 - delta) / M) [t <= tau]``, it pulls ``g``
back to the hazards as ``g_pmf [t = tau] in_h / clamp_h - g_1mh in_1mh / clamp_1mh``,
where ``clamp`` is the floored log argument and ``in`` marks where the floor
was not active.

``snce_loss`` is one tape node. With ``u = e / |e|``, anchor picks ``p`` and
``P`` the row softmax of ``u u^T / nu + log w``, it pulls ``g`` back as
``G = g p P`` less ``g p_i`` at (i, partner(i)), ``U = (G / nu) u + ((G / nu)^T u)``,
``de = U / |e| + 2 e rowsum(-U e / |e|^2) * 0.5 / |e|``, in the op order of the test oracle.
An anchor whose record's block row is all zero has no usable negative: its
pick is 0, its term ``log 0 * 0 = -1e30 * 0 = -0.0`` and its row of ``G`` zero,
so its row of the logits is never computed. ``S`` is formed in full, since a
row subset of the product takes other BLAS paths and other bits; the rows of
the k anchors with a negative are gathered from it, and the log weights are
gathered for their records alone. Where the table has a zero weight, its
lanes hold not ``-1e30``, whose exp underflows and leaves numpy's fast path,
but ``log(min w) - 2 / nu - 4``, which lies below the row's max as ``|S| <=
1 + ulps``; its exp is then multiplied by 0, which gives the same +0.0.
Where that floor would lie below ``FINITE_LANE_FLOOR``, or where no table
weight is zero (uniform weights, which mask only the two own lanes a row),
the lanes keep ``-1e30``. The pullback forms those k rows of ``G``, a block of
rows at a time, and scatters them into a zeroed 2M x 2M ``G``, so both of
its products keep their shapes. When every anchor
has a negative (uniform weights, or a batch of events) nothing is gathered or
scattered. The large arrays live in two reused buffers of the calling
thread, so a step does not fault in fresh pages: ``logits`` holds the
anchors' rows of ``S``, then ``S + log w`` and its exp, which the pullback
keeps, in its first k rows (all of ``S``, formed in place, when k = 2M);
``scratch`` holds what dies inside one call: the classes' weight rows laid
twice for the weight sums, the full ``S`` while its rows are gathered, the
records' ``log w`` and its 0/1 mask, and the pullback's ``G``. While a view
of a buffer is alive, as the logits of a graph not yet differentiated are, a
fresh one is handed out, so the arithmetic and its bits are those of fresh
arrays. ``trainer.train`` calls :func:`release_buffers` when it returns.

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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

logger = logging.getLogger(__name__)

MASKED_LOG = -1e30  # stands in for log(0) without producing inf*0 NaNs
FINITE_LANE_FLOOR = -1e10  # lowest finite masked logit: above it the rounding of S / nu stays far below 1
NORM_EPS = 1e-30  # guards row normalization against an exactly-zero embedding
PULLBACK_BLOCK = 32768  # entries of G (256 KB) formed at a time before they are scattered into the gradient

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


def _zero_diagonal(block: np.ndarray) -> np.ndarray:
    """``block``, its diagonal set to 0 in place: a record against itself or its own view."""
    np.fill_diagonal(block, 0)
    return block


class PairWeightMatrix:
    """Comparability indicators and negative weights of M records, as K x K
    tables over the records' classes.

    Record i is of class ``classes[i]``, and every class holds a record.
    Entry (i, j) of the M x M block, which holds for every anchor and
    negative copy of records i and j (original or view), is entry
    ``(classes[i], classes[j])`` of a table, except on the diagonal: a
    record is never a negative of itself or of its own view, whatever its
    class's self entry holds. The batch's 2M x 2M weights are the block
    repeated 2 x 2. ``indicators`` and ``weights`` read as the blocks,
    diagonal zeroed, gathered on each read. A block passed without
    ``classes``, or assigned to ``weights``, becomes M classes of one record
    each, its diagonal zeroed.
    """

    def __init__(self, indicators: np.ndarray, weights: np.ndarray, classes: np.ndarray | None = None):
        if classes is None:  # an M x M block: each record its own class
            indicators, weights = _zero_diagonal(np.array(indicators)), _zero_diagonal(np.array(weights))
            classes = np.arange(len(weights))
        self.indicator_table = indicators
        self.weight_table = weights
        self.classes = classes

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the M x M block, or of a block that is not square."""
        rows, cols = self.weight_table.shape
        return (self.classes.size,) * 2 if rows == cols else (rows, cols)

    @property
    def indicators(self) -> np.ndarray:
        return _zero_diagonal(self.indicator_table[self.classes][:, self.classes])

    @property
    def weights(self) -> np.ndarray:
        return _zero_diagonal(self.weight_table[self.classes][:, self.classes])

    @weights.setter
    def weights(self, block: np.ndarray) -> None:
        self.__init__(self.indicators, block)


def build_pair_weights(taus, deltas, sigma: float, alpha: float = 0.0) -> PairWeightMatrix:
    """Pairwise weights for a batch of M records and their M views.

    A pair's indicator and weight depend only on the two records' classes,
    (time, event), so both are evaluated once per pair of the batch's
    distinct classes, with the elementwise arithmetic and so the bits of
    the M x M expression, and kept as K x K tables.
    """
    taus = np.asarray(taus, dtype=np.float64)
    deltas = np.asarray(deltas)
    if taus.ndim != 1 or taus.shape != deltas.shape:
        raise ValueError("taus and deltas must be matching 1-D arrays")
    times, time_of = np.unique(taus, return_inverse=True)
    code = 2 * time_of + (deltas == 1)  # code 2t + 1 is an event at the t-th distinct time
    seen = np.zeros(2 * times.size, dtype=bool)
    seen[code] = True
    present = np.flatnonzero(seen)  # the codes of the batch's classes, so that K <= M
    class_tau = times[present // 2][:, None]
    class_delta = present[:, None] % 2
    ind_table = comparability(class_delta, class_delta.T, class_tau, class_tau.T, alpha)
    w_table = weight(class_tau, class_tau.T, sigma)
    w_table *= ind_table  # a class against itself weighs weight(t, t) = 0: the block's diagonal is zero
    return PairWeightMatrix(ind_table, w_table, classes=np.cumsum(seen)[code] - 1)


def uniform_pair_weights(m: int) -> PairWeightMatrix:
    """Every structurally allowed pair weighted 1 (no outcome information):
    the M records are one class whose 1 x 1 tables hold 1."""
    return PairWeightMatrix(np.ones((1, 1), dtype=np.int64), np.ones((1, 1)), classes=np.zeros(m, dtype=np.intp))


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
    the loss is zero. An anchor's own record, original or view, is never its
    negative, whatever its class's self weight. ``pair_weights`` holds the M
    records of the 2M embeddings; another size, or negative or non-finite
    weights, raise ValueError. The weight sums keep the bits of the block's
    rows when every self weight is 0 or every weight an integer (module
    docstring), as for the weights this module builds.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    n = embeddings.rows
    if n < 4 or n % 2 != 0:
        raise ValueError("need an even number of embeddings covering at least 2 records")
    m = n // 2
    if pair_weights.shape != (m, m):
        raise ValueError(f"pair weights {pair_weights.shape} do not match {n} embeddings: "
                         f"expected the ({m}, {m}) record block")
    table, classes = pair_weights.weight_table, pair_weights.classes
    # a row of the 2M x 2M weights is its class's table row gathered over the records, twice,
    # summed in that order: 2 * w.sum(axis=1) splits numpy's pairwise sum elsewhere and rounds
    # differently. Laid out in the first rows of an M x 2M view, so the buffer does not regrow.
    # Taking away the two own lanes' self weight after the sum keeps the bits of the row whose
    # own lanes are 0 when that weight is 0 (outcome tables, blocks) or every weight an integer
    class_sums = np.concatenate([table[:, classes]] * 2, axis=1,
                                out=_workspace("scratch", m, n)[:len(table)]).sum(axis=1, keepdims=True)
    class_sums -= 2 * np.diag(table)[:, None]
    if not (table.min() >= 0 and np.isfinite(class_sums).all()):
        raise ValueError("pair weights must be finite and non-negative")

    # the records of a class with a usable negative: they and their views are the k anchors
    # that contribute, and only their rows of the logits are computed
    used = (class_sums[:, 0] > 0)[classes]
    records = np.flatnonzero(used)
    record_classes = classes[records]
    anchors = np.concatenate([records, records + m])
    k = anchors.size
    if k == 0:
        logger.warning("snce_loss: no comparable pairs in batch, returning zero loss")
        return ad.constant([[0.0]])

    pick = 1.0 / k
    e = embeddings.values
    norms = np.sqrt((e * e).sum(axis=1, keepdims=True) + NORM_EPS)
    unit = e / norms
    unit_t = unit.T.copy()  # unit @ unit.T and grad @ unit would take other BLAS paths and other bits
    # S in full, as a row subset of the product takes other BLAS paths and other bits;
    # the anchors' rows, gathered into the first k rows of ``logits`` (so the buffer
    # does not regrow as k varies per batch), become S + log w and its exp, kept by the pullback
    z = np.matmul(unit, unit_t, out=_workspace("logits" if k == n else "scratch", n, n))
    if k < n:
        z = np.take(z, anchors, axis=0, out=_workspace("logits", n, n)[:k], mode="clip")
    z *= 1.0 / nu
    partners = (anchors + m) % n
    pos = z[np.arange(k), partners][:, None]
    # each used record's row of log w, gathered from the log of the table, taken once, with
    # log 0 standing in as MASKED_LOG. exp leaves its fast path on lanes that underflow, as
    # MASKED_LOG's do, so where the table has a zero a masked lane holds a finite log that is
    # never its row's max, and its exp is multiplied by 0: log(min w) - 2 / nu - 4 is 4 below
    # any weighted lane as |S| <= 1 + ulps
    log_w, mask = _workspace("scratch", k, m).reshape(2, k // 2, m)
    positive = table > 0
    log_table = np.log(table, out=np.full(table.shape, MASKED_LOG), where=positive)
    floor = log_table[positive].min() - 2 / nu - 4
    masked = floor if floor > FINITE_LANE_FLOOR and not positive.all() else MASKED_LOG
    log_table[~positive] = masked
    np.take(log_table[record_classes], classes, axis=1, out=log_w, mode="clip")
    log_w[np.arange(k // 2), records] = masked  # a record is never a negative of itself or of its own view
    finite_lanes = masked > MASKED_LOG
    if finite_lanes:
        np.greater(log_w, masked, out=mask)  # a weighted lane's log is above the floor
    quadrants = z.reshape(2, k // 2, 2, m)
    np.add(quadrants, log_w[None, :, None, :], out=quadrants)  # S + log w, the block in each quadrant
    top = z.max(axis=1, keepdims=True)
    ex = np.exp(np.subtract(z, top, out=z), out=z)
    if finite_lanes:
        np.multiply(quadrants, mask[None, :, None, :], out=quadrants)  # +0.0, as exp(MASKED_LOG) gives
    s = ex.sum(axis=1, keepdims=True)
    log_sum_w = np.tile(np.log(class_sums[record_classes]), (2, 1))  # of the weighted-mean denominator
    terms = ((top + np.log(s) - log_sum_w) - pos) * pick
    if k < n:
        # summed over all 2M anchors, as the bits of numpy's pairwise sum depend on the count;
        # a skipped anchor's term is log 0 times its pick of 0: -1e30 * 0 = -0.0
        terms, kept = np.full((n, 1), -0.0), terms
        terms[anchors] = kept

    def pull(g):
        gp = g * pick
        # both products take G in full; with every anchor used it is formed in place,
        # else the anchors' rows are formed a block at a time and scattered
        grad = _workspace("scratch", n, n)
        block = grad if k == n else np.empty((min(k, max(PULLBACK_BLOCK // n, 1)), n))
        for lo in range(0, k, len(block)):
            hi = min(lo + len(block), k)
            part = np.divide(ex[lo:hi], s[lo:hi], out=block[:hi - lo])
            part *= gp
            part[np.arange(hi - lo), partners[lo:hi]] -= gp[0, 0]
            part *= 1.0 / nu
            if k < n:
                grad[anchors[lo:hi]] = part
        if k < n:
            grad.reshape(2, m, n)[:, ~used] = 0.0
        g_unit = grad @ unit_t.T + (unit.T @ grad).T
        g_sq = (-g_unit * e / (norms * norms)).sum(axis=1, keepdims=True) * 0.5 / norms
        return g_unit / norms + g_sq * e + g_sq * e

    return ad._make(terms.sum(keepdims=True), (embeddings,), lambda g: (pull(g),))


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
