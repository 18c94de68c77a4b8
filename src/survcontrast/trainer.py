"""Two-phase mini-batch training.

Each batch is processed in two steps: first the auxiliary objective updates
the encoder together with the network it feeds, then the likelihood updates
the encoder and hazard network. One table, ``AUX_NETWORK``, picks each
variant's auxiliary objective by naming that network: ``"projection"`` for
the contrastive variants, whose loss embeds each record beside its corrupted
view, ``"hazard"`` for the ranking penalty, which scores the hazards, and
``None`` for the likelihood alone. ``train`` reads it for the auxiliary
optimizer's slice, whether corrupted views are drawn, whether validation
scores the auxiliary loss and which step runs; :func:`pair_weights` alone
tells uniform from outcome-weighted negatives. The auxiliary step is
skipped entirely when its coefficient is zero, which makes a zero-beta run
bit-identical to the likelihood-only variant. Validation is one ``Batch``
with fixed views, scored by the steps' own forward and losses. A step
computes its loss's gradient and ``train`` then applies the optimizer's
update, as a stage of its own. Each stage (a gradient, an update, a
validation loss and the validation setup) runs under one guard, with numpy
raising on overflow, division by zero and invalid values, so a diverging run
stops with a ``TrainingDiverged`` naming its stage.

Every random decision (batch order, corruption draws, validation views)
comes from independent streams spawned from one seed, so reruns reproduce
parameters exactly and corruption draws can never perturb batch order.
"""

from __future__ import annotations

import logging
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor
from .data import (Batch, DataError, PreparedData, at_least, check_fields, corrupt, iterate_batches, non_negative,
                   one_of, positive, within, write_csv)
from .model import HazardModel

logger = logging.getLogger(__name__)

# the network each variant's auxiliary step trains together with the encoder
AUX_NETWORK = {"nll": None, "nll+nce": "projection", "nll+rank": "hazard", "nll+snce": "projection"}
VARIANTS = tuple(AUX_NETWORK)


class TrainingDiverged(RuntimeError):
    """A loss or the optimizer state became non-finite; the message names the step or batch, and the epoch."""


@dataclass
class TrainConfig:
    epochs: int = at_least(1, 500)
    batch_size: int = at_least(2, 64)
    lr_contrastive: float = positive(1e-3)  # auxiliary-step learning rate
    lr_nll: float = positive(1e-3)  # likelihood-step learning rate
    optimizer: str = one_of(lambda: ("adam", "sgd"), "adam")
    beta: float = non_negative(1.0)
    sigma: float = positive(0.75)
    alpha: float = non_negative(0.0)  # margin in discrete bins
    alpha_percentile: float | None = within(0, 100, None)  # overrides alpha when set
    nu: float = positive(0.07)
    corruption_rate: float = within(0, 1, 0.5)
    ranking_kappa: float = positive(0.1)
    patience: int = at_least(1, 10)
    seed: int = non_negative(0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class EpochStats:
    epoch: int
    train_nll: float
    train_aux: float
    train_total: float
    val_nll: float
    val_aux: float
    val_total: float


@dataclass
class TrainLog:
    variant: str
    alpha_resolved: float
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    wall_time: float = 0.0

    def to_csv(self, path) -> None:
        write_csv(path, [f.name for f in fields(EpochStats)], map(astuple, self.epochs))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class Adam:
    """Standard first/second-moment optimizer with bias correction.

    ``param`` is one tensor, in training the :meth:`HazardModel.trainable`
    slice of a model's flat buffer, so a step is one vectorized update.
    """

    def __init__(self, param: Tensor, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.param = param
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(param.values)
        self.v = np.zeros_like(param.values)
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        g, m, v = self.param.grad, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g  # an inf moment would freeze its coordinates; train stops on it
        self.param.values -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class Sgd:
    def __init__(self, param: Tensor, lr: float):
        self.param = param
        self.lr = lr

    def step(self) -> None:
        self.param.values -= self.lr * self.param.grad


def make_optimizer(kind: str, param: Tensor, lr: float):
    return Adam(param, lr) if kind == "adam" else Sgd(param, lr)


# ---------------------------------------------------------------------------
# losses and gradient steps
# ---------------------------------------------------------------------------

def _guarded(stage: str, where: str, run, *args):
    """``run(*args)`` with numpy raising on overflow, division by zero and
    invalid values. Such a fault, or a non-finite float result, is a
    ``TrainingDiverged`` naming ``stage`` and ``where``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value = run(*args)
    except FloatingPointError as exc:
        raise TrainingDiverged(f"non-finite {stage} at {where} ({exc})") from None
    if isinstance(value, float) and not np.isfinite(value):
        raise TrainingDiverged(f"non-finite {stage} at {where} (value {value})")
    return value


def hazards(model, batch: Batch) -> Tensor:
    """The hazard network's output on the batch's records."""
    return model.hazard(model.encode(Tensor(batch.x)))


def pair_weights(batch: Batch, variant: str, config: TrainConfig, alpha: float) -> losses.PairWeightMatrix:
    """Uniform (``nll+nce``) or outcome-weighted (``nll+snce``) negative weights.

    The M x M record block: ``snce_loss`` broadcasts its log into the four
    quadrants of the 2M x 2M logits, so no 2M x 2M weights are built.
    """
    if variant == "nll+nce":
        return losses.uniform_pair_weights(batch.size)
    return losses.build_pair_weights(batch.tau, batch.delta, config.sigma, alpha)


def aux_loss(model, batch: Batch, variant: str, config: TrainConfig, alpha: float, weights=None) -> Tensor:
    """The auxiliary objective of ``variant`` on ``batch`` (unscaled).

    The ranking penalty scores the records' hazards; the contrastive losses
    embed the records stacked over their corrupted views and weight the
    negatives by ``weights``, built by :func:`pair_weights` when not given.
    """
    if AUX_NETWORK[variant] == "hazard":
        return losses.ranking_loss(hazards(model, batch), batch.tau, batch.delta, config.ranking_kappa)
    weights = pair_weights(batch, variant, config, alpha) if weights is None else weights
    emb = model.project(model.encode(Tensor(np.vstack([batch.x, batch.x_view]))))
    return losses.snce_loss(emb, weights, config.nu)


def _aux_step(model, batch: Batch, config: TrainConfig, variant: str, alpha: float) -> float:
    # the back-propagated objective carries the balance factor; the returned
    # value is the unscaled loss for logging
    raw = aux_loss(model, batch, variant, config, alpha)
    ad.zero_grads([model.params])
    ad.backward(ad.scale(raw, config.beta))
    return raw.item()


# The two auxiliary steps take one signature and one body, and differ only in
# the network their loss reaches; they stay separate functions so that the
# benchmark's tracer (perfbench/tracing.py) times each under its own name. The
# tracer sees only the process it is installed in, so not the runs that a
# command trains in worker processes (cli.run_all); those it times on one
# usable CPU (``taskset -c 0``).
def contrastive_step(model, batch: Batch, config: TrainConfig, variant: str, alpha: float) -> float:
    """Auxiliary gradient on encoder + projection head; hazard net's is zero."""
    return _aux_step(model, batch, config, variant, alpha)


def ranking_step(model, batch: Batch, config: TrainConfig, variant: str, alpha: float) -> float:
    """Auxiliary gradient on encoder + hazard network (risk-ordering penalty)."""
    return _aux_step(model, batch, config, variant, alpha)


def likelihood_step(model, batch: Batch) -> float:
    """Likelihood gradient on encoder + hazard network; projection's is zero."""
    loss = losses.nll_loss(hazards(model, batch), batch.tau, batch.delta)
    ad.zero_grads([model.params])
    ad.backward(loss)
    return loss.item()


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def train(
    data: PreparedData,
    model: HazardModel,
    config: TrainConfig,
    variant: str = "nll+snce",
) -> tuple[HazardModel, TrainLog]:
    """Train ``model`` in place and return it at its best-validation state."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if data.split.validation.size == 0:
        # early stopping has nothing to score on; the loss would fail on an empty batch
        raise DataError(f"the validation split is empty (train, test, validation sizes {data.split.sizes()}); "
                        "the dataset needs more rows")

    network = AUX_NETWORK[variant]
    views = network == "projection"  # only the contrastive losses read corrupted views
    ss = np.random.SeedSequence(config.seed)
    batch_rng, corrupt_rng, val_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    train_idx = data.split.train

    def setup():
        alpha = config.alpha
        if config.alpha_percentile is not None:
            alpha = losses.resolve_alpha_percentile(data.tau[train_idx], data.delta[train_idx],
                                                    config.alpha_percentile)
            logger.info("alpha percentile %.1f resolved to %.3f bins", config.alpha_percentile, alpha)
        # one fixed corruption of the validation set keeps the early-stopping
        # signal deterministic and comparable across epochs; the view rngs feed
        # nothing else, so skipping the views changes no other draw
        val_idx = data.split.validation
        val = Batch(val_idx, data.x[val_idx], None, data.tau[val_idx], data.delta[val_idx])
        if views:
            val.x_view = corrupt(val.x, data.train_marginals, config.corruption_rate, val_rng)
        return alpha, val, pair_weights(val, variant, config, alpha) if views else None

    alpha, val, val_weights = _guarded("value", "validation setup", setup)

    opt_like = make_optimizer(config.optimizer, model.trainable("hazard"), config.lr_nll)
    opt_aux = None
    if network is not None and config.beta > 0:
        opt_aux = make_optimizer(config.optimizer, model.trainable(network), config.lr_contrastive)
    # looked up here, not at import, so a tracer's wrappers are the ones called
    aux_step = ranking_step if network == "hazard" else contrastive_step

    log = TrainLog(variant=variant, alpha_resolved=alpha)
    best_total = np.inf
    best_snapshot = model.snapshot()
    started = time.perf_counter()

    for epoch in range(config.epochs):
        aux_sum, nll_sum, n_batches = 0.0, 0.0, 0
        batches = iterate_batches(data, train_idx, config.batch_size, batch_rng, corrupt_rng if views else None,
                                  config.corruption_rate)
        for k, batch in enumerate(batches):
            where = f"epoch {epoch}, batch {k}"
            if opt_aux is not None:
                aux_sum += _guarded("auxiliary loss", where, aux_step, model, batch, config, variant, alpha)
                _guarded("optimizer state", where, opt_aux.step)
            nll_sum += _guarded("likelihood loss", where, likelihood_step, model, batch)
            _guarded("optimizer state", where, opt_like.step)
            n_batches += 1

        where = f"epoch {epoch}"
        # each keeps only the float: a kept Tensor would pin the validation graph through the next epoch
        val_nll = _guarded("validation loss", where,
                           lambda: losses.nll_loss(hazards(model, val), val.tau, val.delta).item())
        val_aux = 0.0
        if network is not None and val.size >= 2:
            val_aux = _guarded("validation loss", where,
                               lambda: aux_loss(model, val, variant, config, alpha, val_weights).item())
        val_total = val_nll + config.beta * val_aux
        train_nll = nll_sum / max(n_batches, 1)
        train_aux = aux_sum / max(n_batches, 1)
        log.epochs.append(
            EpochStats(
                epoch=epoch,
                train_nll=train_nll,
                train_aux=train_aux,
                train_total=train_nll + config.beta * train_aux,
                val_nll=val_nll,
                val_aux=val_aux,
                val_total=val_total,
            )
        )

        if val_total < best_total:
            best_total = val_total
            best_snapshot = model.snapshot()
            log.best_epoch = epoch
        elif epoch - log.best_epoch >= config.patience:
            break

    model.restore(best_snapshot)
    losses.release_buffers()  # else the process keeps the largest n x n pair this run used
    log.wall_time = time.perf_counter() - started
    return model, log


# The benchmark's tracer (perfbench/tracing.py) still wraps this name.
train_variant = train
