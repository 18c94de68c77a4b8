"""Two-phase mini-batch training.

Each batch is processed in two steps: first the auxiliary objective updates
the encoder together with the network it feeds (projection head for the
contrastive variants, hazard network for the ranking variant), then the
likelihood updates the encoder and hazard network. The auxiliary step is
skipped entirely when its coefficient is zero, which makes a zero-beta run
bit-identical to the likelihood-only variant.

Every random decision (batch order, corruption draws, validation views)
comes from independent streams spawned from one seed, so reruns reproduce
parameters exactly and corruption draws can never perturb batch order.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor
from .data import PreparedData, corrupt, iterate_batches
from .model import HazardModel

logger = logging.getLogger(__name__)

VARIANTS = ("nll", "nll+nce", "nll+rank", "nll+snce")


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; the message names the step and epoch."""


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 64
    lr_contrastive: float = 1e-3  # auxiliary-step learning rate
    lr_nll: float = 1e-3  # likelihood-step learning rate
    optimizer: str = "adam"
    beta: float = 1.0
    sigma: float = 0.75
    alpha: float = 0.0  # margin in discrete bins
    alpha_percentile: float | None = None  # overrides alpha when set
    nu: float = 0.07
    corruption_rate: float = 0.5
    ranking_kappa: float = 0.1
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr_contrastive <= 0 or self.lr_nll <= 0:
            raise ValueError("learning rates must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ValueError("corruption_rate must be in [0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "train_nll", "train_aux", "train_total", "val_nll", "val_aux", "val_total"]
            )
            for e in self.epochs:
                writer.writerow(
                    [e.epoch]
                    + [format(v, ".12g") for v in (e.train_nll, e.train_aux, e.train_total, e.val_nll, e.val_aux, e.val_total)]
                )


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class Adam:
    """Standard first/second-moment optimizer with bias correction."""

    def __init__(self, params: list[Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.values -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class Sgd:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            p.values -= self.lr * p.grad


def make_optimizer(kind: str, params: list[Tensor], lr: float):
    return Adam(params, lr) if kind == "adam" else Sgd(params, lr)


# ---------------------------------------------------------------------------
# losses and update steps
# ---------------------------------------------------------------------------

def _check_finite(value: float, step_name: str, epoch: int, batch_idx: int | None = None) -> float:
    if not np.isfinite(value):
        where = f"epoch {epoch}" if batch_idx is None else f"epoch {epoch}, batch {batch_idx}"
        raise TrainingDiverged(f"non-finite {step_name} loss at {where}")
    return value


def aux_loss(model, x, views, tau, delta, variant: str, config: TrainConfig, alpha: float) -> Tensor:
    """The auxiliary objective of ``variant`` on records ``x`` (unscaled).

    ``nll+rank`` scores the records' hazards; the contrastive variants embed
    the records stacked over their corrupted ``views``, with uniform
    (``nll+nce``) or outcome-weighted (``nll+snce``) negatives.
    """
    if variant == "nll+rank":
        hazards = model.hazard(model.encode(Tensor(x)))
        return losses.ranking_loss(hazards, tau, delta, config.ranking_kappa)
    emb = model.project(model.encode(Tensor(np.vstack([x, views]))))
    if variant == "nll+nce":
        pw = losses.uniform_pair_weights(x.shape[0])
    else:
        pw = losses.build_pair_weights(tau, delta, config.sigma, alpha)
    return losses.snce_loss(emb, pw, config.nu)


def _aux_step(model, batch, config: TrainConfig, optimizer, variant: str, alpha: float) -> float:
    # the optimized objective carries the balance factor; the returned value
    # is the unscaled loss for logging
    raw = aux_loss(model, batch.x, batch.x_view, batch.tau, batch.delta, variant, config, alpha)
    ad.zero_grads(model.all_params())
    ad.backward(ad.scale(raw, config.beta))
    optimizer.step()
    return raw.item()


# The two auxiliary steps differ only in the networks their optimizer holds;
# they stay separate functions so that the benchmark's tracer
# (perfbench/tracing.py) times each under its own name.
def contrastive_step(model, batch, config: TrainConfig, optimizer, variant: str, alpha: float) -> float:
    """Auxiliary step on encoder + projection head; hazard net untouched."""
    return _aux_step(model, batch, config, optimizer, variant, alpha)


def ranking_step(model, batch, config: TrainConfig, optimizer) -> float:
    """Auxiliary step on encoder + hazard network (risk-ordering penalty)."""
    return _aux_step(model, batch, config, optimizer, "nll+rank", config.alpha)


def likelihood_step(model, batch, optimizer) -> float:
    """Likelihood step on encoder + hazard network; projection untouched."""
    hazards = model.hazard(model.encode(Tensor(batch.x)))
    loss = losses.nll_loss(hazards, batch.tau, batch.delta)
    ad.zero_grads(model.all_params())
    ad.backward(loss)
    optimizer.step()
    return loss.item()


# ---------------------------------------------------------------------------
# evaluation passes (no parameter updates)
# ---------------------------------------------------------------------------

def _split_nll(model, x, tau, delta) -> float:
    hazards = model.hazard(model.encode(Tensor(x)))
    return losses.nll_loss(hazards, tau, delta).item()


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

    ss = np.random.SeedSequence(config.seed)
    batch_rng, corrupt_rng, val_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    train_idx = data.split.train
    val_idx = data.split.validation
    tr_tau, tr_delta = data.tau[train_idx], data.delta[train_idx]

    alpha = config.alpha
    if config.alpha_percentile is not None:
        alpha = losses.resolve_alpha_percentile(tr_tau, tr_delta, config.alpha_percentile)
        logger.info("alpha percentile %.1f resolved to %.3f bins", config.alpha_percentile, alpha)

    aux_active = config.beta > 0 and variant != "nll"
    opt_like = make_optimizer(config.optimizer, model.encoder_params() + model.hazard_params(), config.lr_nll)
    opt_aux = None
    if aux_active:
        if variant == "nll+rank":
            aux_params = model.encoder_params() + model.hazard_params()
        else:
            aux_params = model.encoder_params() + model.projection_params()
        opt_aux = make_optimizer(config.optimizer, aux_params, config.lr_contrastive)

    val_x, val_tau, val_delta = data.subset(val_idx)
    # one fixed corruption of the validation set keeps the early-stopping
    # signal deterministic and comparable across epochs
    val_views = corrupt(val_x, data.train_marginals, config.corruption_rate, val_rng)
    val_aux_active = variant != "nll" and val_x.shape[0] >= 2

    log = TrainLog(variant=variant, alpha_resolved=alpha)
    best_total = np.inf
    best_snapshot = model.snapshot()
    best_epoch = -1
    stale = 0
    started = time.perf_counter()

    for epoch in range(config.epochs):
        aux_sum, nll_sum, n_batches = 0.0, 0.0, 0
        for k, batch in enumerate(
            iterate_batches(data, train_idx, config.batch_size, batch_rng, corrupt_rng, config.corruption_rate)
        ):
            if aux_active:
                if variant == "nll+rank":
                    aux_val = ranking_step(model, batch, config, opt_aux)
                else:
                    aux_val = contrastive_step(model, batch, config, opt_aux, variant, alpha)
                aux_sum += _check_finite(aux_val, "auxiliary", epoch, k)
            nll_sum += _check_finite(likelihood_step(model, batch, opt_like), "likelihood", epoch, k)
            n_batches += 1

        val_nll = _check_finite(_split_nll(model, val_x, val_tau, val_delta), "validation", epoch)
        val_aux = 0.0
        if val_aux_active:
            # keep only the float: a kept Tensor would pin the validation graph through the next epoch
            val_aux = aux_loss(model, val_x, val_views, val_tau, val_delta, variant, config, alpha).item()
            _check_finite(val_aux, "validation", epoch)
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
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.restore(best_snapshot)
    log.best_epoch = best_epoch
    log.wall_time = time.perf_counter() - started
    return model, log


# The benchmark's tracer (perfbench/tracing.py) still wraps this name.
train_variant = train
