"""Hazard model: encoder, projection head, and hazard network.

The encoder maps features to a latent vector ``h``, the projection head maps
``h`` into the embedding space used by the contrastive losses, and the
hazard network emits one logit per discrete time bin; a sigmoid turns those
logits into per-bin hazards. Emitting all ``t_max + 1`` logits in a single
head is equivalent to querying a (latent, t) network at every t on a finite
grid, and gives the whole hazard curve in one forward pass.

Prediction-side conversions (survival / pmf / risk) are plain numpy; the
differentiable versions used in training live in :mod:`survcontrast.losses`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DataError, check_field_types

# the per-layer ops by name; Mlp applies their math (ACTIVATION_PARTS) inside its one node
ACTIVATIONS = {"relu": ad.relu, "sigmoid": ad.sigmoid}
ACTIVATION_PARTS = {"relu": ad.relu_parts, "sigmoid": ad.sigmoid_parts}


@dataclass
class MlpConfig:
    input_dim: int
    hidden_dim: int
    depth: int  # number of weight matrices, including the output layer
    output_dim: int
    activation: str = "relu"

    def __post_init__(self):
        check_field_types(self)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        for name in ("input_dim", "hidden_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim] + [self.hidden_dim] * (self.depth - 1) + [self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class ModelConfig:
    """Shapes and activations for the three networks."""

    input_dim: int
    n_time_bins: int  # t_max + 1 hazard outputs
    hidden_dim: int = 32
    depth: int = 3
    embedding_dim: int = 16
    projection_depth: int = 2
    activation: str = "relu"

    def __post_init__(self):
        check_field_types(self)
        for network in (self.encoder, self.projection, self.hazard_net):
            network()  # MlpConfig checks the network's shape

    def encoder(self) -> MlpConfig:
        return MlpConfig(self.input_dim, self.hidden_dim, self.depth, self.hidden_dim, self.activation)

    def projection(self) -> MlpConfig:
        return MlpConfig(self.hidden_dim, self.hidden_dim, self.projection_depth, self.embedding_dim, self.activation)

    def hazard_net(self) -> MlpConfig:
        return MlpConfig(self.hidden_dim, self.hidden_dim, self.depth, self.n_time_bins, self.activation)


class Mlp:
    """Stack of linear layers with the configured activation between them.

    The layers' weights and biases are views into one 1 x n leaf, ``flat``,
    laid out ``w0 b0 w1 b1 ...``; a forward pass is one tape node whose
    parents are the input and ``flat``.
    """

    def __init__(self, config: MlpConfig, params: list[tuple[Tensor, Tensor]]):
        self.config = config
        self.layers = params  # [(weights in_dim x out_dim, bias 1 x out_dim), ...]
        values = np.concatenate([p.values.reshape(-1) for p in self.parameters()])[None, :]
        self.bind(values, np.zeros_like(values))

    @classmethod
    def init(cls, config: MlpConfig, rng: np.random.Generator) -> "Mlp":
        # He fan-in scaling, zero biases.
        params = []
        for fan_in, fan_out in config.layer_dims():
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            params.append((Tensor(w, requires_grad=True), Tensor(np.zeros((1, fan_out)), requires_grad=True)))
        return cls(config, params)

    def bind(self, values: np.ndarray, grad: np.ndarray) -> None:
        """Make ``flat`` the 1 x n arrays ``values`` and ``grad`` (views kept)
        and every layer's ``w``/``b`` a view into them."""
        self.flat = Tensor(values)
        self.flat.requires_grad = True
        self.flat.grad = grad
        start = 0
        for p in self.parameters():
            stop = start + p.values.size
            p.values = values[0, start:stop].reshape(p.shape)
            p.grad = grad[0, start:stop].reshape(p.shape)
            start = stop

    def __call__(self, x: Tensor) -> Tensor:
        """The network as one node. Its pullback walks the layers in reverse
        with the per-layer formulas: the activation's local gradient, then
        ``x^T g`` and ``colsum(g)`` for the layer's ``w`` and ``b``, and
        ``g w^T`` for its input (skipped at an untracked network input)."""
        if x.cols != self.config.input_dim:
            raise ad.ShapeError(f"expected {self.config.input_dim} input columns, got {x.cols}")
        act = ACTIVATION_PARTS[self.config.activation]
        last = len(self.layers) - 1
        inputs, act_pulls = [], []
        h = x.values
        for i, (w, b) in enumerate(self.layers):
            inputs.append(h)
            h = h @ w.values + b.values
            if i != last:
                h, pull = act(h)
                act_pulls.append(pull)
        need_x = x.requires_grad

        def pull_all(g):
            parts = []
            for i in range(last, -1, -1):
                if i != last:
                    g = act_pulls[i](g)
                parts += [g.sum(axis=0, keepdims=True), inputs[i].T @ g]
                g = g @ self.layers[i][0].values.T if i or need_x else None
            return g, np.concatenate([p.reshape(1, -1) for p in reversed(parts)], axis=1)

        return ad._make(h, (x, self.flat), pull_all)

    def parameters(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]


class HazardModel:
    """Encoder + projection head + hazard network with shared latent space.

    All parameters live in one flat buffer, laid out ``projection | encoder |
    hazard``, and every leaf's ``values`` and ``grad`` (each network's
    ``flat`` and its layers' ``w``/``b``) are views into it and into its
    gradient twin. So the encoder with either head is one
    contiguous slice (:meth:`trainable`), which an optimizer updates in one
    vectorized step.
    """

    def __init__(self, config: ModelConfig, encoder: Mlp, projection: Mlp, hazard_net: Mlp, seed: int):
        self.config = config
        self.encoder = encoder
        self.projection = projection
        self.hazard_net = hazard_net
        self.seed = seed
        nets = (projection, encoder, hazard_net)
        self.params = Tensor(np.concatenate([net.flat.values for net in nets], axis=1), requires_grad=True)
        sizes = [net.flat.cols for net in nets]
        start = 0
        for net, size in zip(nets, sizes):
            net.bind(self.params.values[:, start : start + size], self.params.grad[:, start : start + size])
            start += size
        self._heads = {"projection": slice(0, sum(sizes[:2])), "hazard": slice(sizes[0], start)}

    def encode(self, x: Tensor) -> Tensor:
        if x.cols != self.config.input_dim:
            raise ad.ShapeError(f"expected {self.config.input_dim} features, got {x.cols}")
        return self.encoder(x)

    def project(self, h: Tensor) -> Tensor:
        return self.projection(h)

    def hazard(self, h: Tensor) -> Tensor:
        """Per-bin hazards in (0, 1), one column per time bin."""
        return ad.sigmoid(self.hazard_net(h))

    def hazard_curve(self, x: np.ndarray) -> np.ndarray:
        """Predicted hazards for a feature matrix, as a plain array."""
        return self.hazard(self.encode(Tensor(np.atleast_2d(x)))).values

    def embed(self, x: np.ndarray) -> np.ndarray:
        return self.project(self.encode(Tensor(np.atleast_2d(x)))).values

    # -- parameter access -------------------------------------------------

    def all_params(self) -> list[Tensor]:
        return self.encoder.parameters() + self.projection.parameters() + self.hazard_net.parameters()

    def trainable(self, head: str) -> Tensor:
        """The encoder and ``head`` ("projection" or "hazard") as one tensor
        whose ``values`` and ``grad`` are a contiguous slice of the buffer."""
        cols = self._heads[head]
        part = Tensor(self.params.values[:, cols], requires_grad=True)
        part.grad = self.params.grad[:, cols]
        return part

    def snapshot(self) -> np.ndarray:
        return self.params.values.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        self.params.values[...] = snapshot

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write ``{"config", "seed", "params"}`` as JSON; ``params`` is the
        buffer as one flat list, in the layout of :meth:`snapshot`."""
        payload = {"config": asdict(self.config), "seed": self.seed, "params": self.params.values[0].tolist()}
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))  # json.dump would run the pure-Python encoder

    @classmethod
    def load(cls, path) -> "HazardModel":
        """Rebuild a saved model; raises ShapeError when the stored buffer is not
        the length its config lays out, DataError for any other fault."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
            model = init_model(ModelConfig(**payload["config"]), payload["seed"])
            values = np.asarray(payload["params"])
            if values.ndim != 1 or values.dtype.kind not in "iuf":
                raise ValueError("params must be one flat list of numbers; retrain a checkpoint of the nested layout")
            if not np.isfinite(values).all():
                raise ValueError("params holds a non-finite value")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint {path} is malformed: {type(exc).__name__}: {exc}") from exc
        if values.size != model.params.cols:
            raise ad.ShapeError(f"{path}: params holds {values.size} values, its config lays out {model.params.cols}")
        model.params.values[0] = values
        return model


def init_model(config: ModelConfig, seed: int) -> HazardModel:
    """Deterministic He-initialized model; same seed gives identical weights."""
    ss = np.random.SeedSequence(seed)
    enc_rng, proj_rng, haz_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    return HazardModel(
        config,
        Mlp.init(config.encoder(), enc_rng),
        Mlp.init(config.projection(), proj_rng),
        Mlp.init(config.hazard_net(), haz_rng),
        seed,
    )


# ---------------------------------------------------------------------------
# hazard -> survival quantities (prediction side, plain numpy)
# ---------------------------------------------------------------------------

def survival_from_hazard(hazards: np.ndarray) -> np.ndarray:
    """S(t) = prod_{t' <= t} (1 - hazard(t')); non-increasing by construction."""
    surv = 1.0 - np.atleast_2d(np.asarray(hazards, dtype=np.float64))
    # column by column, as cumprod multiplies, but a strided column at a
    # time runs faster than numpy's accumulate along rows
    for t in range(1, surv.shape[1]):
        np.multiply(surv[:, t - 1], surv[:, t], out=surv[:, t])
    return surv


def pmf_from_hazard(hazards: np.ndarray, tau=None) -> np.ndarray:
    """P(T = t) = hazard(t) * S(t - 1), with S(-1) = 1.

    Returns the full pmf matrix, or the column(s) at ``tau`` when given.
    """
    h = np.atleast_2d(np.asarray(hazards, dtype=np.float64))
    surv = survival_from_hazard(h)
    prev = np.concatenate([np.ones((h.shape[0], 1)), surv[:, :-1]], axis=1)
    pmf = h * prev
    if tau is None:
        return pmf
    tau = np.asarray(tau, dtype=int)
    if np.any(tau < 0) or np.any(tau >= h.shape[1]):
        raise ValueError("tau out of range")
    return pmf[np.arange(h.shape[0]), tau]


def risk_from_hazard(hazards: np.ndarray) -> np.ndarray:
    """R(t) = 1 - S(t), the cumulative event probability; non-decreasing."""
    return 1.0 - survival_from_hazard(hazards)
