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
from .data import DataError, at_least, check_fields, one_of

# the per-layer ops by name: Mlp applies their math (ACTIVATION_PARTS) inside its one node, and
# MlpConfig accepts its keys; ACTIVATIONS is kept for the benchmark's tracer (perfbench/tracing.py)
ACTIVATIONS = {"relu": ad.relu, "sigmoid": ad.sigmoid}
ACTIVATION_PARTS = {"relu": ad.relu_parts, "sigmoid": ad.sigmoid_parts}


@dataclass
class MlpConfig:
    input_dim: int = at_least(1)
    hidden_dim: int = at_least(1)
    depth: int = at_least(1)  # number of weight matrices, including the output layer
    output_dim: int = at_least(1)
    activation: str = one_of(lambda: ACTIVATION_PARTS, "relu")

    def __post_init__(self):
        check_fields(self)

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim] + [self.hidden_dim] * (self.depth - 1) + [self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    def n_params(self) -> int:
        """Length of the network's buffer: every layer's weights and bias."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims())


@dataclass
class ModelConfig:
    """Shapes and activations for the three networks."""

    input_dim: int = at_least(1)
    n_time_bins: int = at_least(1)  # t_max + 1 hazard outputs
    hidden_dim: int = at_least(1, 32)
    depth: int = at_least(1, 3)
    embedding_dim: int = at_least(1, 16)
    projection_depth: int = at_least(1, 2)
    activation: str = one_of(lambda: ACTIVATION_PARTS, "relu")

    def __post_init__(self):
        check_fields(self)

    def encoder(self) -> MlpConfig:
        return MlpConfig(self.input_dim, self.hidden_dim, self.depth, self.hidden_dim, self.activation)

    def projection(self) -> MlpConfig:
        return MlpConfig(self.hidden_dim, self.hidden_dim, self.projection_depth, self.embedding_dim, self.activation)

    def hazard_net(self) -> MlpConfig:
        return MlpConfig(self.hidden_dim, self.hidden_dim, self.depth, self.n_time_bins, self.activation)


def _leaf(values: np.ndarray, grad: np.ndarray) -> Tensor:
    """A trainable leaf whose ``values`` and ``grad`` are the given arrays (views kept)."""
    leaf = Tensor(values)
    leaf.requires_grad, leaf.grad = True, grad
    return leaf


class Mlp:
    """Stack of linear layers with the configured activation between them.

    The network is laid over 1 x n arrays ``values`` and ``grad`` that its
    caller allocates (n is :meth:`MlpConfig.n_params`): its leaf ``flat`` and
    each layer's ``w``/``b`` leaves are views into them, laid out
    ``w0 b0 w1 b1 ...``. A forward pass is one tape node whose parents are
    the input and ``flat``.
    """

    def __init__(self, config: MlpConfig, values: np.ndarray, grad: np.ndarray):
        self.config = config
        self.flat = _leaf(values, grad)
        self.layers = []  # [(weights in_dim x out_dim, bias 1 x out_dim), ...]
        start = 0
        for fan_in, fan_out in config.layer_dims():
            pair = []
            for shape in ((fan_in, fan_out), (1, fan_out)):
                stop = start + shape[0] * shape[1]
                pair.append(_leaf(values[0, start:stop].reshape(shape), grad[0, start:stop].reshape(shape)))
                start = stop
            self.layers.append(tuple(pair))

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

    The model allocates its parameters once: ``params``, one 1 x n buffer
    laid out ``projection | encoder | hazard``, and its gradient twin, both
    zero. Each network is laid over its slice of the two: every leaf's
    ``values`` and ``grad`` (each network's ``flat`` and its layers'
    ``w``/``b``) are views into them. The encoder with either head is thus one
    contiguous slice (:meth:`trainable`), which an optimizer updates in one
    vectorized step. :func:`init_model` draws the weights in place and
    :meth:`load` fills the buffer from a checkpoint.
    """

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.seed = seed
        nets = (config.projection(), config.encoder(), config.hazard_net())
        cuts = np.cumsum([0] + [net.n_params() for net in nets])
        self.params = Tensor(np.zeros((1, cuts[-1])), requires_grad=True)
        self.projection, self.encoder, self.hazard_net = (
            Mlp(net, self.params.values[:, a:b], self.params.grad[:, a:b]) for net, a, b in zip(nets, cuts, cuts[1:]))
        self._heads = {"projection": slice(0, cuts[2]), "hazard": slice(cuts[1], cuts[3])}

    def encode(self, x: Tensor) -> Tensor:
        return self.encoder(x)  # the encoder raises ShapeError on a wrong width

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
        return _leaf(self.params.values[:, cols], self.params.grad[:, cols])

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
        """Lay out a saved model and fill its buffer, drawing nothing; raises
        ShapeError when the stored buffer is not the length its config lays
        out, DataError for any other fault."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
            seed = payload["seed"]
            if type(seed) is not int or seed < 0:  # bool, a subclass of int, is not a seed
                raise ValueError(f"seed must be a non-negative int, not {seed!r}")
            model = cls(ModelConfig(**payload["config"]), seed)
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
    """Deterministic He-initialized model; same seed gives identical weights.

    The encoder, projection head and hazard network each draw their weights,
    layer by layer with fan-in scaling, from one of three streams spawned
    from ``seed``; biases stay zero.
    """
    model = HazardModel(config, seed)
    streams = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    for net, rng in zip((model.encoder, model.projection, model.hazard_net), streams):
        for w, _ in net.layers:
            w.values[...] = rng.normal(0.0, np.sqrt(2.0 / w.rows), size=w.shape)
    return model


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
