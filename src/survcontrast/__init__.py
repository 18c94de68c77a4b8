"""Discrete-time survival analysis with outcome-weighted contrastive learning."""

import logging

from .data import PreparedData, Schema, discretize, load_csv, prepare, split_dataset
from .losses import (
    build_pair_weights,
    comparability,
    infonce_loss,
    nll_loss,
    ranking_loss,
    snce_loss,
    weight,
)
from .metrics import MetricReport, evaluate_hazards, kaplan_meier
from .model import HazardModel, ModelConfig, init_model
from .synth import SynthConfig, generate_discrete_oracle, generate_paired_exponential
from .trainer import TrainConfig, TrainLog, train

__version__ = "0.1.0"

# a library leaves its log records to the application; without a handler here,
# Python's last-resort handler would print every warning to stderr
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "PreparedData",
    "Schema",
    "discretize",
    "load_csv",
    "prepare",
    "split_dataset",
    "build_pair_weights",
    "comparability",
    "infonce_loss",
    "nll_loss",
    "ranking_loss",
    "snce_loss",
    "weight",
    "MetricReport",
    "evaluate_hazards",
    "kaplan_meier",
    "HazardModel",
    "ModelConfig",
    "init_model",
    "SynthConfig",
    "generate_discrete_oracle",
    "generate_paired_exponential",
    "TrainConfig",
    "TrainLog",
    "train",
]
