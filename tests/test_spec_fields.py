"""The fields of the spec's ``model``, ``train`` and ``synthetic`` objects:
the README's table of them, and a sweep of every numeric one over edge values.

Each numeric field of ``TrainConfig``, ``ModelConfig`` and ``SynthConfig``,
and the spec's own ``n_bins``, is set in turn to each value at the edges of
a numeric domain, on a 160-row spec trained for one epoch with one seed (so
every run stays in this process). ``train``, then ``evaluate`` when the
training succeeded, must exit 0, 2, 3 or 4 with at most one line on stderr,
and a config error must name the field (a data error names the fault in the
data the value made, such as a split too small to validate on). The suite
runs numpy warnings as errors, so an overflow that reaches no guard fails
the case.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from survcontrast.cli import main
from survcontrast.data import FIELD_CHECKS, describe_domain
from survcontrast.model import ModelConfig
from survcontrast.synth import SynthConfig
from survcontrast.trainer import TrainConfig

EDGES = [0, -0.0, -1, 1, 2, 0.5, 5e-324, -5e-324, 1e-320, 1e300, -1e300, 100, 101]
# fields that size an allocation or a loop: no byte estimate rejects a large
# one before numpy tries to allocate it, so they take no int above 101 (the
# largest of EDGES); every other field also takes HUGE
SIZE_FIELDS = {"epochs", "batch_size", "input_dim", "n_time_bins", "hidden_dim", "depth", "embedding_dim",
               "projection_depth", "n_samples", "feature_dim", "n_bins"}
HUGE = 2**70
README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = {"model": ModelConfig, "train": TrainConfig, "synthetic": SynthConfig}
PAIRS = [("nll+snce", "paired_exponential"), ("nll+rank", "discrete_oracle"), ("nll+nce", "discrete_oracle")]


def numeric_fields(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.type in ("int", "float", "float | None", "int | None")]


# (spec section or None for the top level, field name)
TARGETS = [(section, name) for section, cls in SECTIONS.items() for name in numeric_fields(cls)] + [(None, "n_bins")]


def base_spec(tmp_path, variant: str, kind: str) -> dict:
    return {
        "synthetic": {"kind": kind, "n_samples": 160, "seed": 3},
        "variants": [variant],
        "seeds": [0],
        "model": {"hidden_dim": 8, "depth": 2, "embedding_dim": 4},
        "train": {"epochs": 1, "batch_size": 32, "nu": 0.5},
        "n_bins": 10,
        "out": str(tmp_path / "out"),
    }


def run_case(tmp_path, capsys, spec: dict) -> tuple[int, list[str]]:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["train", "--config", str(path)])
    if code == 0:
        code = main(["evaluate", "--config", str(path)])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("variant,kind", PAIRS, ids=[f"{v}-{k}" for v, k in PAIRS])
@pytest.mark.parametrize("section,name", TARGETS, ids=[f"{s or 'spec'}.{n}" for s, n in TARGETS])
def test_every_edge_value_runs_or_fails_in_a_documented_way(tmp_path, capsys, variant, kind, section, name):
    faults = []
    for value in EDGES if name in SIZE_FIELDS else EDGES + [HUGE]:
        spec = base_spec(tmp_path, variant, kind)
        (spec[section] if section else spec)[name] = value
        try:
            code, err = run_case(tmp_path, capsys, spec)
        except Exception as exc:  # a traceback from the command, a numpy warning included
            faults.append(f"{name}={value!r}: {type(exc).__name__}: {exc}")
            continue
        unnamed = err and err[0].startswith("config error") and name not in err[0]
        if code not in (0, 2, 3, 4) or len(err) > 1 or unnamed:
            faults.append(f"{name}={value!r}: exit {code}, stderr {err}")
    assert not faults, "\n".join(faults)


def test_readme_table_lists_every_field_with_its_type_domain_and_default():
    rows = re.findall(r"^\| `((?:model|train|synthetic)\.\w+)` \| (.*) \| (.*) \| (.*) \|$", README.read_text(), re.M)
    expected = []
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            default = "required" if f.default is MISSING else f"`{json.dumps(f.default)}`"
            expected.append((f"{section}.{f.name}", FIELD_CHECKS[f.type][1], describe_domain(f) or "any", default))
    assert rows == expected
