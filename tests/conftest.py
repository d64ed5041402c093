import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mlevidence.data_model import Dataset
from mlevidence.model_spec import (
    CorrelationPrior,
    EtaCovStructure,
    IGPrior,
    ModelSpec,
)


def make_dataset(rng, n, d, m, J):
    """Random dense-group dataset with every group represented."""
    y = rng.normal(size=n)
    x = rng.normal(size=(n, d))
    z = rng.normal(size=(n, m))
    group = np.concatenate([np.arange(1, J + 1), rng.integers(1, J + 1, size=n - J)])
    return Dataset(y=y, x=x, z=z, group_of=group)


def load_radon_table():
    """perfbench's seeded radon-schema table generator (its dataclass needs a registered module)."""
    name = "perfbench_radon_table"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "radon_table.py"
        module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path))
        sys.modules[name] = module
        module.__spec__.loader.exec_module(module)
    return sys.modules[name]


def lm_spec(d, ig=IGPrior(3.0, 0.4), scale=0.7):
    return ModelSpec(
        family="LinearModel", prior_mean=np.zeros(d), prior_cov=scale * np.eye(d), ig_y=ig
    )


def nig_spec(d, gamma=2.0, ig=IGPrior(3.0, 0.4), scale=0.7):
    return ModelSpec(
        family="LinearModelNIG", prior_mean=np.zeros(d), prior_cov=scale * np.eye(d),
        ig_y=ig, gamma=gamma,
    )


def simple_spec(d, scale=0.7):
    return ModelSpec(
        family="SimpleMultilevel", prior_mean=np.zeros(d), prior_cov=scale * np.eye(d),
        ig_y=IGPrior(3.0, 0.4), ig_eta=(IGPrior(3.0, 0.1),),
    )


def general_spec(d, m=2, rho=0.3, sampled_rho=False, pattern=((0, 1),)):
    return ModelSpec(
        family="GeneralMultilevel", prior_mean=np.zeros(d), prior_cov=0.7 * np.eye(d),
        ig_y=IGPrior(3.0, 0.4), ig_eta=tuple(IGPrior(3.0, 0.1) for _ in range(m)),
        eta_structure=EtaCovStructure(m=m, pattern=pattern),
        corr_prior=(
            CorrelationPrior(kind="truncated_normal")
            if sampled_rho
            else CorrelationPrior(kind="fixed", value=rho)
        ),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
