"""Simulated multilevel datasets with a piecewise-linear-plus-Fourier feature map.

Four generators (D0..D3) produce data whose true structure matches one of
the four model families, sharing group structure and covariates; the
matching builtin model specs (M0..M3) carry the study's priors.  The
generator RNG is numpy's default PCG64 stream, so a seed reproduces a
dataset bit-for-bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mlevidence.data_model import Dataset, UnknownModelError
from mlevidence.model_spec import (
    CorrelationPrior,
    EtaCovStructure,
    IGPrior,
    ModelSpec,
    assemble_sigma_eta_batch,
)

DATASET_IDS = ("D0", "D1", "D2", "D3")
MODEL_IDS = ("M0", "M1", "M2", "M3")

# Leading covariance block for the true coefficients: intercept plus the five
# hinge slopes, allowing large gradient changes between changepoints.
S1 = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 4.0, -3.0, -1.0, 0.0, 0.0],
        [0.0, -3.0, 5.0, -4.0, 2.0, 0.0],
        [0.0, -1.0, -4.0, 10.0, -4.0, 0.0],
        [0.0, 0.0, 2.0, -4.0, 5.0, 2.0],
        [0.0, 0.0, 0.0, 0.0, 2.0, 6.0],
    ]
)

ETA_PATTERN = ((1, 2), (2, 3))  # tridiagonal coupling of the group-level block


@dataclass(frozen=True)
class SimConfig:
    """Constants of the simulation study."""

    J: int = 15
    n: int = 1000
    changepoints: tuple = (0.0, 0.2, 0.4, 0.6, 0.8)
    period: float = 1.0
    fourier_order: int = 20
    fourier_scale: float = 0.001
    rho: float = 0.2
    gamma: float = 5.0

    @property
    def d(self):
        return 1 + len(self.changepoints) + 2 * self.fourier_order

    @property
    def dirichlet_alpha(self):
        return np.arange(2, self.J + 2, dtype=float)

    def coef_cov(self):
        """Block-diagonal S: the dense S1 head padded by a small diagonal tail."""
        S = np.eye(self.d) * self.fourier_scale
        S[:6, :6] = S1
        return S

    def prior_cov(self):
        """Model-prior covariance: the diagonal of S, zero elsewhere."""
        return np.diag(np.diag(self.coef_cov()))


def feature_map(t, cfg=SimConfig()):
    """Covariate vector g(t): intercept, hinge terms, cosines then sines.

    Accepts a scalar or an array of times in [0, 1]; returns shape
    (..., d).  The first changepoint is 0, so its hinge term is plain t.
    """
    t = np.asarray(t, dtype=float)
    parts = [np.ones(t.shape)]
    for s in cfg.changepoints:
        parts.append(np.where(t > s, t - s, 0.0))
    for order in range(1, cfg.fourier_order + 1):
        parts.append(np.cos(2.0 * np.pi * order * t / cfg.period))
    for order in range(1, cfg.fourier_order + 1):
        parts.append(np.sin(2.0 * np.pi * order * t / cfg.period))
    return np.stack(parts, axis=-1)


def z_map(t):
    """Group-varying covariates: centred intercept-slope-hinge block of length 4.

    The subtracted constants make each non-intercept component mean-zero
    under t ~ U[0, 1].
    """
    t = np.asarray(t, dtype=float)
    return np.stack(
        [
            np.ones(t.shape),
            t - 0.5,
            np.where(t > 0.4, t - 0.4, 0.0) - 0.18,
            np.where(t > 0.8, t - 0.8, 0.0) - 0.02,
        ],
        axis=-1,
    )


def sample_groups(cfg, rng):
    """Dirichlet-categorical group labels in 1..J; redraws until no group is empty.

    Returns (labels, n_redraws).
    """
    redraws = 0
    while True:
        p = rng.dirichlet(cfg.dirichlet_alpha)
        labels = rng.choice(np.arange(1, cfg.J + 1), size=cfg.n, p=p)
        if len(np.unique(labels)) == cfg.J:
            return labels, redraws
        redraws += 1


def _inv_gamma(rng, shape, scale, size=None):
    return 1.0 / rng.gamma(shape, 1.0 / scale, size)


@dataclass(frozen=True)
class TrueParams:
    """Parameters drawn while generating a dataset, kept for diagnostics."""

    which: str
    b: np.ndarray
    sigma2_y: float
    sigma2_eta: float | None = None
    eta_cov: np.ndarray | None = None
    group_effects: np.ndarray | None = None
    retries: int = 0
    group_redraws: int = 0

    def to_dict(self):
        out = {
            "which": self.which,
            "b": [float(v) for v in self.b],
            "sigma2_y": float(self.sigma2_y),
            "retries": self.retries,
            "group_redraws": self.group_redraws,
        }
        if self.sigma2_eta is not None:
            out["sigma2_eta"] = float(self.sigma2_eta)
        if self.eta_cov is not None:
            out["eta_cov"] = [[float(v) for v in row] for row in self.eta_cov]
        if self.group_effects is not None:
            out["group_effects"] = np.asarray(self.group_effects).tolist()
        return out


def generate_dataset(which, cfg, rng):
    """Draw one simulated dataset; returns (Dataset, TrueParams)."""
    if which not in DATASET_IDS:
        raise ValueError(f"unknown dataset id {which!r}")
    labels, group_redraws = sample_groups(cfg, rng)
    t = rng.uniform(0.0, 1.0, cfg.n)
    X = feature_map(t, cfg)
    Z = z_map(t)
    S = cfg.coef_cov()
    chol_S = np.linalg.cholesky(S)

    if which == "D0":
        b = chol_S @ rng.standard_normal(cfg.d)
        s2 = _inv_gamma(rng, 3.0, 0.4)
        y = X @ b + rng.normal(0.0, np.sqrt(s2), cfg.n)
        true = TrueParams(which=which, b=b, sigma2_y=s2, group_redraws=group_redraws)
    elif which == "D1":
        b = chol_S @ rng.standard_normal(cfg.d)
        s2y = _inv_gamma(rng, 3.0, 0.3)
        s2h = _inv_gamma(rng, 3.0, 0.1)
        h = rng.normal(0.0, np.sqrt(s2h), cfg.J)
        y = X @ b + h[labels - 1] + rng.normal(0.0, np.sqrt(s2y), cfg.n)
        true = TrueParams(
            which=which, b=b, sigma2_y=s2y, sigma2_eta=s2h,
            group_effects=h, group_redraws=group_redraws,
        )
    elif which == "D2":
        b = chol_S @ rng.standard_normal(cfg.d)
        s2y = _inv_gamma(rng, 3.0, 0.3)
        retries = 0
        struct = EtaCovStructure(m=4, pattern=ETA_PATTERN)
        while True:
            vh = _inv_gamma(rng, 3.0, 0.1, 4)
            se, chol, ok = assemble_sigma_eta_batch(struct, vh[None], np.array([cfg.rho]))
            if ok[0]:
                Sh, Lh = se[0], chol[0]
                break
            retries += 1
            if retries > 100:
                raise RuntimeError("group-level covariance kept failing the positive-definiteness gate")
        h = rng.standard_normal((cfg.J, 4)) @ Lh.T
        y = (
            X @ b
            + np.sum(Z * h[labels - 1], axis=1)
            + rng.normal(0.0, np.sqrt(s2y), cfg.n)
        )
        true = TrueParams(
            which=which, b=b, sigma2_y=s2y, eta_cov=Sh, group_effects=h,
            retries=retries, group_redraws=group_redraws,
        )
    else:  # D3: conjugate draw, coefficients scale with the noise variance
        s2 = _inv_gamma(rng, 3.0, 0.4)
        b = np.sqrt(cfg.gamma * s2) * (chol_S @ rng.standard_normal(cfg.d))
        y = X @ b + rng.normal(0.0, np.sqrt(s2), cfg.n)
        true = TrueParams(which=which, b=b, sigma2_y=s2, group_redraws=group_redraws)

    data = Dataset(y=y, x=X, z=Z, group_of=labels)
    return data, true


def builtin_model_specs(which, cfg=SimConfig()):
    """Priors of the study models M0..M3."""
    if which not in MODEL_IDS:
        raise UnknownModelError(f"unknown model id {which!r}")
    d = cfg.d
    mu = np.zeros(d)
    cov = cfg.prior_cov()
    if which == "M0":
        return ModelSpec(
            family="LinearModel", prior_mean=mu, prior_cov=cov, ig_y=IGPrior(3.0, 0.4)
        )
    if which == "M1":
        return ModelSpec(
            family="SimpleMultilevel", prior_mean=mu, prior_cov=cov,
            ig_y=IGPrior(3.0, 0.4), ig_eta=(IGPrior(3.0, 0.1),),
        )
    if which == "M2":
        # Four group-level variance components, matching the 4x4 covariance
        # used both here and by the D2 generator.
        return ModelSpec(
            family="GeneralMultilevel", prior_mean=mu, prior_cov=cov,
            ig_y=IGPrior(3.0, 0.3), ig_eta=tuple(IGPrior(3.0, 0.1) for _ in range(4)),
            eta_structure=EtaCovStructure(m=4, pattern=ETA_PATTERN),
            corr_prior=CorrelationPrior(kind="fixed", value=cfg.rho),
        )
    return ModelSpec(
        family="LinearModelNIG", prior_mean=mu, prior_cov=cov,
        ig_y=IGPrior(3.0, 0.4), gamma=cfg.gamma,
    )
