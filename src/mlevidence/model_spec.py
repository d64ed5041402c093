"""Declarative model families and prior hyperparameters.

Four families are supported:

* ``LinearModel`` -- Gaussian coefficient prior, free noise variance.
* ``LinearModelNIG`` -- conjugate prior where the coefficient covariance
  scales with the noise variance (admits closed-form evidence).
* ``SimpleMultilevel`` -- adds a scalar group intercept deviation.
* ``GeneralMultilevel`` -- group-varying coefficients with a structured
  covariance built from per-component variances and a correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from mlevidence.data_model import InputError

# Group effects of each family: none, one intercept per group (False) or
# one coefficient per z column (True).
Z_EFFECTS = {
    "LinearModel": None, "LinearModelNIG": None,
    "SimpleMultilevel": False, "GeneralMultilevel": True,
}
FAMILIES = tuple(Z_EFFECTS)


class NotPositiveDefiniteError(ValueError):
    """A covariance assembled from the given parameters is not positive-definite."""


@dataclass(frozen=True)
class IGPrior:
    """Inverse-gamma prior with density proportional to v^-(shape+1) exp(-scale/v)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("inverse-gamma shape and scale must be positive")

    @property
    def mean(self):
        if self.shape <= 1:
            return np.inf
        return self.scale / (self.shape - 1)


@dataclass(frozen=True)
class CorrelationPrior:
    """Prior on a correlation in (-1, 1).

    Either a fixed constant (``kind="fixed"``) or a standard normal
    truncated to [-1, 1] with the truncation constant included
    (``kind="truncated_normal"``).
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "truncated_normal"):
            raise ValueError("kind must be 'fixed' or 'truncated_normal'")
        if self.kind == "fixed":
            if self.value is None or not (-1.0 < self.value < 1.0):
                raise ValueError("fixed correlation must lie in (-1, 1)")
        elif self.value is not None:
            raise ValueError("truncated_normal prior takes no fixed value")

    @property
    def is_fixed(self):
        return self.kind == "fixed"


@dataclass(frozen=True)
class EtaCovStructure:
    """Sparsity pattern of the group-level covariance.

    The matrix is diagonal in the m per-component variances, with
    correlation terms rho * sigma_r * sigma_c at the listed (row, col)
    positions (0-based, upper triangle).
    """

    m: int
    pattern: tuple = ()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        pat = []
        for r, c in self.pattern:
            if not (0 <= r < self.m and 0 <= c < self.m) or r == c:
                raise ValueError(f"pattern position ({r}, {c}) out of range for m={self.m}")
            pat.append((min(r, c), max(r, c)))
        object.__setattr__(self, "pattern", tuple(pat))


def assemble_sigma_eta_batch(struct, variances, rho):
    """Group-level covariances of P rows, with the one positive-definiteness gate.

    ``variances`` (P, m) fill the diagonal and ``rho`` (P,) the pattern
    positions as rho * sigma_row * sigma_col.  Returns the (P, m, m)
    matrices, their lower Cholesky factors and a (P,) mask of those whose
    smallest eigenvalue is > 0 and that ``np.linalg.cholesky`` factors: at
    |rho| = 1 the computed eigenvalue can be a rounding residue above zero
    while a pivot is not.  A matrix that fails the gate is replaced by the
    identity, and so is its factor, so callers can use the whole stack and
    mask the rows.
    """
    v = np.asarray(variances, dtype=float)
    P, m = v.shape
    sig = np.sqrt(v)
    se = np.zeros((P, m, m))
    ii = np.arange(m)
    se[:, ii, ii] = v
    for r, c in struct.pattern:
        off = rho * sig[:, r] * sig[:, c]
        se[:, r, c] = off
        se[:, c, r] = off
    ok = np.linalg.eigvalsh(se)[:, 0] > 0
    se = np.where(ok[:, None, None], se, np.eye(m)[None])
    try:
        chol = np.linalg.cholesky(se)
    except np.linalg.LinAlgError:
        chol = np.broadcast_to(np.eye(m), se.shape).copy()
        for i in np.flatnonzero(ok):
            try:
                chol[i] = np.linalg.cholesky(se[i])
            except np.linalg.LinAlgError:
                ok[i] = False
                se[i] = np.eye(m)
    return se, chol, ok


def assemble_sigma_eta(struct, variances, rho):
    """Assemble the (m, m) group-level covariance from variances and a correlation.

    One row of :func:`assemble_sigma_eta_batch`, with its inputs checked.
    Raises NotPositiveDefiniteError when the matrix fails the gate;
    callers in the sampler treat that as a zero-density proposal.
    """
    v = np.asarray(variances, dtype=float)
    if v.shape != (struct.m,):
        raise ValueError(f"expected {struct.m} variances, got shape {v.shape}")
    if np.any(v <= 0):
        raise ValueError("variances must be strictly positive")
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    se, _, ok = assemble_sigma_eta_batch(struct, v[None], np.array([rho], dtype=float))
    if not ok[0]:
        raise NotPositiveDefiniteError(
            f"assembled {struct.m}x{struct.m} covariance is not positive-definite"
        )
    return se[0]


@dataclass(frozen=True)
class ParamLayout:
    """What the samplers and evaluators need to know about a spec's family.

    A natural variance row holds sigma2_y, then one variance per
    group-effect component, then the correlation when it is sampled.  The
    group effects are one intercept per group (SimpleMultilevel) or one
    coefficient per z column (GeneralMultilevel).
    """

    igs: tuple                               # inverse-gamma priors, in row order
    rho_sampled: bool
    fixed_rho: float                         # correlation used when it is not sampled
    eta_structure: EtaCovStructure | None    # 1x1 for a group intercept; None without groups
    z_effects: bool | None                   # see Z_EFFECTS

    @property
    def group_width(self):
        """Group effects per group: 0 (single-level), 1 or m."""
        return self.eta_structure.m if self.eta_structure is not None else 0

    @property
    def n_params(self):
        """Columns of a natural variance row."""
        return len(self.igs) + int(self.rho_sampled)

    def sigma_eta(self, nat):
        """Lower Cholesky factors (P, m, m) of the group-level covariances of natural rows, and their PD mask.

        The factors are those of the gate in :func:`assemble_sigma_eta_batch`,
        the identity where a row fails it, so no caller factors Sigma_eta
        again.  A row without a correlation column uses ``fixed_rho``.
        """
        m = self.group_width
        rho = nat[:, 1 + m] if nat.shape[1] > 1 + m else np.full(nat.shape[0], self.fixed_rho)
        _, chol, ok = assemble_sigma_eta_batch(self.eta_structure, nat[:, 1:1 + m], rho)
        return chol, ok


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model family together with all prior hyperparameters."""

    family: str
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    ig_y: IGPrior
    ig_eta: tuple = None
    eta_structure: EtaCovStructure | None = None
    corr_prior: CorrelationPrior | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        # Copies, so that freezing them leaves the caller's arrays as they were.
        mu = np.array(self.prior_mean, dtype=float)
        cov = np.array(self.prior_cov, dtype=float)
        d = mu.shape[0]
        if cov.shape != (d, d):
            raise ValueError("prior_cov must be d x d")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
            raise ValueError("prior_cov must be symmetric within 1e-12")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("prior_cov admits no Cholesky factorization") from None
        mu.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "prior_mean", mu)
        object.__setattr__(self, "prior_cov", cov)
        if self.ig_eta is not None:
            object.__setattr__(self, "ig_eta", tuple(self.ig_eta))

        multilevel = self.family in ("SimpleMultilevel", "GeneralMultilevel")
        if multilevel != (self.ig_eta is not None):
            raise ValueError("ig_eta must be present iff the family is multilevel")
        if self.family == "SimpleMultilevel" and len(self.ig_eta) != 1:
            raise ValueError("SimpleMultilevel takes exactly one group-variance prior")
        if self.family == "GeneralMultilevel":
            if self.eta_structure is None:
                raise ValueError("GeneralMultilevel requires an eta_structure")
            if len(self.ig_eta) != self.eta_structure.m:
                raise ValueError("one variance prior per group-level component required")
            if self.eta_structure.pattern and self.corr_prior is None:
                raise ValueError("a correlation prior is required when the pattern is non-empty")
        else:
            if self.eta_structure is not None or self.corr_prior is not None:
                raise ValueError("eta_structure/corr_prior only apply to GeneralMultilevel")
        if (self.gamma is not None) != (self.family == "LinearModelNIG"):
            raise ValueError("gamma must be present iff the family is LinearModelNIG")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")

    def __eq__(self, other):
        if not isinstance(other, ModelSpec):
            return NotImplemented
        return (
            self.family == other.family
            and np.array_equal(self.prior_mean, other.prior_mean)
            and np.array_equal(self.prior_cov, other.prior_cov)
            and self.ig_y == other.ig_y
            and self.ig_eta == other.ig_eta
            and self.eta_structure == other.eta_structure
            and self.corr_prior == other.corr_prior
            and self.gamma == other.gamma
        )

    __hash__ = None

    @property
    def d(self):
        return self.prior_mean.shape[0]

    @property
    def m(self):
        return self.eta_structure.m if self.eta_structure is not None else 0

    @cached_property
    def layout(self):
        corr = self.corr_prior
        return ParamLayout(
            igs=(self.ig_y,) + (self.ig_eta or ()),
            rho_sampled=corr is not None and not corr.is_fixed,
            fixed_rho=corr.value if corr is not None and corr.is_fixed else 0.0,
            eta_structure=self.eta_structure or (EtaCovStructure(m=1) if self.ig_eta else None),
            z_effects=Z_EFFECTS[self.family],
        )


def validate(spec, data):
    """Check a spec against a dataset; returns a list of violations (empty if ok)."""
    problems = []
    if spec.d != data.d:
        problems.append(f"prior mean length {spec.d} != design width {data.d}")
    if spec.family == "GeneralMultilevel" and spec.eta_structure.m != data.m:
        problems.append(
            f"group-level dimension {spec.eta_structure.m} != z width {data.m}"
        )
    if spec.family == "GeneralMultilevel" and data.m == 0:
        problems.append("GeneralMultilevel requires z columns in the data")
    return problems


def _ig_to_config(ig):
    return {"shape": float(ig.shape), "scale": float(ig.scale)}


def to_config(spec):
    """Serialize a spec to a nested key-value mapping."""
    cfg = {
        "family": spec.family,
        "prior_mean": [float(v) for v in spec.prior_mean],
        "prior_cov": [[float(v) for v in row] for row in spec.prior_cov],
        "ig_y": _ig_to_config(spec.ig_y),
    }
    if spec.ig_eta is not None:
        cfg["ig_eta"] = [_ig_to_config(ig) for ig in spec.ig_eta]
    if spec.eta_structure is not None:
        cfg["eta_pattern"] = [[int(r), int(c)] for r, c in spec.eta_structure.pattern]
    if spec.corr_prior is not None:
        cfg["corr"] = (
            float(spec.corr_prior.value) if spec.corr_prior.is_fixed else "truncated_normal"
        )
    if spec.gamma is not None:
        cfg["gamma"] = float(spec.gamma)
    return cfg


def from_config(cfg):
    """Inverse of :func:`to_config`."""
    family = cfg["family"]
    kwargs = dict(
        family=family,
        prior_mean=np.array(cfg["prior_mean"], dtype=float),
        prior_cov=np.array(cfg["prior_cov"], dtype=float),
        ig_y=IGPrior(**cfg["ig_y"]),
    )
    if "ig_eta" in cfg:
        kwargs["ig_eta"] = tuple(IGPrior(**c) for c in cfg["ig_eta"])
    if family == "GeneralMultilevel":
        pattern = tuple((r, c) for r, c in cfg.get("eta_pattern", []))
        kwargs["eta_structure"] = EtaCovStructure(m=len(cfg["ig_eta"]), pattern=pattern)
        corr = cfg.get("corr")
        if corr == "truncated_normal":
            kwargs["corr_prior"] = CorrelationPrior(kind="truncated_normal")
        elif corr is not None:
            kwargs["corr_prior"] = CorrelationPrior(kind="fixed", value=float(corr))
    if "gamma" in cfg:
        kwargs["gamma"] = float(cfg["gamma"])
    return ModelSpec(**kwargs)


def save(spec, path):
    import yaml  # only spec files need it

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_config(spec), fh, sort_keys=False)


def load(path):
    """Read a spec file; one that does not parse or describes no valid model is an InputError."""
    import yaml

    with open(path, encoding="utf-8") as fh:
        try:
            return from_config(yaml.safe_load(fh))
        except KeyError as exc:
            raise InputError(f"{path}: missing key {exc}") from exc
        except (yaml.YAMLError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: {' '.join(str(exc).split())}") from exc
