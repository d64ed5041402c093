"""Posterior recovery, Mahalanobis diagnostics, AIC, Bayes factors and fit export.

In integrated mode the coefficient posterior is a mixture of the Gaussian
conditional posteriors over the sampled variance points: the mixture mean
averages the conditional means and the mixture covariance adds the
between-point spread of those means to the averaged conditional
covariances.  The mixture is reduced in the likelihood kernel's
coordinates, where a diagonal or low-rank conditional covariance sums
without a d x d matrix per point, and the basis is applied once to the
sum.  The Mahalanobis statistic instead averages the per-point quadratic
forms, which is kept as a separate code path on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mlevidence.likelihood_core import (
    LOG_2PI,
    CoefPrior,
    batch_conditional_beta,
    group_blocks,
    group_design,
    logdet_resid,
    posterior_system,
    precompute,
    solve_lower,
)
from mlevidence.model_spec import NotPositiveDefiniteError
from mlevidence.smc_engine import variance_block_to_natural


class SingularCovarianceError(ValueError):
    """The empirical posterior covariance has no Cholesky factorization."""


@dataclass(frozen=True)
class PosteriorGaussian:
    """Gaussian summary of a coefficient posterior."""

    mean: np.ndarray
    cov: np.ndarray
    source: str  # "mixture-over-trace" or "empirical-from-draws"

    def __post_init__(self):
        # Copies, so that freezing them leaves the caller's arrays as they were.
        mean, cov = np.array(self.mean, dtype=float), np.array(self.cov, dtype=float)
        if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
            raise ValueError("cov must be symmetric within 1e-10")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularCovarianceError("posterior covariance is singular") from None
        for name, arr in (("mean", mean), ("cov", cov)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _conditional_blocks(cloud, stats, spec):
    """(weights, :class:`Conditional`) blocks of the conditional coefficient posteriors of a cloud.

    Rows go through the batched conditional in blocks of ``2^18 /
    row_entries`` rows, the kernel's per-row count (see
    ``posterior_system``): a block then holds about 2^18 entries of
    per-row arrays, which are d' x d' matrices only for a dense system.
    """
    w = cloud.normalized_weights()
    nat = variance_block_to_natural(spec, cloud.particles)
    conditional = batch_conditional_beta(stats, spec)
    step = max(1, 2 ** 18 // conditional.row_entries)
    for i in range(0, w.shape[0], step):
        yield w[i:i + step], conditional(nat[i:i + step])


def beta_posterior_trace(cloud, stats, spec):
    """Weighted conditional posteriors (weight, mean, cov) along the variance trace."""
    return [
        (float(w), mean, cov)
        for wb, c in _conditional_blocks(cloud, stats, spec)
        for w, mean, cov in zip(wb, *c.in_beta())
    ]


def recover_beta_posterior(cloud, stats, spec, mode):
    """Gaussian summary of the coefficient posterior from a terminal cloud.

    In integrated mode the mixture is reduced in the kernel's coordinates
    g (``beta = basis @ g``): the weighted conditional covariances and the
    spread of the conditional means are summed there, and the basis is
    applied once to the sum.
    """
    if not np.isclose(cloud.beta_temper, 1.0):
        raise ValueError("cloud must be at tempering exponent 1")
    if mode == "integrated":
        w = cloud.normalized_weights()
        means = []
        cov = 0.0
        for wb, c in _conditional_blocks(cloud, stats, spec):
            means.append(c.mean)
            cov += c.weighted_cov(wb)
        means = np.concatenate(means)
        mean = w @ means
        dm = means - mean[None, :]
        cov += (dm * w[:, None]).T @ dm
        B = c.basis
        cov = B @ cov @ B.T
        cov = 0.5 * (cov + cov.T)
        return PosteriorGaussian(mean=B @ mean, cov=cov, source="mixture-over-trace")
    if mode != "full":
        raise ValueError("mode must be 'integrated' or 'full'")
    beta_draws = cloud.particles[:, :stats.d]
    distinct = np.unique(beta_draws, axis=0).shape[0]
    if distinct < stats.d + 1:
        raise SingularCovarianceError(
            f"only {distinct} distinct coefficient draws for dimension {stats.d}"
        )
    w = cloud.normalized_weights()
    mean = w @ beta_draws
    diff = beta_draws - mean[None, :]
    cov = (diff * w[:, None]).T @ diff
    denom = 1.0 - float(w @ w)  # weighted analogue of the n-1 correction
    if denom > 0:
        cov = cov / denom
    cov = 0.5 * (cov + cov.T)
    return PosteriorGaussian(mean=mean, cov=cov, source="empirical-from-draws")


def mahalanobis(b_true, post):
    """Covariance-weighted distance from a point to a posterior summary.

    ``post`` is either a PosteriorGaussian (full-likelihood convention) or
    an iterable of (weight, mean, cov) conditional posteriors, in which
    case the per-point quadratic forms are averaged under the weights
    before taking the root.
    """
    b = np.asarray(b_true, dtype=float)
    if isinstance(post, PosteriorGaussian):
        return float(np.sqrt(_quad_form(b - post.mean, post.cov)))
    total = 0.0
    wsum = 0.0
    for w, mu, cov in post:
        total += w * _quad_form(b - mu, cov)
        wsum += w
    return float(np.sqrt(total / wsum))


def _quad_form(diff, cov):
    """``diff^T cov^-1 diff``; raises ``LinAlgError`` when cov is not positive-definite."""
    t = solve_lower(np.linalg.cholesky(cov), diff[:, None])
    return float(np.sum(t * t))


# ---------------------------------------------------------------------------
# AIC via group-effect marginalization and profiling of the coefficients and sigma2_y.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AICResult:
    aic: float
    k: int
    max_loglik: float
    theta_hat: dict
    converged: bool


def _profile_loglik_builder(stats, spec):
    """Log likelihood maximized over the coefficients and sigma2_y, as in lme4's profiled deviance.

    Group effects are integrated out and the coefficients profiled by GLS
    through the family's kernel with a flat prior, run at sigma2_y = 1 with
    the group variances relative to sigma2_y.  The marginal covariance
    scales with sigma2_y, so the maximum is at sigma2_y = Q / n, Q the GLS
    residual form.  ``profile(u)`` takes the nvar = ``n_params - 1`` other
    coordinates (log variance ratios, then atanh rho when it is sampled)
    and returns the maximum and the natural row
    ``[log sigma2_y, log group variances..., atanh rho]`` where it is reached.
    """
    n = stats.n
    layout = spec.layout
    system = posterior_system(stats, spec, CoefPrior.flat(stats.d))
    n_ratios = len(layout.igs) - 1

    def profile(u):
        row = np.concatenate([[0.0], u])
        if np.any(np.abs(u[:n_ratios]) > 46.0):  # keep exp() finite and well-scaled
            return -np.inf, row
        try:
            s = system(variance_block_to_natural(spec, row))
            resid = float(logdet_resid(s)[1][0])
        except np.linalg.LinAlgError:
            return -np.inf, row
        if not s.ok[0]:
            return -np.inf, row
        # The same bound on sigma2_y keeps an exact fit (resid = 0) finite.
        s2 = float(np.clip(resid / n, np.exp(-46.0), np.exp(46.0)))
        row[:1 + n_ratios] += np.log(s2)
        return -0.5 * (n * (LOG_2PI + np.log(s2)) + resid / s2 + s.logdet[0]), row

    return profile, layout.n_params - 1


_START_FACTORS = (1.0, 0.3, 3.0, 0.1, 10.0)
_AGREE_NATS = 1e-6   # the two best starts' maxima must agree this closely to count as converged


def aic(data, spec, *, stats=None):
    """Akaike information criterion with profile-likelihood parameter count.

    k is the design width for the single-level families and the design
    width plus the number of variance-type parameters for the multilevel
    families.  ``stats``, when given, are ``precompute(data)``
    already made by the caller.  sigma2_y is profiled out in closed form; the
    multilevel families search the rest with a multi-start Nelder-Mead
    simplex, the starts scaling the ratios of the prior variance means.
    The search has converged when the best start succeeded and the two
    best maxima agree within ``_AGREE_NATS``.
    """
    from scipy.optimize import minimize  # only the AIC search needs SciPy

    if stats is None:
        stats = precompute(data)
    layout = spec.layout
    k = stats.d + (layout.n_params if layout.group_width else 0)
    profile, nvar = _profile_loglik_builder(stats, spec)

    log_means = [np.log(ig.mean if np.isfinite(ig.mean) else 1.0) for ig in layout.igs]
    base = np.zeros(nvar)    # a sampled correlation starts at rho = 0
    base[:len(log_means) - 1] = np.subtract(log_means[1:], log_means[0])

    best_u = base
    converged = nvar == 0
    fits = []
    for factor in _START_FACTORS if nvar else ():
        start = base.copy()
        start[:len(log_means) - 1] += np.log(factor)
        res = minimize(
            lambda u: -profile(u)[0], start, method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000, "maxfev": 8000},
        )
        fits.append((-res.fun, bool(res.success), res.x))
    if fits:
        (best, success, best_u), (second, _, _) = sorted(fits, key=lambda f: f[0], reverse=True)[:2]
        converged = bool(success and best - second <= _AGREE_NATS)
    max_loglik, row = profile(best_u)
    theta_hat = {"log_variances": [float(v) for v in row]}
    return AICResult(
        aic=2.0 * k - 2.0 * max_loglik, k=int(k), max_loglik=float(max_loglik),
        theta_hat=theta_hat, converged=converged,
    )


# ---------------------------------------------------------------------------
# Bayes factors and fit export.
# ---------------------------------------------------------------------------

BF_BANDS = (
    (1.0, "no evidence"),
    (3.0, "positive"),
    (5.0, "strong"),
    (np.inf, "very strong"),
)


@dataclass(frozen=True)
class BayesFactor:
    log_bf: float
    std: float
    label: str


def bayes_factor(est_m, est_n):
    """Log Bayes factor between two evidence estimates with a strength label."""
    log_bf = est_m.mean - est_n.mean
    std = float(np.sqrt(est_m.std ** 2 + est_n.std ** 2))
    label = BF_BANDS[-1][1]
    for cut, name in BF_BANDS:
        if abs(log_bf) < cut:
            label = name
            break
    return BayesFactor(log_bf=float(log_bf), std=std, label=label)


def conditional_eta_means(stats, spec, row, beta):
    """Conditional means of the group effects given variances and coefficients.

    ``row`` is one natural variance row in ``spec.layout`` order (sigma2_y,
    the group-effect variances, then the correlation, which may be left out
    when the spec fixes it).  The means are
    ``M_j^-1 (Z_j^T y_j - Z_j^T X_j beta) / sigma2_y`` per group, with
    ``M_j^-1 = Lambda K_j^-1 Lambda^T`` from :func:`group_blocks`, so
    Sigma_eta is not inverted.  Returns a (J, group width) array: one column
    per group-effect component.
    """
    layout = spec.layout
    if not layout.group_width:
        raise ValueError("group effects exist only for multilevel families")
    nat = np.asarray(row, dtype=float)[None]
    chol, ok = layout.sigma_eta(nat)
    if not ok[0]:
        raise NotPositiveDefiniteError("group-level covariance is not positive-definite")
    Gz, Szy, Cxz = group_design(stats, layout.z_effects)
    s2y = nat[0, 0]
    m_inv, _ = group_blocks(chol, Gz, nat[:, 0])
    resid = Szy - np.einsum("jam,a->jm", Cxz, beta)
    return np.einsum("abj,jb->ja", m_inv[0], resid) / s2y


def export_fits(post, meta, eta_means=None, eta_covs=None):
    """Per-county fitted means and one-sd bands at both floor levels.

    Returns a list of dict rows with keys county, t, mean, sd, present.
    ``meta`` is the dict of :func:`~mlevidence.data_model.build_radon_design`,
    whose ``x_fit`` and ``z_fit`` hold each county's design and group-effect
    rows at t = 0 and t = 1; a NaN design row is a line the model does not
    have.  ``eta_means`` (J, m) and ``eta_covs`` (J, m, m) optionally add the
    group deviations and their spread.
    """
    x, z = meta["x_fit"], meta["z_fit"]
    mean = x @ post.mean
    var = np.einsum("jta,jta->jt", x @ post.cov, x)
    if eta_means is not None:
        mean += np.einsum("jtm,jm->jt", z, eta_means)
        if eta_covs is not None:
            var += np.einsum("jta,jab,jtb->jt", z, eta_covs, z)
    present = ~np.isnan(x).any(axis=-1)
    rows = []
    for name, *county in zip(meta["county_names"], present.tolist(), mean.tolist(),
                             np.sqrt(var).tolist()):
        for t, (ok, mu, sd) in enumerate(zip(*county)):
            rows.append({"county": name, "t": t, "mean": mu if ok else None,
                         "sd": sd if ok else None, "present": ok})
    return rows
