"""Closed-form evidence for the conjugate linear model and quadrature oracles.

The conjugate family admits an exact posterior and log evidence; everything
else is validated against low-dimensional numerical integration of the full
likelihood times the priors.  The quadrature routine works in log space
with a max-shift, places tensor-product Gauss-Legendre nodes after a
mode/curvature scan, and refines the order until the change falls below
the error target.  The closed forms need only NumPy; the oracle, being the
independent reference, imports SciPy when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mlevidence.likelihood_core import LOG_2PI, chol_inverse
from mlevidence.model_spec import assemble_sigma_eta


class QuadratureError(RuntimeError):
    """The integration dimension is too large or refinement did not converge."""


@dataclass(frozen=True)
class NIGPosterior:
    """Conjugate posterior: inverse-gamma (shape, scale) times Gaussian (mean, cov-factor)."""

    shape: float
    scale: float
    mean: np.ndarray
    cov_factor: np.ndarray

    def __post_init__(self):
        self.mean.setflags(write=False)
        self.cov_factor.setflags(write=False)


def _effective_prior_cov(spec):
    # The conjugate prior scales the coefficient covariance by gamma (and by
    # sigma2, which the closed forms absorb).
    return spec.gamma * spec.prior_cov


def _nig_update(stats, spec):
    """The conjugate update of :func:`nig_posterior`, with log|prior cov| and log|Ln|."""
    if spec.family != "LinearModelNIG":
        raise ValueError("the conjugate update requires the LinearModelNIG family")
    _, Li, logdet_prior = chol_inverse(_effective_prior_cov(spec))
    prec = Li.T @ Li
    _, LAi, logdet_post = chol_inverse(prec + stats.gram_xx)
    cov_factor = LAi.T @ LAi
    cov_factor = 0.5 * (cov_factor + cov_factor.T)
    prec_mu = prec @ spec.prior_mean
    rhs = prec_mu + stats.sum_xy
    mean = LAi.T @ (LAi @ rhs)
    b_post = spec.ig_y.scale + 0.5 * (
        stats.sum_yy + float(spec.prior_mean @ prec_mu) - float(rhs @ mean)
    )
    post = NIGPosterior(
        shape=stats.n / 2.0 + spec.ig_y.shape, scale=float(b_post), mean=mean, cov_factor=cov_factor
    )
    return post, logdet_prior, logdet_post


def nig_posterior(stats, spec):
    """Exact posterior update for the conjugate family.

    With prior precision L0 = (gamma * prior_cov)^-1 and prior mean mu0:
    Ln = L0 + X^T X, mun = Ln^-1 (L0 mu0 + X^T y) and
    bn = b + (y^T y + mu0^T L0 mu0 - mun^T Ln mun) / 2.
    """
    return _nig_update(stats, spec)[0]


def nig_log_evidence(stats, spec):
    """Closed-form log model evidence for the conjugate linear model."""
    post, logdet_prior, logdet_post = _nig_update(stats, spec)
    a, b = spec.ig_y.shape, spec.ig_y.scale
    return -0.5 * (
        logdet_post + logdet_prior + stats.n * LOG_2PI
        - 2.0 * a * np.log(b) + (2.0 * a + stats.n) * np.log(post.scale)
        - 2.0 * math.lgamma(stats.n / 2.0 + a) + 2.0 * math.lgamma(a)
    )


_CHUNK = 131072


def _gauss_legendre_log_integral(logf, center, half_widths, order):
    """log of the integral of exp(logf) over a centered box, tensor Gauss-Legendre.

    ``logf`` must accept an (N, k) array and return (N,) values; it is
    called in chunks to bound peak memory.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes, wts = [], []
    for c, h in zip(center, half_widths):
        axes.append(c + h * nodes)
        wts.append(h * weights)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*wts, indexing="ij")
    logw = sum(np.log(g.ravel()) for g in wgrids)
    vals = np.concatenate(
        [logf(pts[i:i + _CHUNK]) for i in range(0, pts.shape[0], _CHUNK)]
    ) + logw
    shift = np.max(vals)
    if not np.isfinite(shift):
        return -np.inf
    return shift + np.log(np.sum(np.exp(vals - shift)))


def _latent_layout(data, spec):
    """Latent coordinates integrated by the integrated-likelihood evaluators."""
    meff = spec.layout.group_width
    return data.d, data.J if meff else 0, meff


def _full_loglik_rows_batch(data, beta, eta_flat, z_effects, sigma2_y):
    """Row-by-row Gaussian log likelihood over (N, .) blocks, independent of SufficientStats.

    ``z_effects`` is the spec's group-effect kind: None (no group effects),
    False (one intercept per group, whatever z columns the data carry) or
    True (one coefficient per z column).
    """
    mean = beta @ data.x.T                                # (N, n)
    if z_effects is False:
        mean = mean + eta_flat[:, data.group_of - 1]
    elif z_effects:
        eta = eta_flat.reshape(eta_flat.shape[0], data.J, -1)[:, data.group_of - 1, :]
        mean = mean + np.einsum("im,Nim->Ni", data.z, eta)
    resid = data.y[None, :] - mean
    s2 = np.asarray(sigma2_y, dtype=float)
    return -0.5 * (data.n * (LOG_2PI + np.log(s2)) + np.sum(resid * resid, axis=1) / s2)


def quadrature_log_integrated(data, spec, theta, *, target=1e-8, max_order=160):
    """Oracle for the integrated likelihoods: integrate latent coordinates only.

    Evaluates log of the integral over (coefficients, group effects) of the
    row-wise full likelihood times the Gaussian priors, at the fixed
    variance point ``theta``.  Total latent dimension must be at most 3.
    """
    from scipy.linalg import cholesky, solve_triangular

    d, J, meff = _latent_layout(data, spec)
    k = d + J * meff
    if k > 3:
        raise QuadratureError(f"latent dimension {k} exceeds the oracle limit of 3")

    sigma2_y = theta.sigma2_y
    if spec.family == "LinearModelNIG":
        prior_cov = spec.gamma * sigma2_y * spec.prior_cov
    else:
        prior_cov = spec.prior_cov
    Lb = cholesky(prior_cov, lower=True)
    logdet_b = 2.0 * float(np.sum(np.log(np.diag(Lb))))

    if spec.family == "SimpleMultilevel":
        eta_cov = np.array([[theta.sigma2_eta]])
    elif spec.family == "GeneralMultilevel":
        eta_cov = assemble_sigma_eta(spec.eta_structure, *theta.nu)
    else:
        eta_cov = None
    if eta_cov is not None:
        Le = cholesky(eta_cov, lower=True)
        logdet_e = 2.0 * float(np.sum(np.log(np.diag(Le))))

    def log_joint(pts):
        beta = pts[:, :d]
        eta_flat = pts[:, d:]
        val = _full_loglik_rows_batch(data, beta, eta_flat, spec.layout.z_effects, sigma2_y)
        t = solve_triangular(Lb, (beta - spec.prior_mean[None, :]).T, lower=True)
        val = val - 0.5 * (d * LOG_2PI + logdet_b + np.sum(t * t, axis=0))
        if eta_cov is not None:
            te = solve_triangular(Le, eta_flat.reshape(-1, meff).T, lower=True)
            quad = np.sum(te * te, axis=0).reshape(-1, J).sum(axis=1)
            val = val - 0.5 * (J * (meff * LOG_2PI + logdet_e) + quad)
        return val

    return _adaptive_log_integral(log_joint, k, target=target, max_order=max_order)


def _adaptive_log_integral(log_joint, k, *, target, max_order, start=None):
    """Mode/curvature scan, then Gauss-Legendre refinement until stable."""
    from scipy.optimize import minimize

    x0 = np.zeros(k) if start is None else np.asarray(start, dtype=float)
    res = minimize(lambda p: -log_joint(p[None, :])[0], x0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    mode = res.x
    # Full central-difference Hessian at the mode; the box half-widths come
    # from the *marginal* standard deviations sqrt(diag(H^-1)).  Axis-wise
    # curvatures alone give conditional deviations, which under-cover
    # strongly correlated integrands.
    h = 1e-4
    f0 = log_joint(mode[None, :])[0]
    H = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h
        fp = log_joint((mode + ei)[None, :])[0]
        fm = log_joint((mode - ei)[None, :])[0]
        H[i, i] = -(fp - 2.0 * f0 + fm) / (h * h)
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h
            fpp = log_joint((mode + ei + ej)[None, :])[0]
            fpm = log_joint((mode + ei - ej)[None, :])[0]
            fmp = log_joint((mode - ei + ej)[None, :])[0]
            fmm = log_joint((mode - ei - ej)[None, :])[0]
            H[i, j] = H[j, i] = -(fpp - fpm - fmp + fmm) / (4.0 * h * h)
    scales = np.empty(k)
    try:
        cov = np.linalg.inv(H)
        diag = np.diag(cov)
        if np.all(np.isfinite(diag)) and np.all(diag > 0):
            scales = np.sqrt(diag)
        else:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        for i in range(k):
            scales[i] = 1.0 / np.sqrt(H[i, i]) if H[i, i] > 0 else 1.0
    half = 10.0 * scales

    prev = None
    order = 40
    while order <= max_order:
        val = _gauss_legendre_log_integral(log_joint, mode, half, order)
        if prev is not None and abs(val - prev) < target:
            return val, abs(val - prev)
        prev = val
        order *= 2
    return prev, np.inf


def quadrature_evidence(data, spec, *, target=1e-8, max_order=160):
    """Numerical model evidence for oracle-sized instances.

    Integrates the full likelihood times all priors.  Variance components
    are integrated on the log scale (with the Jacobian); for the integrated
    likelihood at one variance point, see :func:`quadrature_log_integrated`.
    Returns ``(log_value, achieved_error)``.
    """
    from scipy.linalg import cholesky, solve_triangular
    from scipy.special import gammaln

    d, J, meff = _latent_layout(data, spec)
    if spec.layout.rho_sampled:
        raise QuadratureError("sampled correlations are outside the oracle's reach")
    igs = spec.layout.igs
    n_var = len(igs)
    k = d + J * meff + n_var
    if k > 3:
        raise QuadratureError(f"integration dimension {k} exceeds the oracle limit of 3")

    Lb = cholesky(spec.prior_cov, lower=True)
    logdet_b = 2.0 * float(np.sum(np.log(np.diag(Lb))))

    def log_joint(pts):
        beta = pts[:, :d]
        eta_flat = pts[:, d:d + J * meff]
        u = pts[:, d + J * meff:]
        theta_nat = np.exp(u)
        s2 = theta_nat[:, 0]
        val = _full_loglik_rows_batch(data, beta, eta_flat, spec.layout.z_effects, s2)
        t = solve_triangular(Lb, (beta - spec.prior_mean[None, :]).T, lower=True)
        quad_b = np.sum(t * t, axis=0)
        if spec.family == "LinearModelNIG":
            g = spec.gamma * s2
            val = val - 0.5 * (d * (LOG_2PI + np.log(g)) + logdet_b + quad_b / g)
        else:
            val = val - 0.5 * (d * LOG_2PI + logdet_b + quad_b)
        if spec.family == "SimpleMultilevel":
            s2e = theta_nat[:, 1]
            quad_e = np.sum(eta_flat * eta_flat, axis=1)
            val = val - 0.5 * (J * (LOG_2PI + np.log(s2e)) + quad_e / s2e)
        # Inverse-gamma variance priors plus the log-scale Jacobian.
        for i, ig in enumerate(igs):
            v = theta_nat[:, i]
            val = val + (
                ig.shape * np.log(ig.scale) - gammaln(ig.shape)
                - (ig.shape + 1.0) * np.log(v) - ig.scale / v + u[:, i]
            )
        return val

    start = np.zeros(k)
    start[d + J * meff:] = np.log(
        [spec.ig_y.mean if np.isfinite(spec.ig_y.mean) else 1.0] * n_var
    )
    return _adaptive_log_integral(log_joint, k, target=target, max_order=max_order, start=start)
