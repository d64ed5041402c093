"""Reference values computed apart from mlevidence, from the raw rows.

Nothing here imports the package under test.  Each function works on the
raw response, design rows and group labels (as the CSV files hold them)
and uses dense linear algebra or quadrature rather than the package's
sufficient statistics, so an error in ``likelihood_core`` or in the
sampler cannot cancel out of a comparison.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.special import gammaln

LOG_2PI = float(np.log(2.0 * np.pi))


def read_columns(path):
    """Every column of a CSV file as a list of strings, keyed by header name."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            for h, cell in zip(header, row):
                cols[h].append(cell)
    return cols


def dense_labels(labels):
    """Labels mapped to 0..J-1 in first-appearance order."""
    seen = {}
    return np.array([seen.setdefault(lab, len(seen)) for lab in labels]), list(seen)


def eta_covariance(variances, rho, pattern):
    """Group-level covariance: diagonal variances, rho * sd_r * sd_c at the pattern."""
    v = np.asarray(variances, dtype=float)
    cov = np.diag(v)
    for r, c in pattern:
        cov[r, c] = cov[c, r] = rho * np.sqrt(v[r] * v[c])
    return cov


def dense_log_marginal(y, x, z, group, mu, cov_beta, cov_eta, s2y):
    """log N(y; X mu, s2y I + X S_b X^T + blockdiag_j Z_j S_eta Z_j^T), one n x n Cholesky."""
    n = y.shape[0]
    V = s2y * np.eye(n) + x @ cov_beta @ x.T
    if cov_eta is not None:
        V += (z @ cov_eta @ z.T) * (group[:, None] == group[None, :])
    L = cholesky(V, lower=True)
    r = solve_triangular(L, y - x @ mu, lower=True)
    return -0.5 * (n * LOG_2PI + 2.0 * np.sum(np.log(np.diag(L))) + r @ r)


class RandomInterceptMarginal:
    """log N(y; X mu, s2y I + U D U^T) with U = [X, G], D = blockdiag(S_b, s2e I_J).

    G is the n x J group-indicator matrix; the n x n matrix is never formed
    (matrix determinant lemma and Woodbury on the (d+J)-wide block), so a
    whole grid of (s2y, s2e) points is evaluated in one batch.
    ``group=None`` drops the group block (the single-level model).
    """

    def __init__(self, y, x, group, mu, cov_beta):
        self.n, self.d = x.shape
        if group is None:
            U = x
            self.J = 0
        else:
            self.J = int(group.max()) + 1
            U = np.hstack([x, np.eye(self.J)[group]])
        r = y - x @ mu
        self.UtU = U.T @ U
        self.Utr = U.T @ r
        self.rr = float(r @ r)
        c = cho_factor(cov_beta, lower=True)
        self.prec_beta = cho_solve(c, np.eye(self.d))
        self.logdet_beta = 2.0 * float(np.sum(np.log(np.diag(c[0]))))

    def __call__(self, s2y, s2e=None, chunk=256):
        s2y = np.atleast_1d(np.asarray(s2y, dtype=float))
        s2e = np.ones_like(s2y) if s2e is None else np.atleast_1d(np.asarray(s2e, dtype=float))
        out = np.empty(s2y.shape[0])
        k = self.d + self.J
        for lo in range(0, s2y.shape[0], chunk):
            sy, se = s2y[lo:lo + chunk], s2e[lo:lo + chunk]
            M = np.zeros((sy.shape[0], k, k))
            M[:, :self.d, :self.d] = self.prec_beta
            jj = np.arange(self.d, k)
            M[:, jj, jj] += 1.0 / se[:, None]
            M += self.UtU[None] / sy[:, None, None]
            L = np.linalg.cholesky(M)
            t = np.linalg.solve(L, (self.Utr[None] / sy[:, None])[:, :, None])[:, :, 0]
            logdet_v = (
                self.n * np.log(sy) + self.logdet_beta + self.J * np.log(se)
                + 2.0 * np.sum(np.log(np.einsum("pii->pi", L)), axis=1)
            )
            quad = self.rr / sy - np.sum(t * t, axis=1)
            out[lo:lo + chunk] = -0.5 * (self.n * LOG_2PI + logdet_v + quad)
        return out


def _log_ig_on_log_scale(u, shape, scale):
    """Inverse-gamma log density of v = exp(u), times the Jacobian dv/du."""
    return shape * np.log(scale) - gammaln(shape) - shape * u - scale * np.exp(-u)


def quadrature_log_evidence(marginal, igs, order=64):
    """Gauss-Legendre log evidence over the log-variances (1 or 2 of them).

    The integrand is the marginal likelihood times inverse-gamma priors on
    the variances, on the log scale.  The box is centred at the mode with
    half-widths of 12 marginal standard deviations from a finite-difference
    Hessian.  Returns (value, change from order/2 to order).
    """
    k = len(igs)

    def logf(u):
        u = np.atleast_2d(u)
        s2e = np.exp(u[:, 1]) if k == 2 else None
        val = marginal(np.exp(u[:, 0]), s2e)
        for i, (shape, scale) in enumerate(igs):
            val = val + _log_ig_on_log_scale(u[:, i], shape, scale)
        return val

    axes = [np.linspace(-9.0, 3.0, 49)] * k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    start = grid[np.argmax(logf(grid))]
    res = minimize(lambda u: -logf(u)[0], start, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-11, "maxiter": 5000})
    mode = res.x
    h = 1e-4
    H = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            ei, ej = np.eye(k)[i] * h, np.eye(k)[j] * h
            H[i, j] = -(logf(mode + ei + ej)[0] - logf(mode + ei - ej)[0]
                        - logf(mode - ei + ej)[0] + logf(mode - ei - ej)[0]) / (4 * h * h)
    half = 12.0 * np.sqrt(np.diag(np.linalg.inv(H)))

    def gauss_legendre(m):
        nodes, weights = np.polynomial.legendre.leggauss(m)
        pts = [mode[i] + half[i] * nodes for i in range(k)]
        wts = [half[i] * weights for i in range(k)]
        p = np.stack(np.meshgrid(*pts, indexing="ij"), axis=-1).reshape(-1, k)
        lw = sum(np.log(w) for w in np.meshgrid(*wts, indexing="ij")).ravel()
        vals = logf(p) + lw
        top = np.max(vals)
        return top + np.log(np.sum(np.exp(vals - top)))

    coarse, fine = gauss_legendre(order // 2), gauss_legendre(order)
    return fine, abs(fine - coarse)


def nig_log_evidence_t(y, x, mu, cov, gamma, shape, scale):
    """Conjugate-model evidence as a multivariate-t density of y.

    y ~ t_{2a}(X mu, (b/a)(I + gamma X S X^T)), from one n x n Cholesky.
    """
    n = y.shape[0]
    nu = 2.0 * shape
    S = (scale / shape) * (np.eye(n) + gamma * x @ cov @ x.T)
    L = cholesky(S, lower=True)
    r = solve_triangular(L, y - x @ mu, lower=True)
    return (
        gammaln(0.5 * (nu + n)) - gammaln(0.5 * nu) - 0.5 * n * np.log(nu * np.pi)
        - np.sum(np.log(np.diag(L))) - 0.5 * (nu + n) * np.log1p(r @ r / nu)
    )


def nig_posterior_moments(y, x, mu, cov, gamma, shape, scale):
    """Posterior mean of the coefficients and E[sigma^2 | y] times the precision inverse.

    The coefficient posterior is a mixture over sigma^2 of N(m_n, sigma^2
    Lambda_n^-1); its covariance is E[sigma^2 | y] Lambda_n^-1 with
    E[sigma^2 | y] = b_n / (a_n - 1).
    """
    n = y.shape[0]
    prec0 = np.linalg.inv(gamma * cov)
    prec_n = prec0 + x.T @ x
    c = cho_factor(prec_n, lower=True)
    mean = cho_solve(c, prec0 @ mu + x.T @ y)
    a_n = shape + 0.5 * n
    b_n = scale + 0.5 * (y @ y + mu @ prec0 @ mu - mean @ prec_n @ mean)
    return mean, (b_n / (a_n - 1.0)) * cho_solve(c, np.eye(x.shape[1]))


def ols_max_loglik(y, x):
    """Gaussian log likelihood maximized over coefficients and noise variance."""
    coef = np.linalg.lstsq(x, y, rcond=None)[0]
    rss = float(np.sum((y - x @ coef) ** 2))
    n = y.shape[0]
    return -0.5 * n * (np.log(2.0 * np.pi * rss / n) + 1.0)


def gls_loglik(y, x, group, s2y, s2e):
    """Random-intercept log likelihood at fixed variances, coefficients by GLS (dense n x n)."""
    n = y.shape[0]
    V = s2y * np.eye(n) + s2e * (group[:, None] == group[None, :])
    c = cho_factor(V, lower=True)
    vx = cho_solve(c, x)
    coef = np.linalg.solve(x.T @ vx, vx.T @ y)
    r = y - x @ coef
    return -0.5 * (n * LOG_2PI + 2.0 * np.sum(np.log(np.diag(c[0]))) + r @ cho_solve(c, r))


def standardize(values):
    v = np.asarray(values, dtype=float)
    return (v - v.mean()) / v.std(ddof=1)


def radon_design(path, model_id):
    """(y, X, group) of radon models M0, M1 and M4 rebuilt from the raw CSV.

    Log radon is standardized over homes and log uranium over counties
    (one value per county), both with the n-1 denominator.
    """
    cols = read_columns(path)
    group, _ = dense_labels(cols["county"])
    floor = np.array([float(v) for v in cols["floor"]])
    y = standardize([float(v) for v in cols["log_radon"]])
    u = np.array([float(v) for v in cols["log_uranium"]])
    first = np.unique(group, return_index=True)[1]
    u_county = u[first]
    v = (u - u_county.mean()) / u_county.std(ddof=1)
    if model_id == "M0":
        x = np.column_stack([1.0 - floor, floor])
    elif model_id in ("M1", "M4"):
        x = np.column_stack([1.0 - floor, floor, v])
    else:
        raise ValueError(model_id)
    return y, x, group
