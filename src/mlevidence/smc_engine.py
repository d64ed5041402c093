"""Tempered sequential Monte Carlo over variance space (or the full parameter space).

The sampler bridges prior and posterior through an adaptively chosen
tempering ladder: the next exponent is found by bisection so the effective
sample size after reweighting stays at a target fraction of the cloud,
systematic resampling is applied when the ESS falls below its floor, and
particles are refreshed by random-walk Metropolis sweeps whose proposal
covariance tracks the weighted cloud covariance.  The log evidence is the
sum over stages of the log weighted mean incremental weight.

Variance parameters are sampled on the log scale and correlations through
atanh, with prior Jacobians included, so proposals never leave the support.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

from mlevidence.likelihood_core import CoefPrior, batch_log_full, batch_log_integrated, solve_lower

SEED_SPLIT_MULTIPLIER = 0x9E3779B97F4A7C15  # run k uses master_seed XOR (k+1) * this, mod 2^64
_SWEEPS_BY_MODE = {"integrated": 10, "full": 25}


class DegenerateCloudError(RuntimeError):
    """Every particle in the cloud has zero posterior density."""

    def __init__(self, stage):
        super().__init__(f"all particles rejected at stage {stage}")
        self.stage = stage


@dataclass
class ParticleCloud:
    """Weighted particles on the sampling scale, with tempering state."""

    particles: np.ndarray       # (N, dim)
    log_weights: np.ndarray     # (N,), normalized
    beta_temper: float
    log_z_increments: list
    rng_seed: int
    stage: int
    accept_rate: float = float("nan")
    ess_trace: tuple = ()    # ESS after each stage's resample decision

    @property
    def n_particles(self):
        return self.particles.shape[0]

    def normalized_weights(self):
        w = np.exp(self.log_weights - logsumexp(self.log_weights))
        return w / w.sum()

    def ess(self):
        w = self.normalized_weights()
        return 1.0 / float(w @ w)


@dataclass(frozen=True)
class EvidenceEstimate:
    """Per-run log-evidence values with mean/std aggregation."""

    runs: tuple
    mean: float
    std: float
    draws_per_stage: int
    likelihood_mode: str
    single_run: bool = False
    stage_counts: tuple = ()

    @staticmethod
    def from_runs(runs, draws_per_stage, likelihood_mode, stage_counts=()):
        runs = tuple(float(r) for r in runs)
        if len(runs) < 1:
            raise ValueError("need at least one run")
        single = len(runs) == 1
        mean = float(np.mean(runs))
        std = 0.0 if single else float(np.std(runs, ddof=1))
        return EvidenceEstimate(
            runs=runs, mean=mean, std=std, draws_per_stage=draws_per_stage,
            likelihood_mode=likelihood_mode, single_run=single,
            stage_counts=tuple(int(s) for s in stage_counts),
        )


# ---------------------------------------------------------------------------
# Target construction: sampling-scale priors and likelihoods per family/mode.
# ---------------------------------------------------------------------------

def _ig_log_density(v, shape, scale):
    from scipy.special import gammaln
    return shape * np.log(scale) - gammaln(shape) - (shape + 1.0) * np.log(v) - scale / v


_TRUNCNORM_LOGNORM = float(np.log(ndtr(1.0) - ndtr(-1.0)))


def _truncnorm_logpdf(rho):
    out = np.where(
        (rho > -1.0) & (rho < 1.0),
        -0.5 * (np.log(2.0 * np.pi) + rho * rho) - _TRUNCNORM_LOGNORM,
        -np.inf,
    )
    return out


def _sample_truncnorm(rng, size):
    lo, hi = ndtr(-1.0), ndtr(1.0)
    return ndtri(lo + rng.random(size) * (hi - lo))


class _Target:
    """dim, sample_prior(rng, N), log_prior(U), log_lik(U) on the sampling scale."""

    def __init__(self, dim, sample_prior, log_prior, log_lik):
        self.dim = dim
        self.sample_prior = sample_prior
        self.log_prior = log_prior
        self.log_lik = log_lik


def variance_block_to_natural(spec, block):
    """Map sampling-scale variance rows to natural (variance, correlation) rows."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    layout = spec.layout
    k = len(layout.igs)
    nat = np.exp(block[:, :k])
    if layout.rho_sampled:
        nat = np.column_stack([nat, np.tanh(block[:, k])])
    return nat


def _variance_block_log_prior(spec, block):
    layout = spec.layout
    logp = np.zeros(block.shape[0])
    for i, ig in enumerate(layout.igs):
        u = block[:, i]
        v = np.exp(u)
        logp += _ig_log_density(v, ig.shape, ig.scale) + u  # + u: Jacobian of log scale
    if layout.rho_sampled:
        r = block[:, len(layout.igs)]
        rho = np.tanh(r)
        logp += _truncnorm_logpdf(rho) + np.log1p(-rho * rho)
    return logp


def _sample_variance_block(spec, rng, size):
    layout = spec.layout
    cols = [np.log(1.0 / rng.gamma(ig.shape, 1.0 / ig.scale, size)) for ig in layout.igs]
    if layout.rho_sampled:
        cols.append(np.arctanh(_sample_truncnorm(rng, size)))
    return np.column_stack(cols)


def build_target(stats, spec, mode):
    """Assemble the tempered-SMC target for the given likelihood mode."""
    if mode not in ("integrated", "full"):
        raise ValueError("mode must be 'integrated' or 'full'")
    layout = spec.layout
    nv = layout.n_params

    if mode == "integrated":
        lik = batch_log_integrated(stats, spec)

        def log_lik(U):
            return lik(variance_block_to_natural(spec, U))

        return _Target(
            dim=nv,
            sample_prior=lambda rng, size: _sample_variance_block(spec, rng, size),
            log_prior=lambda U: _variance_block_log_prior(spec, U),
            log_lik=log_lik,
        )

    d = stats.d
    meff = layout.group_width
    J = stats.J if meff else 0
    dim = d + J * meff + nv
    lik = batch_log_full(stats, spec)
    prior = CoefPrior.of(spec)
    mu = spec.prior_mean

    def split(U):
        beta = U[:, :d]
        eta = U[:, d:d + J * meff]
        block = U[:, d + J * meff:]
        return beta, eta, block

    def beta_scale(block):
        """Scale of the coefficient prior covariance: gamma * sigma2 in the conjugate family."""
        if spec.gamma is None:
            return np.ones(block.shape[0])
        return spec.gamma * np.exp(block[:, 0])

    def log_prior(U):
        beta, eta, block = split(U)
        db = beta - mu[None, :]
        g = beta_scale(block)
        logp = -0.5 * (
            d * (np.log(2.0 * np.pi) + np.log(g)) + prior.logdet
            + np.einsum("pa,ab,pb->p", db, prior.prec, db, optimize=True) / g
        )
        logp += _variance_block_log_prior(spec, block)
        if meff:
            se, ok = layout.sigma_eta(variance_block_to_natural(spec, block))
            Le = np.linalg.cholesky(se)
            logdet_e = 2.0 * np.sum(np.log(np.einsum("pii->pi", Le)), axis=1)
            eta3 = eta.reshape(U.shape[0], J, meff)
            t = solve_lower(Le[:, None], eta3[..., None])[..., 0]
            quad = np.sum(t * t, axis=(1, 2))
            logp += -0.5 * (J * (meff * np.log(2.0 * np.pi) + logdet_e) + quad)
            logp = np.where(ok, logp, -np.inf)
        return logp

    def sample_prior(rng, size):
        block = _sample_variance_block(spec, rng, size)
        z = rng.standard_normal((size, d)) @ prior.chol.T
        parts = [mu[None, :] + np.sqrt(beta_scale(block))[:, None] * z]
        if meff:
            se, _ = layout.sigma_eta(variance_block_to_natural(spec, block))
            Le = np.linalg.cholesky(se)
            z = rng.standard_normal((size, J, meff))
            eta3 = np.einsum("pab,pjb->pja", Le, z)
            parts.append(eta3.reshape(size, J * meff))
        parts.append(block)
        return np.column_stack(parts)

    def log_lik(U):
        beta, eta, block = split(U)
        return lik(beta, eta if meff else None, np.exp(block[:, 0]))

    return _Target(dim=dim, sample_prior=sample_prior, log_prior=log_prior, log_lik=log_lik)


# ---------------------------------------------------------------------------
# SMC machinery.
# ---------------------------------------------------------------------------

def _ess(logw):
    """Effective sample size ``(sum w)^2 / sum w^2`` of unnormalized log weights."""
    w = np.exp(logw - np.max(logw))
    total = float(np.sum(w))
    return total * total / float(w @ w)


def _next_beta(beta, logw, loglik, target_ess):
    step_full = (1.0 - beta) * loglik
    if _ess(logw + step_full) >= target_ess:
        return 1.0
    lo, hi = beta, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float lies strictly between them
            break
        if _ess(logw + (mid - beta) * loglik) >= target_ess:
            lo = mid
        else:
            hi = mid
    if lo <= beta:
        lo = min(1.0, beta + 1e-6)  # guard against a stalled ladder
    return lo


def systematic_resample(weights, rng):
    """Systematic resampling; returns selected indices."""
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0
    return np.searchsorted(cumsum, positions)


def _weighted_cov(U, w):
    mean = w @ U
    diff = U - mean[None, :]
    cov = (diff * w[:, None]).T @ diff
    return 0.5 * (cov + cov.T)


def _proposal_chol(U, w, dim):
    cov = _weighted_cov(U, w) * (2.38 ** 2 / dim)
    jitter = 1e-10 * max(1.0, float(np.trace(cov)) / dim)
    for _ in range(6):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    return np.sqrt(np.clip(np.diag(cov), 1e-12, None))[:, None] * np.eye(dim)


def _mh_sweeps(U, logprior, loglik, beta, target, sweeps, prop_chol, rng):
    """Batched random-walk Metropolis; returns updated arrays and acceptance rate."""
    n_acc = 0
    n_tot = 0
    for _ in range(sweeps):
        prop = U + rng.standard_normal(U.shape) @ prop_chol.T
        lp_prop = target.log_prior(prop)
        ll_prop = target.log_lik(prop)
        cur = logprior + beta * loglik
        new = lp_prop + beta * ll_prop
        with np.errstate(invalid="ignore"):
            log_ratio = new - cur
        accept = np.log(rng.random(U.shape[0])) < log_ratio
        U = np.where(accept[:, None], prop, U)
        logprior = np.where(accept, lp_prop, logprior)
        loglik = np.where(accept, ll_prop, loglik)
        n_acc += int(accept.sum())
        n_tot += accept.shape[0]
    rate = n_acc / n_tot if n_tot else float("nan")
    return U, logprior, loglik, rate


def mh_rejuvenate(cloud, target_logdensity, sweeps, rng=None):
    """Random-walk Metropolis refresh of a cloud against an arbitrary target.

    The proposal covariance is the weighted empirical covariance of the
    cloud scaled by 2.38^2 / dim.  ``sweeps = 0`` returns the cloud
    unchanged.
    """
    if sweeps == 0:
        return cloud
    if rng is None:
        rng = np.random.default_rng(
            (int(cloud.rng_seed) ^ ((cloud.stage + 1) * SEED_SPLIT_MULTIPLIER)) % 2 ** 64
        )
    U = np.array(cloud.particles, dtype=float)
    dim = U.shape[1]
    prop_chol = _proposal_chol(U, cloud.normalized_weights(), dim)
    # The whole density rides in log_prior; a zero log_lik at beta = 1 adds nothing.
    target = _Target(dim, None, target_logdensity, lambda V: np.zeros(V.shape[0]))
    U, _, _, rate = _mh_sweeps(
        U, target_logdensity(U), np.zeros(U.shape[0]), 1.0, target, sweeps, prop_chol, rng
    )
    return replace(cloud, particles=U, accept_rate=rate)


def run_smc(stats, spec, mode, n_particles, seed, *, sweeps=None,
            ess_target_frac=0.5, resample_threshold_frac=0.5, max_stages=1000):
    """One tempered-SMC run; returns (log_evidence, ParticleCloud).

    Particles are initialized from the prior, the tempering exponent is
    advanced adaptively, and the evidence accumulates the log weighted
    mean of the incremental weights at every stage.
    """
    if n_particles < 50:
        raise ValueError("n_particles must be at least 50")
    if mode not in _SWEEPS_BY_MODE:
        raise ValueError("mode must be 'integrated' or 'full'")
    if sweeps is None:
        sweeps = _SWEEPS_BY_MODE[mode]
    target = build_target(stats, spec, mode)
    rng = np.random.default_rng(int(seed) % 2 ** 64)
    N = n_particles

    U = target.sample_prior(rng, N)
    loglik = target.log_lik(U)
    logprior = target.log_prior(U)
    logw = np.zeros(N)
    beta = 0.0
    increments = []
    ess_trace = []
    stage = 0
    accept_rate = float("nan")

    while beta < 1.0:
        stage += 1
        if stage > max_stages:
            raise RuntimeError("tempering ladder failed to reach 1")
        finite = np.isfinite(logw + loglik)
        if not np.any(finite):
            raise DegenerateCloudError(stage)
        new_beta = _next_beta(beta, logw, loglik, ess_target_frac * N)
        # Floor the step so the ladder always reaches 1 within max_stages:
        # badly mixing targets would otherwise stall on vanishing increments.
        min_step = (1.0 - beta) / max(1, max_stages - stage)
        new_beta = min(1.0, max(new_beta, beta + min_step))
        delta = new_beta - beta
        with np.errstate(invalid="ignore"):
            stepped = logw + delta * loglik
        incr = float(logsumexp(stepped) - logsumexp(logw))
        increments.append(incr)
        logw = stepped
        beta = new_beta
        if not np.isfinite(logsumexp(logw)):
            raise DegenerateCloudError(stage)

        w = np.exp(logw - logsumexp(logw))
        w = w / w.sum()
        if _ess(logw) < resample_threshold_frac * N:
            idx = systematic_resample(w, rng)
            U = U[idx]
            loglik = loglik[idx]
            logprior = logprior[idx]
            logw = np.zeros(N)
            w = np.full(N, 1.0 / N)
        ess_trace.append(_ess(logw))
        if sweeps > 0:
            prop_chol = _proposal_chol(U, w, target.dim)
            U, logprior, loglik, accept_rate = _mh_sweeps(
                U, logprior, loglik, beta, target, sweeps, prop_chol, rng
            )

    log_weights = logw - logsumexp(logw)
    cloud = ParticleCloud(
        particles=U,
        log_weights=log_weights,
        beta_temper=1.0,
        log_z_increments=increments,
        rng_seed=int(seed),
        stage=stage,
        accept_rate=accept_rate,
        ess_trace=tuple(ess_trace),
    )
    return float(np.sum(increments)), cloud


def derive_run_seed(master_seed, run_index):
    """Deterministic, documented per-run seed splitting."""
    return (int(master_seed) ^ (((run_index + 1) * SEED_SPLIT_MULTIPLIER) % 2 ** 64)) % 2 ** 64


def estimate_evidence(stats, spec, mode, n_runs, n_particles, master_seed, *,
                      sweeps=None, jobs=1):
    """Independent SMC runs with derived seeds, aggregated to an EvidenceEstimate."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    seeds = [derive_run_seed(master_seed, k) for k in range(n_runs)]

    def one(seed):
        logz, cloud = run_smc(stats, spec, mode, n_particles, seed, sweeps=sweeps)
        return logz, cloud.stage

    if jobs > 1 and n_runs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(s) for s in seeds]
    runs = [r[0] for r in results]
    stages = [r[1] for r in results]
    return EvidenceEstimate.from_runs(
        runs, draws_per_stage=n_particles, likelihood_mode=mode, stage_counts=stages
    )
