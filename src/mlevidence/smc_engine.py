"""Tempered sequential Monte Carlo over variance space (or the full parameter space).

The sampler bridges prior and posterior through an adaptively chosen
tempering ladder: the next exponent is found by bisection so the effective
sample size after reweighting stays at a target fraction of the cloud,
systematic resampling is applied when the ESS falls below its floor, and
particles are refreshed by Metropolis-Hastings sweeps fitted to the weighted
cloud.  The log evidence is the sum over stages of the log weighted mean
incremental weight.

In integrated mode only the 1-6 variance parameters are sampled, and a
proposal fitted to the cloud is close to the target itself.  Each stage
steps to an ESS of 0.8 N, resamples, and makes 3 sweeps of independence
moves: every proposal is drawn from a multivariate t with 4 degrees of
freedom centred at the cloud's weighted mean, with its weighted covariance
as scale matrix (South, Pettitt & Drovandi 2019, "Sequential Monte Carlo
samplers with independent Markov chain Monte Carlo proposals").  Full mode
steps to an ESS of 0.5 N, resamples below 0.5 N, and makes 25 random-walk
sweeps per stage, with the weighted covariance times 2.38^2 / dim.

Variance parameters are sampled on the log scale and correlations through
atanh, with prior Jacobians included, so proposals never leave the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from mlevidence.likelihood_core import CoefPrior, batch_log_full, batch_log_integrated, solve_lower

SEED_SPLIT_MULTIPLIER = 0x9E3779B97F4A7C15  # run k uses master_seed XOR (k+1) * this, mod 2^64
# Per mode: MH sweeps per stage; their proposal ("independence": a t fitted
# to the weighted cloud, "random_walk": a Gaussian step from each particle);
# the share of the particles each tempering step keeps as ESS; and the share
# below which a stage resamples (1.0: every stage whose weights differ).
_SWEEPS_BY_MODE = {"integrated": 3, "full": 25}
_PROPOSAL_BY_MODE = {"integrated": "independence", "full": "random_walk"}
_ESS_TARGET_FRAC = {"integrated": 0.8, "full": 0.5}
_RESAMPLE_FRAC = {"integrated": 1.0, "full": 0.5}
_T_DF = 4.0              # degrees of freedom of the independence proposal
_MAX_STAGES = 1000


def _logsumexp(a, axis=-1):
    """``log(sum(exp(a)))`` along ``axis``, shifted by the maximum.

    The terms equal to the maximum are taken out of the sum (as
    ``scipy.special.logsumexp`` does), and a row that is all ``-inf``
    gives ``-inf``, not NaN, so a degenerate cloud stays detectable.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    top = a.max(axis=axis, keepdims=True)
    at_top = a == top
    ties = at_top.sum(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        rest = np.where(at_top, 0.0, np.exp(a - top)).sum(axis=axis, keepdims=True)
    out = np.where(np.isfinite(top), np.log1p(rest / ties) + np.log(ties) + top, top)
    return np.squeeze(out, axis=axis)[()]


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
    forced_steps: int = 0    # stages whose step a ladder guard set, below the ESS target

    @property
    def n_particles(self):
        return self.particles.shape[0]

    def normalized_weights(self):
        w = np.exp(self.log_weights - _logsumexp(self.log_weights))
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
    forced_steps: tuple = ()   # per run, as ParticleCloud.forced_steps

    @staticmethod
    def from_runs(runs, draws_per_stage, likelihood_mode, stage_counts=(), forced_steps=()):
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
            forced_steps=tuple(int(f) for f in forced_steps),
        )


# ---------------------------------------------------------------------------
# Target construction: sampling-scale priors and likelihoods per family/mode.
# ---------------------------------------------------------------------------

def _ig_log_density(v, shape, scale):
    return shape * np.log(scale) - math.lgamma(shape) - (shape + 1.0) * np.log(v) - scale / v


def _ndtr(x):
    """Standard normal CDF of a scalar."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_TRUNCNORM_LO, _TRUNCNORM_HI = _ndtr(-1.0), _ndtr(1.0)
_TRUNCNORM_LOGNORM = math.log(_TRUNCNORM_HI - _TRUNCNORM_LO)


def _truncnorm_logpdf(rho):
    out = np.where(
        (rho > -1.0) & (rho < 1.0),
        -0.5 * (np.log(2.0 * np.pi) + rho * rho) - _TRUNCNORM_LOGNORM,
        -np.inf,
    )
    return out


def _sample_truncnorm(rng, size):
    p = _TRUNCNORM_LO + rng.random(size) * (_TRUNCNORM_HI - _TRUNCNORM_LO)
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(q) for q in p.tolist()])


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
        # tanh rounds to +-1 beyond |r| ~ 19: the Jacobian there is -inf, not log(0).
        jacobian = np.log1p(-rho * rho, out=np.full_like(rho, -np.inf), where=np.abs(rho) < 1.0)
        logp += _truncnorm_logpdf(rho) + jacobian
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
# SMC machinery.  Every function here works on a batch of independent runs:
# arrays carry a leading run axis, and each run keeps its own generator.
# ---------------------------------------------------------------------------

def _ess(logw):
    """Effective sample size ``(sum w)^2 / sum w^2`` of each row of unnormalized log weights.

    The one ESS of the sampler: the tempering bisection, the resample
    decision and the ESS trace all read it, so a step the bisection
    accepts is never judged below the target when the ESS sits on it.
    Rows are reduced independently, so a run's value does not depend on
    the other runs in the batch.
    """
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    total = w.sum(axis=-1)
    return total * total / (w * w).sum(axis=-1)


def _next_beta(beta, logw, loglik, target_ess):
    """Next tempering exponent of each run: the largest step that keeps its ESS at the target.

    ``beta`` (R,), ``logw`` and ``loglik`` (R, N).  Every run is bisected
    at once, each until no float lies strictly between its ends, at most
    60 steps: one ESS call per step for all runs, and each run takes the
    steps of :func:`_bisect` alone.  Once a run's midpoint equals an end,
    the update leaves its ``lo`` as it is.  A batch of one runs
    :func:`_bisect` itself: there the per-run bookkeeping made each step
    about 40% dearer (single 500-particle runs).
    """
    if beta.shape[0] == 1:
        return np.array([_bisect(float(beta[0]), logw[0], loglik[0], target_ess)])
    start = beta.tolist()
    with np.errstate(invalid="ignore"):
        full = _ess(logw + (1.0 - beta)[:, None] * loglik) >= target_ess
        lo = [1.0 if f else b for f, b in zip(full.tolist(), start)]
        hi = [1.0] * len(lo)
        for _ in range(60):
            mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
            if not any(a < m < b for a, m, b in zip(lo, mid, hi)):
                break
            ok = (_ess(logw + (np.array(mid) - beta)[:, None] * loglik) >= target_ess).tolist()
            lo = [m if o else a for m, o, a in zip(mid, ok, lo)]
            hi = [b if o else m for m, o, b in zip(mid, ok, hi)]
    return np.array([a if a > b else min(1.0, b + 1e-6) for a, b in zip(lo, start)])


def _bisect(beta, logw, loglik, target_ess):
    """One run's :func:`_next_beta` on 1-D rows, with no per-run bookkeeping."""
    with np.errstate(invalid="ignore"):
        if _ess(logw + (1.0 - beta) * loglik) >= target_ess:
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
    return lo if lo > beta else min(1.0, beta + 1e-6)  # guard against a stalled ladder


def systematic_resample(weights, rng):
    """Systematic resampling; returns selected indices."""
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0
    return np.searchsorted(cumsum, positions)


def _weighted_cov(U, w):
    """Weighted covariance of each run's cloud: U (R, N, dim), w (R, N) normalized."""
    mean = np.einsum("rn,rnd->rd", w, U)
    diff = U - mean[:, None, :]
    cov = (diff * w[:, :, None]).transpose(0, 2, 1) @ diff
    return 0.5 * (cov + cov.transpose(0, 2, 1))


def _proposal_chol(U, w, dim, proposal):
    """Cholesky factors (R, dim, dim) of each run's proposal scale matrix.

    The independence t takes the weighted cloud covariance itself; the
    random walk takes it times ``2.38^2 / dim``.
    """
    cov = _weighted_cov(U, w)
    if proposal == "random_walk":
        cov = cov * (2.38 ** 2 / dim)
    jitter = 1e-10 * np.maximum(1.0, np.trace(cov, axis1=1, axis2=2) / dim)
    try:
        return np.linalg.cholesky(cov + jitter[:, None, None] * np.eye(dim))
    except np.linalg.LinAlgError:
        return np.stack([_jittered_chol(c, j, dim) for c, j in zip(cov, jitter)])


def _jittered_chol(cov, jitter, dim):
    for _ in range(6):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    return np.sqrt(np.clip(np.diag(cov), 1e-12, None))[:, None] * np.eye(dim)


def _t_log_kernel(dist2, dim):
    """Log density of the t proposal, up to a constant per run, at squared Mahalanobis distance ``dist2``."""
    return -0.5 * (_T_DF + dim) * np.log1p(dist2 / _T_DF)


def _mh_sweeps(U, logprior, loglik, beta, target, sweeps, prop_chol, rngs, *, centre=None):
    """Batched Metropolis-Hastings sweeps over the stacked clouds of R runs.

    U (R * N, dim) holds run r's particles in rows r N .. (r + 1) N - 1,
    ``beta`` (R,) and ``prop_chol`` (R, dim, dim) are per run, and ``rngs``
    holds the R generators.  Without ``centre`` each move is a random-walk
    step ``L z`` from the particle.  With ``centre`` (R, dim) it is an
    independence move: the proposal is ``centre + L z sqrt(nu / g)``, a
    multivariate t with nu = ``_T_DF`` degrees of freedom and g a chi^2_nu
    draw, and the log acceptance ratio carries ``log q(current) -
    log q(proposal)``; :func:`_run_batch` makes ``_SWEEPS_BY_MODE`` sweeps
    per stage, 3 of these in integrated mode and 25 random-walk sweeps in
    full mode.  Each sweep draws every run's normals (then, for the
    t, every run's chi^2 draws), makes one prior and one likelihood call
    for all rows, then draws every run's uniforms: each run draws what it
    draws alone.  Returns the updated arrays, the acceptance rate over all
    rows and each run's rate.
    """
    R = len(rngs)
    N, dim = U.shape[0] // R, U.shape[1]
    beta_rows = np.repeat(beta, N)
    accepted = np.zeros(R)
    if centre is not None:
        diff = U.reshape(R, N, dim) - centre[:, None, :]
        t = solve_lower(prop_chol[:, None], diff[..., None])[..., 0]
        logq = _t_log_kernel(np.sum(t * t, axis=2), dim).ravel()
    for _ in range(sweeps):
        z = np.stack([rng.standard_normal((N, dim)) for rng in rngs])
        step = z @ prop_chol.transpose(0, 2, 1)
        if centre is None:
            prop = U + step.reshape(U.shape)
        else:
            g = np.stack([rng.chisquare(_T_DF, N) for rng in rngs])
            shrink = _T_DF / g
            prop = (centre[:, None, :] + step * np.sqrt(shrink)[..., None]).reshape(U.shape)
            logq_prop = _t_log_kernel(np.sum(z * z, axis=2) * shrink, dim).ravel()
        lp_prop = target.log_prior(prop)
        ll_prop = target.log_lik(prop)
        cur = logprior + beta_rows * loglik
        new = lp_prop + beta_rows * ll_prop
        with np.errstate(invalid="ignore"):
            log_ratio = new - cur
            if centre is not None:
                log_ratio += logq - logq_prop
        u = np.concatenate([rng.random(N) for rng in rngs])
        accept = np.log(u) < log_ratio
        U = np.where(accept[:, None], prop, U)
        logprior = np.where(accept, lp_prop, logprior)
        loglik = np.where(accept, ll_prop, loglik)
        if centre is not None:
            logq = np.where(accept, logq_prop, logq)
        accepted += accept.reshape(R, N).sum(axis=1)
    total = sweeps * N
    run_rates = accepted / total if total else np.full(R, np.nan)
    rate = float(accepted.sum() / (R * total)) if total else float("nan")
    return U, logprior, loglik, rate, run_rates


def _run_batch(stats, spec, mode, n_particles, seeds, *, clouds=True):
    """Tempered SMC runs of one target in lockstep; returns one (log evidence, stages, forced steps, cloud) per seed.

    Each run keeps its own exponent, log weights, increments, stage count,
    proposal and generator, and makes its draws in the order it makes them
    alone: its prior sample, then at each stage a resample uniform (when it
    resamples) and, per MH sweep, its normals, its chi^2 draws (for the
    independence t) and then its uniforms.  A stage whose step leaves the
    ESS below the target was set by a ladder guard (the ``min_step`` floor
    or :func:`_bisect`'s ``beta + 1e-6``), not by the bisection, and counts
    as a forced step.  The runs that have not reached beta = 1 share every
    prior and likelihood call and every bisection step; a run leaves the
    batch after the stage in which it reaches 1.  With ``clouds=False``
    it leaves right after that stage's increment, the last term of its
    evidence: the resample and MH sweeps after it would only refresh a
    posterior cloud, and the cloud returned is None.  The integrated
    likelihood splits large calls into blocks of bounded memory.  Each
    value equals the run's value alone up to rounding (kernels round a row
    slightly differently at other block sizes).
    """
    if n_particles < 50:
        raise ValueError("n_particles must be at least 50")
    if mode not in _SWEEPS_BY_MODE:
        raise ValueError("mode must be 'integrated' or 'full'")
    sweeps, proposal = _SWEEPS_BY_MODE[mode], _PROPOSAL_BY_MODE[mode]
    ess_target = _ESS_TARGET_FRAC[mode] * n_particles
    resample_below = _RESAMPLE_FRAC[mode] * n_particles
    target = build_target(stats, spec, mode)
    rngs = [np.random.default_rng(int(seed) % 2 ** 64) for seed in seeds]
    R, N, dim = len(seeds), n_particles, target.dim

    U = np.stack([target.sample_prior(rng, N) for rng in rngs])
    flat = U.reshape(R * N, dim)
    loglik = target.log_lik(flat).reshape(R, N)
    logprior = target.log_prior(flat).reshape(R, N)
    logw = np.zeros((R, N))
    beta = np.zeros(R)
    stage = np.zeros(R, dtype=int)
    increments = [[] for _ in range(R)]
    ess_trace = [[] for _ in range(R)]
    forced = np.zeros(R, dtype=int)
    accept_rate = np.full(R, np.nan)

    while np.any(beta < 1.0):
        a = np.flatnonzero(beta < 1.0)
        stage[a] += 1
        if np.any(stage[a] > _MAX_STAGES):
            raise RuntimeError("tempering ladder failed to reach 1")
        lw, ll = logw[a], loglik[a]
        finite = np.any(np.isfinite(lw + ll), axis=1)
        if not np.all(finite):
            raise DegenerateCloudError(int(stage[a][~finite][0]))
        b = beta[a]
        new_beta = _next_beta(b, lw, ll, ess_target)
        # Floor the step so the ladder always reaches 1 within _MAX_STAGES:
        # badly mixing targets would otherwise stall on vanishing increments.
        min_step = (1.0 - b) / np.maximum(1, _MAX_STAGES - stage[a])
        new_beta = np.minimum(1.0, np.maximum(new_beta, b + min_step))
        with np.errstate(invalid="ignore"):
            stepped = lw + (new_beta - b)[:, None] * ll
        norm = _logsumexp(stepped, axis=1)
        for r, incr in zip(a, norm - _logsumexp(lw, axis=1)):
            increments[r].append(float(incr))
        beta[a] = new_beta
        if not np.all(np.isfinite(norm)):
            raise DegenerateCloudError(int(stage[a][~np.isfinite(norm)][0]))
        ess = _ess(stepped)
        forced[a] += ess < ess_target
        if not clouds:
            going = new_beta < 1.0
            if not going.any():
                break
            a, stepped, norm, ess = a[going], stepped[going], norm[going], ess[going]

        w = np.exp(stepped - norm[:, None])
        w = w / w.sum(axis=1, keepdims=True)
        for i in np.flatnonzero(ess < resample_below):
            r = a[i]
            idx = systematic_resample(w[i], rngs[r])
            U[r], loglik[r], logprior[r] = U[r][idx], loglik[r][idx], logprior[r][idx]
            stepped[i] = 0.0
            w[i] = 1.0 / N
            ess[i] = N   # the ESS of equal weights
        logw[a] = stepped
        for r, e in zip(a, ess):
            ess_trace[r].append(float(e))
        prop_chol = _proposal_chol(U[a], w, dim, proposal)
        centre = np.einsum("rn,rnd->rd", w, U[a]) if proposal == "independence" else None
        Ua, lpa, lla, _, accept_rate[a] = _mh_sweeps(
            U[a].reshape(-1, dim), logprior[a].ravel(), loglik[a].ravel(), beta[a], target,
            sweeps, prop_chol, [rngs[r] for r in a], centre=centre,
        )
        U[a], logprior[a], loglik[a] = Ua.reshape(-1, N, dim), lpa.reshape(-1, N), lla.reshape(-1, N)

    if not clouds:
        return [(float(np.sum(increments[r])), int(stage[r]), int(forced[r]), None) for r in range(R)]
    results = []
    for r, seed in enumerate(seeds):
        cloud = ParticleCloud(
            particles=U[r],
            log_weights=logw[r] - _logsumexp(logw[r]),
            beta_temper=1.0,
            log_z_increments=increments[r],
            rng_seed=int(seed),
            stage=int(stage[r]),
            accept_rate=float(accept_rate[r]),
            ess_trace=tuple(ess_trace[r]),
            forced_steps=int(forced[r]),
        )
        results.append((float(np.sum(increments[r])), cloud.stage, cloud.forced_steps, cloud))
    return results


def run_smc(stats, spec, mode, n_particles, seed):
    """One tempered-SMC run; returns (log_evidence, ParticleCloud).

    Particles are initialized from the prior, the tempering exponent is
    advanced adaptively, and the evidence accumulates the log weighted
    mean of the incremental weights at every stage.  This is the one-run
    case of the batch that :func:`estimate_evidence` runs.
    """
    logz, _, _, cloud = _run_batch(stats, spec, mode, n_particles, [seed])[0]
    return logz, cloud


def derive_run_seed(master_seed, run_index):
    """Deterministic, documented per-run seed splitting."""
    return (int(master_seed) ^ (((run_index + 1) * SEED_SPLIT_MULTIPLIER) % 2 ** 64)) % 2 ** 64


def estimate_evidence(stats, spec, mode, n_runs, n_particles, master_seed):
    """Independent SMC runs with derived seeds, aggregated to an EvidenceEstimate.

    The runs advance in lockstep as one batch in one process: one
    likelihood call per MH sweep for all of them.  A run stops at the
    increment that takes it to beta = 1, without the resample and MH
    sweeps that :func:`run_smc` then makes for its posterior cloud.  Run k
    equals :func:`run_smc` with seed ``derive_run_seed(master_seed, k)``
    up to rounding.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    seeds = [derive_run_seed(master_seed, k) for k in range(n_runs)]
    results = _run_batch(stats, spec, mode, n_particles, seeds, clouds=False)
    logz, stages, forced, _ = zip(*results)
    return EvidenceEstimate.from_runs(
        logz, draws_per_stage=n_particles, likelihood_mode=mode, stage_counts=stages,
        forced_steps=forced,
    )
