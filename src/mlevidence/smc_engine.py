"""Tempered sequential Monte Carlo over variance space (or the full parameter space).

The sampler bridges prior and posterior through an adaptively chosen
tempering ladder, the same in both likelihood modes (Jasra, Stephens, Doucet
& Tsagaris 2011).  Each stage starts from an equally weighted cloud, steps
the exponent, bisected to an effective sample size after reweighting within
1% above 0.8 N, resamples systematically when the weights differ, and
refreshes the particles by Metropolis-Hastings sweeps fitted to the
resampled cloud's plain mean and covariance.  The log evidence is the sum
over stages of the log mean incremental weight; one max-shifted pass over
a step's log weights gives both that mean and the resampling weights.

Only the moves differ by mode.  Integrated mode samples only the 1-6
variance parameters, where a proposal fitted to the cloud is close to the
target itself: 3 sweeps of independence moves per stage, each proposal drawn
from a multivariate t with 4 degrees of freedom centred at the cloud's mean,
with its covariance as scale matrix (South, Pettitt & Drovandi 2019,
"Sequential Monte Carlo samplers with independent Markov chain Monte Carlo
proposals").  Those proposals do not depend on the state, so a stage
evaluates all of them in one prior and one likelihood call.  Full mode
makes 25 random-walk sweeps per stage, with the cloud's covariance times
2.38^2 / dim.

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
# Per mode: MH sweeps per stage and their proposal ("independence": a t
# fitted to the resampled cloud, "random_walk": a Gaussian step from each
# particle).
_SWEEPS_BY_MODE = {"integrated": 3, "full": 25}
_PROPOSAL_BY_MODE = {"integrated": "independence", "full": "random_walk"}
_ESS_TARGET_FRAC = 0.8   # share of the particles each tempering step keeps as ESS
_ESS_TOL = 0.01          # a step is solved once its ESS lies within this share above the target
_T_DF = 4.0              # degrees of freedom of the independence proposal
_MAX_STAGES = 1000


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
    ess_trace: tuple = ()    # ESS after each stage's step, before its resample
    forced_steps: int = 0    # stages whose step the stall guard set, below the ESS target

    def normalized_weights(self):
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()

    def ess(self):
        return float(_ess(self.log_weights))


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
    return np.where(
        (rho > -1.0) & (rho < 1.0),
        -0.5 * (np.log(2.0 * np.pi) + rho * rho) - _TRUNCNORM_LOGNORM,
        -np.inf,
    )


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
            Le, ok = layout.sigma_eta(variance_block_to_natural(spec, block))
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
            Le, _ = layout.sigma_eta(variance_block_to_natural(spec, block))
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
    decision and the ESS trace all read it, so a step the bisection accepts
    (within 1% above the target) is never judged below it.  Rows are reduced
    independently: a run's value does not depend on the other runs.
    """
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    total = w.sum(axis=-1)
    return total * total / (w * w).sum(axis=-1)


def _next_beta(beta, loglik, target_ess):
    """Next tempering exponent of each run, a step whose ESS lies within 1% above the target, and that ESS.

    ``beta`` (R,) and ``loglik`` (R, N) of equally weighted clouds, so a
    step's log weights are ``step * loglik``.  All runs bisect at once, one
    ESS call per halving, and a run stops once the ESS at its lower end is in
    [target, (1 + ``_ESS_TOL``) target] or no float lies between its ends;
    its steps do not depend on the other runs.  Where no positive step keeps
    the target (more than N - target particles at zero likelihood), the
    stall guard steps by 1e-6.  Each run's ESS is the one evaluated at its
    returned step; only the stall guard's steps need an ESS call of their own.
    """
    with np.errstate(invalid="ignore"):
        ess_one = _ess((1.0 - beta)[:, None] * loglik)
        done = ess_one >= target_ess
        lo = np.where(done, 1.0, beta)
        hi = np.ones_like(lo)
        ess_lo = np.where(done, ess_one, np.inf)   # a zero step never solves a run
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            a = np.flatnonzero((lo < mid) & (mid < hi) & (ess_lo > (1.0 + _ESS_TOL) * target_ess))
            if a.size == 0:
                break
            ess = _ess((mid[a] - beta[a])[:, None] * loglik[a])
            ok = ess >= target_ess
            up, down = a[ok], a[~ok]
            lo[up], ess_lo[up], hi[down] = mid[up], ess[ok], mid[down]
        stalled = np.flatnonzero(lo <= beta)
        lo[stalled] = np.minimum(1.0, beta[stalled] + 1e-6)   # the stall guard
        if stalled.size:
            ess_lo[stalled] = _ess((lo[stalled] - beta[stalled])[:, None] * loglik[stalled])
    return lo, ess_lo


def systematic_resample(weights, rng):
    """Systematic resampling; returns selected indices."""
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0
    return np.searchsorted(cumsum, positions)


def _proposal_chol(U, dim, proposal):
    """Cholesky factors (R, dim, dim) of each run's proposal scale matrix.

    ``U`` (R, N, dim) holds equally weighted clouds.  The independence t
    takes each cloud's plain covariance itself; the random walk takes it
    times ``2.38^2 / dim``.
    """
    diff = U - U.mean(axis=1, keepdims=True)
    cov = diff.transpose(0, 2, 1) @ diff / U.shape[1]
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


def _independence_moves(centre, prop_chol, sweeps, N, rngs, target):
    """Every sweep's independence proposals, drawn and evaluated at once.

    Each run draws, sweep after sweep, its normals, its chi^2 draws and its
    uniforms: the draws it would make sweep by sweep, in the same order,
    since a proposal does not depend on the state it is to replace.  The
    proposals of all sweeps and runs go through one prior and one
    likelihood call.  Returns the proposals (sweeps, R * N, dim), their log
    prior, log likelihood and log t kernel, and the uniforms, each
    (sweeps, R * N).
    """
    R, dim = centre.shape
    z, g, u = np.empty((sweeps, R, N, dim)), np.empty((sweeps, R, N)), np.empty((sweeps, R, N))
    for r, rng in enumerate(rngs):
        for s in range(sweeps):
            z[s, r] = rng.standard_normal((N, dim))
            g[s, r] = rng.chisquare(_T_DF, N)
            u[s, r] = rng.random(N)
    shrink = _T_DF / g
    step = z @ prop_chol.transpose(0, 2, 1)
    prop = (centre[:, None, :] + step * np.sqrt(shrink)[..., None]).reshape(-1, dim)
    rows = (sweeps, R * N)
    return (
        prop.reshape(rows + (dim,)), target.log_prior(prop).reshape(rows),
        target.log_lik(prop).reshape(rows),
        _t_log_kernel(np.sum(z * z, axis=3) * shrink, dim).reshape(rows), u.reshape(rows),
    )


def _mh_sweeps(U, logprior, loglik, beta, target, sweeps, prop_chol, rngs, *, centre=None):
    """Batched Metropolis-Hastings sweeps over the stacked clouds of R runs.

    U (R * N, dim) holds run r's particles in rows r N .. (r + 1) N - 1,
    ``beta`` (R,) and ``prop_chol`` (R, dim, dim) are per run, and ``rngs``
    holds the R generators.  Without ``centre`` each move is a random-walk
    step ``L z`` from the particle: each sweep draws every run's normals,
    makes one prior and one likelihood call for all rows, then draws every
    run's uniforms.  With ``centre`` (R, dim) it is an independence move:
    the proposal is ``centre + L z sqrt(nu / g)``, a multivariate t with
    nu = ``_T_DF`` degrees of freedom and g a chi^2_nu draw, and the log
    acceptance ratio carries ``log q(current) - log q(proposal)``.  Those
    proposals do not depend on the state, so all sweeps' proposals are
    drawn and evaluated first (:func:`_independence_moves`) and the sweeps
    then only accept or reject.  Either way each run draws what it draws
    alone.  Returns the updated arrays, the acceptance rate over all rows
    and each run's rate.
    """
    R = len(rngs)
    N, dim = U.shape[0] // R, U.shape[1]
    beta_rows = np.repeat(beta, N)
    accepted = np.zeros(R)
    if centre is not None:
        diff = U.reshape(R, N, dim) - centre[:, None, :]
        t = solve_lower(prop_chol[:, None], diff[..., None])[..., 0]
        logq = _t_log_kernel(np.sum(t * t, axis=2), dim).ravel()
        moves = _independence_moves(centre, prop_chol, sweeps, N, rngs, target)
    for s in range(sweeps):
        if centre is None:
            z = np.stack([rng.standard_normal((N, dim)) for rng in rngs])
            prop = U + (z @ prop_chol.transpose(0, 2, 1)).reshape(U.shape)
            lp_prop, ll_prop = target.log_prior(prop), target.log_lik(prop)
            u = np.concatenate([rng.random(N) for rng in rngs])
        else:
            prop, lp_prop, ll_prop, logq_prop, u = (part[s] for part in moves)
        cur = logprior + beta_rows * loglik
        new = lp_prop + beta_rows * ll_prop
        with np.errstate(invalid="ignore"):
            log_ratio = new - cur
            if centre is not None:
                log_ratio += logq - logq_prop
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

    Each run keeps its own exponent, increments, stage count, proposal and
    generator, and makes its draws in the order it makes them alone: its
    prior sample, then at each stage a resample uniform (when its weights
    differ) and, per MH sweep, its normals, its chi^2 draws (for the
    independence t) and then its uniforms.  Every stage starts from an
    equally weighted cloud and bisects its step to an ESS within 1% above
    the target; a step below the target was set by the stall guard and
    counts as a forced step.  The step's log weights are exponentiated once,
    shifted by each run's maximum: their mean is the increment and their
    normalized values are the resampling weights.  The runs that have not
    reached beta = 1 share every prior and likelihood call and every
    bisection step; a run leaves the batch after the stage in which it
    reaches 1.  With ``clouds=False`` it leaves right after that stage's
    increment, the last term of its evidence: the resample and MH sweeps
    after it would only refresh a posterior cloud, and the cloud returned
    is None.  The integrated
    likelihood splits large calls into blocks of bounded memory.  Each value
    equals the run's value alone up to rounding (kernels round a row
    slightly differently at other block sizes).
    """
    if n_particles < 50:
        raise ValueError("n_particles must be at least 50")
    target = build_target(stats, spec, mode)   # raises ValueError for an unknown mode
    sweeps, proposal = _SWEEPS_BY_MODE[mode], _PROPOSAL_BY_MODE[mode]
    ess_target = _ESS_TARGET_FRAC * n_particles
    rngs = [np.random.default_rng(int(seed) % 2 ** 64) for seed in seeds]
    R, N, dim = len(seeds), n_particles, target.dim

    U = np.stack([target.sample_prior(rng, N) for rng in rngs])
    flat = U.reshape(R * N, dim)
    logprior = target.log_prior(flat).reshape(R, N)
    # A draw of zero prior density gets no weight, although in full mode its
    # likelihood (of eta drawn from the identity stand-in for Sigma_eta) is finite.
    loglik = np.where(logprior == -np.inf, -np.inf, target.log_lik(flat).reshape(R, N))
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
        ll = loglik[a]
        finite = np.any(np.isfinite(ll), axis=1)
        if not np.all(finite):
            raise DegenerateCloudError(int(stage[a][~finite][0]))
        b = beta[a]
        new_beta, ess = _next_beta(b, ll, ess_target)
        with np.errstate(invalid="ignore"):
            stepped = (new_beta - b)[:, None] * ll
        top = stepped.max(axis=1)
        w = np.exp(stepped - top[:, None])   # the one pass: the increment and the resampling weights
        total = w.sum(axis=1)
        incr = np.log(total / N) + top
        if not np.all(np.isfinite(incr)):
            raise DegenerateCloudError(int(stage[a][~np.isfinite(incr)][0]))
        for r, value in zip(a, incr):
            increments[r].append(float(value))
        beta[a] = new_beta
        forced[a] += ess < ess_target
        for r, e in zip(a, ess):
            ess_trace[r].append(float(e))
        if not clouds:
            going = new_beta < 1.0
            if not going.any():
                break
            a, w, total, ess = a[going], w[going], total[going], ess[going]

        for i in np.flatnonzero(ess < N):   # every stage whose weights differ
            r = a[i]
            idx = systematic_resample(w[i] / total[i], rngs[r])
            U[r], loglik[r], logprior[r] = U[r][idx], loglik[r][idx], logprior[r][idx]
        Ua = U[a]
        prop_chol = _proposal_chol(Ua, dim, proposal)
        centre = Ua.mean(axis=1) if proposal == "independence" else None
        Ua, lpa, lla, _, accept_rate[a] = _mh_sweeps(
            Ua.reshape(-1, dim), logprior[a].ravel(), loglik[a].ravel(), beta[a], target,
            sweeps, prop_chol, [rngs[r] for r in a], centre=centre,
        )
        U[a], logprior[a], loglik[a] = Ua.reshape(-1, N, dim), lpa.reshape(-1, N), lla.reshape(-1, N)

    results = []
    for r, seed in enumerate(seeds):
        cloud = None if not clouds else ParticleCloud(
            particles=U[r],
            log_weights=np.full(N, -np.log(N)),
            beta_temper=1.0,
            log_z_increments=increments[r],
            rng_seed=int(seed),
            stage=int(stage[r]),
            accept_rate=float(accept_rate[r]),
            ess_trace=tuple(ess_trace[r]),
            forced_steps=int(forced[r]),
        )
        results.append((float(np.sum(increments[r])), int(stage[r]), int(forced[r]), cloud))
    return results


def run_smc(stats, spec, mode, n_particles, seed):
    """One tempered-SMC run; returns (log_evidence, ParticleCloud).

    Particles are initialized from the prior, the tempering exponent is
    advanced adaptively, and the evidence accumulates the log mean of the
    incremental weights at every stage.  This is the one-run
    case of the batch that :func:`estimate_evidence` runs.
    """
    logz, _, _, cloud = _run_batch(stats, spec, mode, n_particles, [seed])[0]
    return logz, cloud


def derive_run_seed(master_seed, run_index):
    """Deterministic, documented per-run seed splitting."""
    return (int(master_seed) ^ (((run_index + 1) * SEED_SPLIT_MULTIPLIER) % 2 ** 64)) % 2 ** 64


def estimate_evidence(stats, spec, mode, n_runs, n_particles, master_seed):
    """Independent SMC runs with derived seeds, aggregated to an EvidenceEstimate.

    The runs advance in lockstep as one batch in one process: in
    integrated mode one likelihood call per stage for all of them (per MH
    sweep in full mode).  A run stops at the
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
