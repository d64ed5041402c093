import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlevidence.cli import radon_model_spec
from mlevidence.data_model import Dataset, build_radon_design, load_radon_csv
from mlevidence.likelihood_core import precompute
from mlevidence.analytic_evidence import nig_log_evidence
from mlevidence import smc_engine
from mlevidence.smc_engine import (
    DegenerateCloudError,
    EvidenceEstimate,
    _ESS_TARGET_FRAC,
    _ess,
    _mh_sweeps,
    _next_beta,
    _proposal_chol,
    build_target,
    derive_run_seed,
    estimate_evidence,
    run_smc,
    systematic_resample,
    variance_block_to_natural,
)

from conftest import general_spec, lm_spec, load_radon_table, make_dataset, nig_spec, simple_spec


def empty_stats(d=2):
    data = Dataset(
        y=np.zeros(0), x=np.zeros((0, d)), z=np.zeros((0, 0)),
        group_of=np.zeros(0, dtype=int),
    )
    return precompute(data)


class TestSeedSplitting:
    def test_distinct_and_deterministic(self):
        seeds = [derive_run_seed(123, k) for k in range(32)]
        assert len(set(seeds)) == 32
        assert seeds == [derive_run_seed(123, k) for k in range(32)]

    def test_master_seed_changes_streams(self):
        assert derive_run_seed(1, 0) != derive_run_seed(2, 0)


class TestEvidenceEstimate:
    def test_single_run_flagged(self):
        est = EvidenceEstimate.from_runs([1.5], 100, "integrated")
        assert est.single_run and est.std == 0.0

    def test_std_uses_sample_convention(self):
        est = EvidenceEstimate.from_runs([1.0, 3.0], 100, "integrated")
        assert np.isclose(est.std, np.std([1.0, 3.0], ddof=1))
        assert np.isclose(est.mean, 2.0)


class TestSystematicResample:
    def test_uniform_weights_preserve_everything(self, rng):
        idx = systematic_resample(np.full(8, 1.0 / 8), rng)
        assert sorted(idx) == list(range(8))

    def test_degenerate_weight_takes_over(self, rng):
        w = np.zeros(6)
        w[3] = 1.0
        idx = systematic_resample(w, rng)
        assert np.all(idx == 3)

    def test_counts_match_expectation(self, rng):
        w = np.array([0.5, 0.25, 0.25])
        idx = systematic_resample(np.repeat(w / 4, 4) * 4 / 3, rng)  # still sums to 1
        assert len(idx) == 12


class TestConstantLikelihood:
    def test_log_evidence_exactly_zero(self, rng):
        """With no data every integrated likelihood is identically zero, so
        the accumulated evidence must be exactly 0.0, not merely close."""
        stats = empty_stats()
        for spec in (lm_spec(2), simple_spec(2)):
            logz, cloud = run_smc(stats, spec, "integrated", 64, seed=5)
            assert logz == 0.0
            assert cloud.beta_temper == 1.0


class TestDeterminism:
    def test_same_seed_same_everything(self, rng):
        data = make_dataset(rng, 40, 2, 0, 3)
        stats = precompute(data)
        spec = simple_spec(2)
        z1, c1 = run_smc(stats, spec, "integrated", 80, seed=11)
        z2, c2 = run_smc(stats, spec, "integrated", 80, seed=11)
        assert z1 == z2
        assert np.array_equal(c1.particles, c2.particles)
        assert np.array_equal(c1.log_weights, c2.log_weights)

    def test_different_seeds_differ(self, rng):
        data = make_dataset(rng, 30, 2, 0, 2)
        stats = precompute(data)
        spec = lm_spec(2)
        z1, _ = run_smc(stats, spec, "integrated", 64, seed=1)
        z2, _ = run_smc(stats, spec, "integrated", 64, seed=2)
        assert z1 != z2


class TestTemperingInvariants:
    def test_ess_floor_and_monotone_schedule(self, rng, monkeypatch):
        """Every stage's step keeps an ESS of at least 0.8 N (no step here is
        forced), and the ladder rises strictly to 1.  The returned cloud is
        equally weighted, so the ESS is read from its per-stage trace and the
        ladder from the steps ``_next_beta`` returns."""
        data = make_dataset(rng, 60, 2, 0, 3)
        stats = precompute(data)
        spec = simple_spec(2)
        ladder = []
        next_beta = smc_engine._next_beta

        def recorded(beta, loglik, target):
            new, ess = next_beta(beta, loglik, target)
            ladder.extend(new.tolist())
            return new, ess

        monkeypatch.setattr(smc_engine, "_next_beta", recorded)
        logz, cloud = run_smc(stats, spec, "integrated", 100, seed=3)
        assert cloud.beta_temper == 1.0
        assert np.isfinite(logz)
        assert len(cloud.log_z_increments) == cloud.stage
        assert cloud.forced_steps == 0
        assert len(cloud.ess_trace) == cloud.stage
        assert min(cloud.ess_trace) >= 0.8 * 100
        assert len(ladder) == cloud.stage
        assert np.all(np.diff([0.0] + ladder) > 0.0) and ladder[-1] == 1.0

    def test_minimum_particle_count_enforced(self):
        with pytest.raises(ValueError):
            run_smc(empty_stats(), lm_spec(2), "integrated", 10, seed=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_smc(empty_stats(), lm_spec(2), "nonsense", 64, seed=0)


class TestAccuracy:
    def test_recovers_nig_closed_form(self, rng):
        data = make_dataset(rng, 80, 2, 0, 2)
        stats = precompute(data)
        spec = nig_spec(2)
        analytic = nig_log_evidence(stats, spec)
        est = estimate_evidence(stats, spec, "integrated", 4, 400, 19)
        assert abs(est.mean - analytic) < 0.1
        assert est.std < 0.1

    def test_full_mode_agrees_with_integrated(self, rng):
        data = make_dataset(rng, 50, 2, 0, 3)
        stats = precompute(data)
        spec = simple_spec(2)
        a = estimate_evidence(stats, spec, "integrated", 3, 400, 23)
        b = estimate_evidence(stats, spec, "full", 3, 600, 23)
        assert abs(a.mean - b.mean) < 1.0

    def test_nig_full_mode_matches_closed_form(self, rng):
        """Full mode must give the conjugate family its N(mu, gamma sigma2 Sigma)
        coefficient prior; with N(mu, Sigma) it lands about 2 nats low here."""
        data = make_dataset(rng, 50, 2, 0, 2)
        stats = precompute(data)
        spec = nig_spec(2, gamma=0.05)
        est = estimate_evidence(stats, spec, "full", 3, 600, 31)
        assert abs(est.mean - nig_log_evidence(stats, spec)) < 0.5

    def test_general_full_mode_agrees(self, rng):
        data = make_dataset(rng, 40, 2, 2, 3)
        stats = precompute(data)
        spec = general_spec(2, m=2)
        a = estimate_evidence(stats, spec, "integrated", 3, 300, 29)
        b = estimate_evidence(stats, spec, "full", 3, 600, 29)
        assert abs(a.mean - b.mean) < 1.5


def _rejuvenate(stats, spec, cloud, sweeps, rng):
    """The sampler's MH sweeps over one terminal cloud, at beta = 1."""
    target = build_target(stats, spec, "integrated")
    U = cloud.particles
    prop_chol = _proposal_chol(U[None], target.dim, "random_walk")
    out, *_ = _mh_sweeps(
        U, target.log_prior(U), target.log_lik(U), np.ones(1), target, sweeps, prop_chol, [rng]
    )
    return out


class TestRejuvenation:
    def test_zero_sweeps_is_identity(self, rng):
        data = make_dataset(rng, 30, 2, 0, 2)
        stats = precompute(data)
        spec = lm_spec(2)
        _, cloud = run_smc(stats, spec, "integrated", 64, seed=13)
        out = _rejuvenate(stats, spec, cloud, 0, np.random.default_rng(13))
        assert np.array_equal(out, cloud.particles)

    def test_sweeps_preserve_target_moments(self, rng):
        """Rejuvenation must leave the weighted posterior mean roughly in
        place while changing the particle positions."""
        data = make_dataset(rng, 60, 2, 0, 2)
        stats = precompute(data)
        spec = lm_spec(2)
        _, cloud = run_smc(stats, spec, "integrated", 400, seed=17)
        out = _rejuvenate(stats, spec, cloud, 5, np.random.default_rng(99))
        assert not np.array_equal(out, cloud.particles)
        w = cloud.normalized_weights()
        m_before = w @ cloud.particles
        m_after = w @ out
        sd = np.sqrt(np.average((cloud.particles - m_before) ** 2, weights=w, axis=0))
        assert np.all(np.abs(m_after - m_before) < 5 * sd / np.sqrt(400) * 4 + 0.1)


class TestIndependenceMove:
    def test_sweeps_keep_exact_posterior_draws_exact(self):
        """The independence t move leaves pi_1 invariant.  LinearModelNIG's
        sigma^2 posterior is IG(a + n/2, b + Q/2), Q the prior-predictive
        quadratic form, so u = log sigma^2 has mean log(b') - digamma(a')
        and variance trigamma(a').  Exact draws go through 5 sweeps of a
        proposal centred one standard deviation off; their mean and
        variance must stay put.  Without the log q term in the ratio the
        chain would keep pi * q instead, and the mean moves by about half a
        standard deviation."""
        from scipy.special import digamma, polygamma

        rng = np.random.default_rng(3)
        data = make_dataset(rng, 40, 2, 0, 2)
        stats = precompute(data)
        spec = nig_spec(2)
        resid = data.y - data.x @ spec.prior_mean
        prior_pred = np.eye(data.n) + spec.gamma * data.x @ spec.prior_cov @ data.x.T
        shape = spec.ig_y.shape + 0.5 * data.n
        scale = spec.ig_y.scale + 0.5 * resid @ np.linalg.solve(prior_pred, resid)
        mean, sd = math.log(scale) - digamma(shape), math.sqrt(polygamma(1, shape))

        target = build_target(stats, spec, "integrated")
        grid = np.linspace(mean - 4 * sd, mean + 4 * sd, 9)[:, None]
        closed = shape * math.log(scale) - math.lgamma(shape) - shape * grid[:, 0] - scale * np.exp(-grid[:, 0])
        assert np.ptp(target.log_prior(grid) + target.log_lik(grid) - closed) < 1e-8

        n = 20000
        U = np.log(scale / rng.gamma(shape, size=n))[:, None]
        out, _, _, rate, _ = _mh_sweeps(
            U, target.log_prior(U), target.log_lik(U), np.ones(1), target, 5,
            np.array([[[sd]]]), [rng], centre=np.array([[mean + sd]]),
        )
        assert 0.3 < rate < 0.95
        assert abs(out.mean() - mean) < 5 * sd / math.sqrt(n)
        assert abs(out.var() / sd ** 2 - 1.0) < 5 * math.sqrt(2.0 / n)


class TestForcedSteps:
    def test_stall_guard_step_is_counted(self):
        """A sampled rho on three correlated group effects: 21.95% of the
        prior draws fail the positive-definiteness gate and have zero
        likelihood, so no positive first step keeps an ESS of 0.8 N.  The
        stall guard steps by 1e-6 and the run counts it; the resample then
        drops the zero-likelihood particles, and the bisection sets every
        later step."""
        spec = general_spec(2, m=3, sampled_rho=True, pattern=((0, 1), (1, 2), (0, 2)))
        stats = precompute(make_dataset(np.random.default_rng(5), 60, 2, 3, 4))
        n = 200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logz, cloud = run_smc(stats, spec, "integrated", n, seed=4)
        assert np.isfinite(logz)
        assert cloud.forced_steps == 1
        assert cloud.ess_trace[0] < _ESS_TARGET_FRAC * n
        assert min(cloud.ess_trace[1:]) >= _ESS_TARGET_FRAC * n


@pytest.mark.parametrize("mode", ["integrated", "full"])
def test_prior_without_mass_is_a_degenerate_cloud_in_both_modes(mode):
    """rho = -0.6 on three pairwise-correlated group effects makes every
    Sigma_eta indefinite, so the prior has no mass.  Every draw has zero
    weight in both modes (full mode once scored them by the likelihood of
    eta drawn from the identity stand-in), and the all -inf weights are
    read as a degenerate cloud at stage 1, not as NaN evidence."""
    spec = general_spec(2, m=3, rho=-0.6, pattern=((0, 1), (1, 2), (0, 2)))
    stats = precompute(make_dataset(np.random.default_rng(5), 60, 2, 3, 4))
    with pytest.raises(DegenerateCloudError) as alone:
        run_smc(stats, spec, mode, 50, seed=1)
    with pytest.raises(DegenerateCloudError) as batch:
        estimate_evidence(stats, spec, mode, 3, 50, 1)
    assert alone.value.stage == batch.value.stage == 1


def _one_group_linear_stats(n, d, noise, coef_scale):
    """One group, x ~ N(0, I) and y = x b + N(0, noise^2) with b ~ N(0, coef_scale^2 I), from seed 0."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, d))
    y = x @ (rng.normal(size=d) * coef_scale) + rng.normal(0, noise, n)
    return precompute(Dataset(y=y, x=x, z=np.zeros((n, 0)), group_of=np.ones(n, dtype=int)))


def _log_variance_grid_evidence(stats, spec):
    """Trapezoid rule in u = log sigma^2 over the integrated target's log
    likelihood plus log prior (which carries the Jacobian of u): a coarse
    grid finds the mode, and 40 001 points span it +- 1."""
    target = build_target(stats, spec, "integrated")

    def log_post(u):
        return target.log_lik(u[:, None]) + target.log_prior(u[:, None])

    coarse = np.linspace(-20.0, 5.0, 2501)
    mode = coarse[np.argmax(log_post(coarse))]
    u = np.linspace(mode - 1.0, mode + 1.0, 40001)
    v = log_post(u)
    return v.max() + math.log(np.trapezoid(np.exp(v - v.max()), u))


class TestLadderOnSharpTargets:
    """Where the ESS rule asks for small steps, the ladder takes them: no
    guard overrides it, and the evidence agrees with a log-variance grid."""

    def test_integrated_mode_on_a_sharp_likelihood(self):
        stats = _one_group_linear_stats(100_000, 4, 0.05, 1.0)
        spec = lm_spec(4, scale=1.0)
        reference = _log_variance_grid_evidence(stats, spec)
        est = estimate_evidence(stats, spec, "integrated", 4, 500, 3)
        assert est.forced_steps == (0, 0, 0, 0)
        assert max(abs(r - reference) for r in est.runs) < 1.0, (est.runs, reference)

    def test_full_mode_with_24_coefficients(self):
        stats = _one_group_linear_stats(1000, 24, 0.6, 0.5)
        spec = lm_spec(24, scale=1.0)
        reference = _log_variance_grid_evidence(stats, spec)
        est = estimate_evidence(stats, spec, "full", 4, 500, 3)
        assert est.forced_steps == (0, 0, 0, 0)
        assert abs(est.mean - reference) < 5.0, (est.runs, reference)
        assert est.std <= 2.0, est.runs


def test_sigma_eta_at_rho_one_is_zero_density_not_an_error(tmp_path):
    """radon:M5 at a row whose atanh(rho) is -23.98: tanh rounds rho to
    -1.0 exactly, the smallest computed eigenvalue of Sigma_eta is a
    rounding residue of 8.9e-16 and ``np.linalg.cholesky`` fails on it.
    The row must get zero density, with no error and no warning."""
    radon_table = load_radon_table()
    csv = tmp_path / "radon.csv"
    csv.write_text(radon_table.to_csv(radon_table.draw([1, 0])), encoding="utf-8")
    data, _ = build_radon_design(load_radon_csv(csv), "M5")
    spec = radon_model_spec("M5", data.d)
    target = build_target(precompute(data), spec, "integrated")
    row = np.array([[6.39286924400416, 1.5655613054467064, 12.914098284262321, -23.976799078171393]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert target.log_prior(row)[0] == -np.inf
        assert target.log_lik(row)[0] == -np.inf
        _, ok = spec.layout.sigma_eta(variance_block_to_natural(spec, row))
    assert not ok[0]


class TestSamplingScale:
    def test_natural_block_positive(self, rng):
        data = make_dataset(rng, 30, 2, 0, 3)
        stats = precompute(data)
        spec = simple_spec(2)
        _, cloud = run_smc(stats, spec, "integrated", 64, seed=31)
        nat = variance_block_to_natural(spec, cloud.particles)
        assert np.all(nat > 0)

    def test_sampled_rho_stays_in_interval(self, rng):
        data = make_dataset(rng, 30, 2, 2, 3)
        stats = precompute(data)
        spec = general_spec(2, m=2, sampled_rho=True)
        _, cloud = run_smc(stats, spec, "integrated", 64, seed=37)
        nat = variance_block_to_natural(spec, cloud.particles)
        rho = nat[:, -1]
        assert np.all((rho > -1) & (rho < 1))
        assert np.all(nat[:, :-1] > 0)

    def test_prior_only_run_matches_ig_prior_moments(self, rng):
        """With an empty dataset the terminal cloud is a prior sample."""
        stats = empty_stats()
        spec = lm_spec(2)
        _, cloud = run_smc(stats, spec, "integrated", 4000, seed=41)
        nat = variance_block_to_natural(spec, cloud.particles)[:, 0]
        # IG(3, 0.4): mean 0.2
        assert abs(nat.mean() - 0.2) < 0.02


_PARITY_CASES = {
    "lm": (lambda: lm_spec(2), (40, 2, 0, 3), "integrated"),
    "nig": (lambda: nig_spec(2), (40, 2, 0, 3), "integrated"),
    "simple_low_rank": (lambda: simple_spec(5), (60, 5, 0, 2), "integrated"),
    "simple_dense": (lambda: simple_spec(2), (60, 2, 0, 4), "integrated"),
    "general_sampled_rho": (lambda: general_spec(2, m=2, sampled_rho=True), (40, 2, 2, 3), "integrated"),
    "simple_full": (lambda: simple_spec(2), (40, 2, 0, 3), "full"),
    "general_full": (lambda: general_spec(2, m=2), (30, 2, 2, 3), "full"),
}


class TestRunBatch:
    """``estimate_evidence`` advances its runs as one batch; each run is the
    run ``run_smc`` makes alone with the derived seed."""

    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_batched_runs_match_standalone_runs(self, case):
        make_spec, shape, mode = _PARITY_CASES[case]
        stats = precompute(make_dataset(np.random.default_rng(5), *shape))
        spec = make_spec()
        est = estimate_evidence(stats, spec, mode, 4, 50, 17)
        for k in range(4):
            logz, cloud = run_smc(stats, spec, mode, 50, derive_run_seed(17, k))
            assert abs(est.runs[k] - logz) < 1e-9
            assert est.stage_counts[k] == cloud.stage
            assert est.forced_steps[k] == cloud.forced_steps

    @pytest.mark.parametrize("make_spec,shape", [
        (lambda: lm_spec(2), (40, 2, 0, 3)),
        (lambda: simple_spec(5), (60, 5, 0, 2)),
        (lambda: general_spec(2, m=2, sampled_rho=True), (40, 2, 2, 3)),
    ], ids=["linear", "simple_low_rank", "general"])
    def test_evidence_runs_equal_standalone_runs_exactly(self, make_spec, shape):
        """Stopping a run at its last increment drops only work after it: each
        run's evidence and stage count are exactly those of ``run_smc``."""
        stats = precompute(make_dataset(np.random.default_rng(5), *shape))
        spec = make_spec()
        est = estimate_evidence(stats, spec, "integrated", 4, 50, 77)
        for k in range(4):
            logz, cloud = run_smc(stats, spec, "integrated", 50, derive_run_seed(77, k))
            assert est.runs[k] == logz
            assert est.stage_counts[k] == cloud.stage

    def test_runs_with_different_ladders_share_the_batch(self):
        """Runs leave the batch at different stages, and the ones left keep
        their own ladders."""
        stats = precompute(make_dataset(np.random.default_rng(5), 60, 2, 0, 4))
        spec = simple_spec(2)
        est = estimate_evidence(stats, spec, "integrated", 6, 50, 3)
        assert len(set(est.stage_counts)) > 1
        for k in range(6):
            logz, cloud = run_smc(stats, spec, "integrated", 50, derive_run_seed(3, k))
            assert abs(est.runs[k] - logz) < 1e-9
            assert est.stage_counts[k] == cloud.stage


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 6), n=st.integers(2, 80),
       scale=st.floats(0.01, 1e3), frac=st.floats(0.05, 0.95))
def test_property_next_beta_keeps_every_run_at_the_target(seed, runs, n, scale, frac):
    """The batched bisection never steps a run below the target ESS, under
    the ``_ess`` that the resample decision reads, and each run takes the
    step it takes alone."""
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.0, 0.9, runs)
    loglik = scale * rng.normal(size=(runs, n))
    target = frac * n
    new, _ = _next_beta(beta, loglik, target)
    assert np.all((new > beta) & (new <= 1.0))
    assert np.all(_ess((new - beta)[:, None] * loglik) >= target)
    for r in range(runs):
        assert _next_beta(beta[r:r + 1], loglik[r:r + 1], target)[0][0] == new[r]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 6), n=st.integers(2, 80),
       scale=st.floats(0.01, 1e3), frac=st.floats(0.05, 0.95), dead=st.floats(0.0, 0.5))
def test_property_next_beta_solves_each_step_to_the_tolerance(seed, runs, n, scale, frac, dead):
    """Each step's ESS lies in [target, 1.01 target], unless the whole
    remaining step keeps the target (beta = 1) or too few particles have a
    nonzero likelihood for any step to keep it (the stall guard); a batch
    of one returns its row of the batch.  The ESS returned with each step
    is the ESS of that step, bit for bit."""
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.0, 0.9, runs)
    loglik = scale * rng.normal(size=(runs, n))
    loglik[:, 1:][rng.random((runs, n - 1)) < dead] = -np.inf
    target = frac * n
    new, returned = _next_beta(beta, loglik, target)
    with np.errstate(invalid="ignore"):
        ess = _ess((new - beta)[:, None] * loglik)
        full = _ess((1.0 - beta)[:, None] * loglik)
    assert np.array_equal(returned, ess)
    for r in range(runs):
        if new[r] == 1.0:
            assert full[r] >= target
        elif ess[r] < target:
            assert new[r] == beta[r] + 1e-6
            assert np.isfinite(loglik[r]).sum() <= target
        else:
            assert ess[r] <= 1.01 * target, (ess[r], target)
        assert _next_beta(beta[r:r + 1], loglik[r:r + 1], target)[0][0] == new[r]


def test_tempering_step_costs_few_ess_calls(monkeypatch):
    """Solving each step to the tolerance, not to float resolution, takes
    about a dozen ESS calls per stage (about 50 at float resolution)."""
    calls = []

    def counted(logw):
        calls.append(1)
        return _ess(logw)

    stats = precompute(make_dataset(np.random.default_rng(5), 60, 2, 0, 4))
    monkeypatch.setattr(smc_engine, "_ess", counted)
    _, cloud = run_smc(stats, simple_spec(2), "integrated", 200, seed=3)
    assert len(calls) <= 15 * cloud.stage, (len(calls), cloud.stage)


class TestScipyFreeHelpers:
    """The sampler's NumPy/stdlib replacements agree with SciPy's functions."""

    def test_truncnorm_draws_match_ndtri(self):
        from scipy.special import ndtr, ndtri

        from mlevidence.smc_engine import _sample_truncnorm

        draws = _sample_truncnorm(np.random.default_rng(3), 5000)
        assert np.all((draws > -1.0) & (draws < 1.0))
        lo, hi = ndtr(-1.0), ndtr(1.0)
        ref = ndtri(lo + np.random.default_rng(3).random(5000) * (hi - lo))
        np.testing.assert_allclose(draws, ref, rtol=0, atol=1e-12)

    def test_truncnorm_normalizer_matches_ndtr(self):
        from scipy.special import ndtr

        from mlevidence.smc_engine import _TRUNCNORM_LOGNORM

        assert abs(_TRUNCNORM_LOGNORM - np.log(ndtr(1.0) - ndtr(-1.0))) < 1e-15

    @pytest.mark.parametrize("shape,scale", [(3.0, 0.4), (0.7, 2.0), (25.5, 11.0)])
    def test_ig_log_density_matches_invgamma(self, shape, scale):
        from scipy.stats import invgamma

        from mlevidence.smc_engine import _ig_log_density

        v = np.geomspace(1e-3, 1e3, 41)
        np.testing.assert_allclose(
            _ig_log_density(v, shape, scale), invgamma.logpdf(v, shape, scale=scale),
            rtol=1e-12, atol=1e-12,
        )
